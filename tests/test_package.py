"""The package's public surface."""
import statnet


def test_every_exported_name_resolves():
    missing = [name for name in statnet.__all__ if not hasattr(statnet, name)]
    assert missing == []
