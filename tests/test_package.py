"""The package root: a map of its modules that imports none of them."""
import importlib
import pkgutil
import re
import subprocess
import sys

import pytest

import statnet
from test_cli import src_first_env

MAPPED = re.findall(r"^- (\w+):", statnet.__doc__, re.M)


def test_import_loads_no_module_and_no_numpy():
    # -X importtime lists every module the process imports, on stderr.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import statnet"], capture_output=True, text=True,
                          env=src_first_env())
    assert proc.returncode == 0
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines()}
    assert "statnet" in modules
    assert [m for m in modules
            if m.startswith("statnet.") or m.split(".")[0] == "numpy"] == []


def test_docstring_maps_every_module():
    assert sorted(MAPPED) == sorted(
        info.name for info in pkgutil.iter_modules(statnet.__path__))


@pytest.mark.parametrize("name", MAPPED)
def test_mapped_module_imports(name):
    importlib.import_module(f"statnet.{name}")
