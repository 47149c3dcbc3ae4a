"""Exception types shared across the package."""


class StatnetError(Exception):
    """Base class for all domain errors."""


class ParseError(StatnetError):
    """Network DSL error, annotated with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateDynamicsError(StatnetError):
    """The watchdog dynamics cannot take its next step.

    The drive demands mass in a sector that holds none and has no allowed
    state to refill, or the triplet fixed point does not converge.
    """


class UnpreparableNetworkError(StatnetError):
    """No assignment satisfies the gates together with the input pins."""
