"""Exception types shared across the package, and the count check that
raises one."""


class PomaError(Exception):
    """Base class for every error raised by this library."""


class StructuralError(PomaError):
    """Malformed input: non-square order matrix, out-of-range table entry,
    or an operation that needs lattice structure the carrier lacks."""


class BudgetError(PomaError):
    """A configured search or size budget ran out before completion."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class PreconditionError(PomaError):
    """An operation was applied outside its stated domain."""


class ParseError(PomaError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConsistencyError(PomaError):
    """Two independent decision routes that must agree disagreed."""


def _check_count(value, label: str, noun: str) -> None:
    """PreconditionError unless value is an int >= 0 (a bool is not an int here)."""
    if type(value) is not int:
        raise PreconditionError(f"{label} {value!r}: the {noun} must be an int")
    if value < 0:
        raise PreconditionError(f"{label} {value}: the {noun} must be >= 0")
