"""Exception types shared across the package, and the argument checks that
raise one: one for counts, one for elements and one for pairs of elements."""


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


def _check_count(value, label: str, noun: str, least: int = 0) -> None:
    """PreconditionError unless value is an int >= least (a bool is not an int here)."""
    if type(value) is not int:
        raise PreconditionError(f"{label} {value!r}: the {noun} must be an int")
    if value < least:
        raise PreconditionError(f"{label} {value}: the {noun} must be >= {least}")


def _check_elements(values, n: int, noun: str = "element") -> None:
    """PreconditionError unless each value is an int in 0..n-1 (not a bool)."""
    for v in values:
        if type(v) is not int or not 0 <= v < n:
            raise PreconditionError(f"{noun} {v!r} out of range 0..{n - 1}")


def _check_pairs(pairs, n: int, noun: str = "element"):
    """Each pair as a 2-tuple, as it is reached; PreconditionError there
    unless it is a pair of ints in 0..n-1."""
    for pair in pairs:
        try:
            x, y = pair
        except (TypeError, ValueError):
            raise PreconditionError(f"{pair!r} is not a pair of {noun}s") from None
        _check_elements((x, y), n, noun)
        yield x, y
