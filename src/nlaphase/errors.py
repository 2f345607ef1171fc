"""Exception types raised by the library, all ValueError subclasses, and its integer and float checks."""

import numbers


def as_int(name: str | None, value, minimum: int | None = None) -> int:
    """`value` as an int, or a ValueError that names the argument `name`.

    The one rule for every integer argument of the library: Python and numpy
    integers pass; bools and floats (integral ones too) raise, so no count is
    truncated, rounded or taken from a truth value.  With `minimum`, a smaller
    value raises as well.  With `name` None the message starts at "must be",
    for a caller that names the value itself.
    """
    if type(value) is int and (minimum is None or value >= minimum):
        return value  # Python ints (bools are not), before the slower ABC check
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
        minimum is not None and value < minimum
    ):
        subject = "" if name is None else f"{name} "
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{subject}must be an integer{bound}, got {value!r}")
    return int(value)


def as_float(name: str | None, value) -> float:
    """`value` as a float, or a ValueError that names the argument `name`.

    The float counterpart of `as_int`: Python and numpy real numbers (integers
    included) pass; bools, numpy bools and values that are not real numbers
    (complex numbers, strings, None) raise, so no parameter is taken from a
    truth value.  A value too large for a double raises too.  With `name` None
    the message starts at "must be".
    """
    if isinstance(value, float):  # Python and numpy doubles, before the slower ABC check
        return float(value)
    subject = "" if name is None else f"{name} "
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{subject}must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{subject}must be a number a double can hold, got {value!r}") from None


class DimensionMismatchError(ValueError):
    """Two Fock vectors carry different cutoffs."""


class DegenerateObservableError(ValueError):
    """The state family carries no phase information (zero Fisher information)."""


class NoCrossingError(ValueError):
    """The success-branch information does not exceed the no-amplifier value."""


class NoDataError(ValueError):
    """An estimator was asked for an estimate without any informative counts."""


class NoBreakevenError(ValueError):
    """Post-selection can never be cheaper, so no break-even cost exists."""
