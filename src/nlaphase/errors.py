"""Exception types raised by the library, all ValueError subclasses, and its argument rules."""

import math
import numbers


def _subject(name: str | None) -> str:
    return "" if name is None else f"{name} "


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
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{_subject(name)}must be an integer{bound}, got {value!r}")
    return int(value)


def as_seed(name: str | None, value) -> int:
    """`value` as a 64-bit unsigned seed: an integer >= 0 by `as_int`, below 2**64."""
    seed = as_int(name, value, minimum=0)
    if seed >= 1 << 64:
        raise ValueError(f"{_subject(name)}must be a 64-bit unsigned integer, got {seed}")
    return seed


def as_float(name: str | None, value, minimum: float | None = None) -> float:
    """`value` as a finite float, or a ValueError that names the argument `name`.

    The float counterpart of `as_int`: Python and numpy real numbers (integers
    included) pass; bools, numpy bools and values that are not real numbers
    (complex numbers, strings, None) raise, so no parameter is taken from a
    truth value.  NaN, +-inf and a value too large for a double raise too, and
    with `minimum` so does a smaller value.  With `name` None the message
    starts at "must be".
    """
    if isinstance(value, float):  # Python and numpy doubles, before the slower ABC check
        number = float(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{_subject(name)}must be a number, got {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(
                f"{_subject(name)}must be a number a double can hold, got {value!r}"
            ) from None
    if math.isfinite(number) and (minimum is None or number >= minimum):
        return number
    bound = "" if minimum is None else f" >= {minimum:g}"
    raise ValueError(f"{_subject(name)}must be a finite number{bound}, got {value!r}")


def as_positive(name: str, value) -> float:
    """`value` as a finite float > 0: `as_float`, then a ValueError naming `name` for
    zero or a negative value."""
    number = as_float(name, value)
    if number <= 0.0:
        raise ValueError(f"{name} must be a finite number > 0, got {number!r}")
    return number


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
