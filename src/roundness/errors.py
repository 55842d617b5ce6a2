"""Exception hierarchy shared across the package, and the argument checks
every public entry point runs first: `_integer`, `_real` and `_integers`."""

import math
import numbers


class RoundnessError(Exception):
    """Base class for all errors raised by this package."""


# -- metric space construction ------------------------------------------------

class NotSymmetricError(RoundnessError):
    pass


class NonzeroDiagonalError(RoundnessError):
    pass


class NegativeEntryError(RoundnessError):
    pass


class ZeroDistanceError(RoundnessError):
    """Zero distance between distinct points (pseudometrics are rejected)."""


class TriangleViolationError(RoundnessError):
    def __init__(self, i: int, k: int, j: int, dij: float, dik: float, dkj: float):
        self.triple = (i, k, j)
        super().__init__(
            f"triangle inequality violated: d[{i}][{j}] = {dij} > "
            f"d[{i}][{k}] + d[{k}][{j}] = {dik} + {dkj}"
        )


class NegativeExponentError(RoundnessError):
    pass


# -- spectral -----------------------------------------------------------------

class NoConvergenceError(RoundnessError):
    """The eigensolver failed, or its reconstruction residual is too large,
    or (values only) its eigenvalues miss the trace or the squared Frobenius
    norm of the matrix."""

    def __init__(self, residual: float | None = None, reason: str | None = None):
        self.residual = residual
        detail = reason if residual is None else f"reconstruction residual {residual:.3e}"
        super().__init__(f"eigensolver did not converge ({detail})")


class NonFiniteMatrixError(RoundnessError, ValueError):
    """A matrix handed to `eigensym`, or distances that `_check_distances`
    reads, have NaN or infinite entries; a ValueError too, as bad input."""


# -- graphs -------------------------------------------------------------------

class DisconnectedError(RoundnessError):
    pass


class UnknownFamilyError(RoundnessError):
    pass


class BadParamsError(RoundnessError):
    pass


# -- roundness computation ----------------------------------------------------

class BracketFailureError(RoundnessError):
    """The negative-type predicate failed at p = 0, which is impossible for a
    valid metric and signals numerical corruption."""


class HypothesisViolatedError(RoundnessError):
    """The input lacks the row-permutation property required by the check."""


class LengthMismatchError(RoundnessError):
    pass


class IndexOutOfRangeError(RoundnessError, ValueError):
    """A point index that is no integer in 0..n-1; a ValueError too."""


# -- hamming cube -------------------------------------------------------------

class DimensionTooLargeError(RoundnessError):
    pass


class BadBlockExponentError(RoundnessError):
    pass


class NotATreeError(RoundnessError):
    pass


# -- arguments ----------------------------------------------------------------

def _integer(value, lo, hi, message: str, error=ValueError) -> int:
    """`value` as an int if integral (2, 2.0, np.int64(2); not "2", 2.5 or NaN)
    and in lo..hi, an end None for none; else error(message.format(value))."""
    number = value
    if type(value) is not int:  # the usual case skips the ABC checks
        whole = isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value)
        number = int(value) if whole else None
    if number is None or (lo is not None and number < lo) or (hi is not None and number > hi):
        raise error(message.format(value if number is None else number))
    return number


def _real(value, lo: float, message: str, error=ValueError, *, open_end: bool = False) -> float:
    """`value` as a float if a finite real (2, 2.5, np.float64(2.5); not "2",
    None or inf) >= lo, or > lo with `open_end`; else as `_integer`."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past float range
        number = math.nan
    if not (math.isfinite(number) and (number > lo if open_end else number >= lo)):
        raise error(message.format(value))
    return number


def _integers(values, lo, hi, message: str, error=ValueError, depth: int = 1) -> list:
    """The entries of the sequence `values` by `_integer`, order kept (with
    `depth` 2, of each of its sequences); `error` on a non-iterable too."""
    try:
        given = list(values)
    except TypeError:
        raise error(f"expected a sequence, got {values!r}") from None
    if depth > 1:
        return [_integers(v, lo, hi, message, error, depth - 1) for v in given]
    return [_integer(v, lo, hi, message, error) for v in given]
