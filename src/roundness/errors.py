"""Exception hierarchy shared across the package."""


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


class IndexOutOfRangeError(RoundnessError):
    pass


# -- hamming cube -------------------------------------------------------------

class DimensionTooLargeError(RoundnessError):
    pass


class BadBlockExponentError(RoundnessError):
    pass


class NotATreeError(RoundnessError):
    pass
