"""Finite metric spaces, powered distance matrices, and negative-type forms.

The central object is :class:`FiniteMetricSpace`: n points with a distance
matrix, held, as every stack of them is, to one check, `_check_distances`.
From a space the p-th power distance matrix is built (with the convention
0^p = 0 for every p >= 0, so the 0-th power matrix is the all-ones matrix
minus the identity), with the closed-form basis of the zero-sum hyperplane.
Matrices are passed as plain read-only numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadParamsError,
    NegativeEntryError,
    NegativeExponentError,
    NonFiniteMatrixError,
    NonzeroDiagonalError,
    TriangleViolationError,
    ZeroDistanceError,
    _real,
)
from .spectral import SYMMETRY_RTOL, ClassSpectrum, _class_spectrum, _row0_order, symmetrized


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n labelled points with pairwise distances, held once, by `_max_d`, to
    `_check_distances` and symmetry before `rows_permute`, `power_matrix` or
    any search or verdict reads them. Only `build_metric_space` checks that
    distinct points are apart and the triangle inequality."""

    labels: tuple[str, ...]
    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def order(self) -> str | None:
        """"circulant" or "cube" when every row of `dist` is its row 0 read
        through that order's index (`spectral._row0_order`), else None;
        detected once per space, as `dist` is read-only. Consumers then
        read row 0 alone."""
        return _row0_order(self.dist)

    @cached_property
    def rows_permute(self) -> bool:
        """Whether every row of `dist` is a permutation of row 0, once the
        distances pass `_max_d`: True at once for a space with an order,
        else the tolerant sort of `_rows_permute`, decided once per space."""
        self._max_d  # the check, cached on the space
        return self.order is not None or _rows_permute(self.dist)

    @cached_property
    def classes(self) -> ClassSpectrum | None:
        """The joint spectrum of the distance classes
        (`spectral._class_spectrum`) when the rows of `dist` are
        permutations of row 0 (`rows_permute`) and the classes commute, as
        they do on a distance-regular graph or a relabelled circulant, else
        None; computed once per space, which then reads the spectrum of
        every D_p off it."""
        return _class_spectrum(self.dist) if self.rows_permute else None

    @cached_property
    def _max_d(self) -> float:
        """max d, once per space, once `_check_distances` and `symmetrized`
        pass: on row 0, and row 0 against column 0 (d_ij = d_ji for all i, j
        exactly when they agree), on a space with an order, else on `dist`."""
        d = self.dist
        max_d = float(_check_distances(d[:1] if self.order is not None else d))
        if self.order is None or not np.array_equal(d[0], d[:, 0]):
            symmetrized(d)  # names the worst entry, or passes within its tolerance
        return max_d


@dataclass(frozen=True)
class NegativeTypeWitness:
    """A zero-sum weight vector together with its quadratic form value."""

    eta: np.ndarray
    form_value: float


def build_metric_space(matrix, labels=None) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    A zero distance between distinct points is a ZeroDistanceError, then
    the entries pass `_check_distances`. Near-symmetric input (within
    SYMMETRY_RTOL = 1e-12 of max |d|) is symmetrized; anything worse raises
    NotSymmetricError. The triangle inequality is always checked, to the
    same relative slack (TriangleViolationError).
    """
    try:
        d = np.array(matrix, dtype=float)
    except (TypeError, OverflowError) as exc:  # an entry that is no float, such as a dict
        raise ValueError(f"distance matrix entries must be numbers: {exc}") from exc
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise ValueError("a metric space needs at least 2 points")
    labels = _labels(range(n) if labels is None else labels, n)

    zero = np.argwhere((d == 0.0) & ~np.eye(n, dtype=bool))
    if len(zero):  # first, so that an all-zero matrix is this error
        raise ZeroDistanceError("zero distance between distinct points %d and %d" % tuple(zero[0]))
    _check_distances(d)
    d = symmetrized(d)

    slack = SYMMETRY_RTOL * float(np.max(d))
    with np.errstate(over="ignore"):  # a sum past float range breaks no triangle
        for k in range(n):
            gap = d - (d[:, k][:, None] + d[k, :][None, :])
            if np.any(gap > slack):
                i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
                raise TriangleViolationError(i, k, j, d[i, j], d[i, k], d[k, j])

    return FiniteMetricSpace(labels=labels, dist=_readonly(d))


def _labels(labels, n: int) -> tuple[str, ...]:
    """`labels` as n strings; ValueError unless a sequence of n labels."""
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError:
        raise ValueError(f"labels must be a sequence, got {labels!r}") from None
    if len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for {n} points")
    return labels


def power_matrix(space, p: float) -> np.ndarray:
    """Raise all distances to the power p, with 0^p = 0 for every p >= 0.

    `space` is a FiniteMetricSpace, checked once (`FiniteMetricSpace._max_d`),
    or a stack (m, k, k) of distance matrices, checked at each call
    (`_check_distances`), all raised to the one exponent p.
    """
    p = _real(p, 0, "exponent must be a nonnegative real, got {!r}", NegativeExponentError)
    if isinstance(space, FiniteMetricSpace):
        space._max_d  # the check, cached on the space
        return _readonly(_power(space.dist, p))
    _check_distances(space)
    return _readonly(_power(space, p))


def _check_distances(d: np.ndarray) -> np.ndarray:
    """The largest entry of a distance matrix, or of each matrix of a stack
    (..., k, k), once every entry passes: NonFiniteMatrixError on NaN or
    infinity, NegativeEntryError on a negative entry (`_power` would read
    either as 1) and NonzeroDiagonalError on a nonzero diagonal one, both
    naming the first, then BadParamsError on a matrix with no positive entry."""
    top = d.max(axis=(-2, -1))
    low, high = float(d.min(initial=0.0)), float(top.max(initial=0.0))
    if not math.isfinite(low + high):  # NaN, inf or -inf
        raise NonFiniteMatrixError("distance matrix contains non-finite entries")
    if low < 0:
        raise NegativeEntryError(_first(d, d < 0, "< 0"))
    if d.diagonal(axis1=-2, axis2=-1).any():
        raise NonzeroDiagonalError(_first(d, (d != 0) & np.eye(*d.shape[-2:], dtype=bool), "!= 0"))
    if not top.min(initial=math.inf) > 0:
        raise BadParamsError("every distance matrix needs a positive entry")
    return top


def _first(d: np.ndarray, bad: np.ndarray, relation: str) -> str:
    index = tuple(np.argwhere(bad)[0])  # as matrix[0][1] = -1.0 < 0
    return "matrix" + "".join(f"[{i}]" for i in index) + f" = {d[index]} {relation}"


def _power(d: np.ndarray, p: float) -> np.ndarray:
    entries = np.where(d > 0, d, 1.0) ** p
    entries[d == 0] = 0.0
    return entries


def has_row_permutation_property(space: FiniteMetricSpace) -> bool:
    """`FiniteMetricSpace.rows_permute`: whether each row of the distance
    matrix is a permutation of row 0."""
    return space.rows_permute


def _rows_permute(d: np.ndarray) -> bool:
    """Whether the rows of d, sorted, agree entry by entry within
    SYMMETRY_RTOL = 1e-12 times the largest distance."""
    rows = np.sort(d, axis=1)
    return bool(np.all(np.abs(rows - rows[0]) <= SYMMETRY_RTOL * float(np.max(d))))


@lru_cache(maxsize=None)
def hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum hyperplane, as the read-only
    n x (n-1) Helmert matrix: column j (1-based) is (1, ..., 1, -j, 0, ..., 0)
    / sqrt(j (j+1)) with j leading ones, which is what Gram-Schmidt on
    e_0 - e_1, e_0 - e_2, ... gives in exact arithmetic."""
    if n < 2:
        raise ValueError("hyperplane basis needs n >= 2")
    j = np.arange(1, n)
    cols = np.triu(np.ones((n, n - 1)))
    cols[j, j - 1] = -j
    return _readonly(cols / np.sqrt(j * (j + 1.0)))
