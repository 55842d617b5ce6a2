"""Finite metric spaces, powered distance matrices, and negative-type forms.

The central object is :class:`FiniteMetricSpace`: n points with a validated
symmetric distance matrix. From it the p-th power distance matrix is built
(with the convention 0^p = 0 for every p >= 0, so the 0-th power matrix is
the all-ones matrix minus the identity), with the closed-form basis of the
zero-sum hyperplane. Matrices are passed as plain read-only numpy arrays.
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
    NonzeroDiagonalError,
    TriangleViolationError,
    ZeroDistanceError,
)
from .spectral import SYMMETRY_RTOL, ClassSpectrum, _class_spectrum, _row0_order, symmetrized


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that has no meaning: NaN, infinite or negative."""
    if not (math.isfinite(value) and value >= 0):
        raise BadParamsError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n labelled points with pairwise distances.

    The matrix is symmetric with zero diagonal and strictly positive
    off-diagonal entries, and satisfies the triangle inequality.
    """

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
        """Whether every row of `dist` is a permutation of row 0: True at
        once for a space with an order, else the tolerant sort of
        `_rows_permute`, decided once per space."""
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


@dataclass(frozen=True)
class NegativeTypeWitness:
    """A zero-sum weight vector together with its quadratic form value."""

    eta: np.ndarray
    form_value: float


def build_metric_space(matrix, labels=None) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    Near-symmetric input (within SYMMETRY_RTOL = 1e-12 of max |d|) is
    symmetrized; anything worse raises NotSymmetricError. The triangle
    inequality is always checked, to the same relative slack
    (TriangleViolationError).
    """
    try:
        d = np.array(matrix, dtype=float)
    except TypeError as exc:  # an entry that is no number, such as a dict
        raise ValueError(f"distance matrix entries must be numbers: {exc}") from exc
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise ValueError("a metric space needs at least 2 points")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} points")

    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix contains non-finite entries")
    d = symmetrized(d)

    diag = np.diagonal(d)
    if np.any(diag != 0.0):
        i = int(np.argmax(diag != 0.0))
        raise NonzeroDiagonalError(f"matrix[{i}][{i}] = {d[i, i]} != 0")
    if np.any(d < 0.0):
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeEntryError(f"matrix[{i}][{j}] = {d[i, j]} < 0")
    off = d + np.eye(n)  # mask the diagonal
    if np.any(off == 0.0):
        i, j = np.unravel_index(int(np.argmin(off != 0.0)), d.shape)
        raise ZeroDistanceError(f"zero distance between distinct points {i} and {j}")

    slack = SYMMETRY_RTOL * float(np.max(d))
    for k in range(n):
        gap = d - (d[:, k][:, None] + d[k, :][None, :])
        if np.any(gap > slack):
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise TriangleViolationError(i, k, j, d[i, j], d[i, k], d[k, j])

    return FiniteMetricSpace(labels=labels, dist=_readonly(d))


def power_matrix(space, p: float) -> np.ndarray:
    """Raise all distances to the power p, with 0^p = 0 for every p >= 0.

    `space` is a FiniteMetricSpace or a stack (m, k, k) of distance
    matrices, all raised to the one exponent p.
    """
    d = space.dist if isinstance(space, FiniteMetricSpace) else space
    return _readonly(_power(d, p))


def _power(d: np.ndarray, p: float) -> np.ndarray:
    if not (p >= 0 and np.isfinite(p)):
        raise NegativeExponentError(f"exponent must be a nonnegative real, got {p}")
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
