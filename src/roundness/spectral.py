"""Dense symmetric eigendecomposition and exact integer linear algebra.

Floating-point side: the one symmetry guard (`symmetrized`) and a symmetric
eigensolver on LAPACK (`numpy.linalg.eigh`) with a deterministic sort and
sign convention and a checked reconstruction residual. Both take a single
matrix or a stack (..., k, k), which LAPACK solves in one call, and check
every matrix of a stack as they would check it alone.

Exact side: one fraction-free Gauss-Jordan elimination over Python integers
(Bareiss's one-step form), whose single pass gives the rank over the
rationals, the exact determinant and an integer kernel basis, with no
floating point or fractions involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import NoConvergenceError, NonFiniteMatrixError, NotSymmetricError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues sorted descending, orthonormal eigenvectors as columns,
    and the max-norm reconstruction residual of V diag(w) V^T; for a stack
    of matrices, each field has the stack's leading axes."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float | np.ndarray


def symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 for a square matrix, or for each matrix of a stack
    (..., k, k), within SYMMETRY_RTOL of symmetric relative to its own
    max |a_ij|; NotSymmetricError naming the worst entry of the first matrix
    that is not."""
    _check_square(a)
    return _symmetrized(a, np.abs(a).max(axis=(-2, -1)))


def _check_square(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")


def _symmetrized(a: np.ndarray, amax: np.ndarray) -> np.ndarray:
    """`symmetrized`, given max |a_ij| of each matrix."""
    at = a.swapaxes(-1, -2)
    gap = np.abs(a - at)
    over = gap.max(axis=(-2, -1)) > SYMMETRY_RTOL * amax
    if np.count_nonzero(over):
        first = tuple(np.argwhere(over)[0])
        a, gap = a[first], gap[first]
        i, j = np.unravel_index(int(gap.argmax()), a.shape)
        raise NotSymmetricError(f"matrix[{i}][{j}] = {a[i, j]} != matrix[{j}][{i}] = {a[j, i]}")
    return (a + at) / 2.0


def eigensym(a) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix, or of every matrix of a
    stack (..., k, k) in one call, by LAPACK (`eigh`).

    Deterministic for identical input: stable descending sort, and each
    eigenvector's largest-magnitude entry made positive. Each matrix of a
    stack is checked as a single one is: NonFiniteMatrixError on NaN or
    infinite entries, NotSymmetricError past the symmetry guard, and
    NoConvergenceError if LAPACK fails or its reconstruction residual is
    above 1e-9 relative to its own max |a_ij|. For a stack, every field has
    the stack's leading axes (`residual` is then an array).
    """
    a0 = np.asarray(a, dtype=float)
    _check_square(a0)
    amax = np.abs(a0).max(axis=(-2, -1))  # NaN or inf exactly when an entry is
    if not np.isfinite(amax).all():
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    sym = _symmetrized(a0, amax)
    stack, k = a0.shape[:-2], a0.shape[-1]
    a0, sym, amax = a0.reshape(-1, k, k), sym.reshape(-1, k, k), amax.reshape(-1)
    try:
        w, V = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(reason=str(exc)) from exc

    # per matrix: stable descending order, then the sign rule
    m = np.arange(len(w))[:, None]
    order = (-w).argsort(axis=-1, kind="stable")
    w = w[m, order]
    V = np.ascontiguousarray(V.swapaxes(1, 2)[m, order].swapaxes(1, 2))
    lead = V[m, np.abs(V).argmax(axis=1), np.arange(k)]
    V = V * np.sign(lead)[:, None, :]  # lead is nonzero: V has unit columns

    resid = np.abs(a0 - (V * w[:, None, :]) @ V.swapaxes(1, 2)).max(axis=(1, 2))
    over = resid > RESIDUAL_RTOL * amax
    if np.count_nonzero(over):
        raise NoConvergenceError(residual=float(resid[over].max()))
    w, V, resid = w.reshape(*stack, k), V.reshape(*stack, k, k), resid.reshape(stack)
    w.setflags(write=False)
    V.setflags(write=False)
    resid.setflags(write=False)
    return SpectralData(eigenvalues=w, eigenvectors=V,
                        residual=resid if stack else float(resid))


# -- exact integer elimination --------------------------------------------------


def _int_rows(mat) -> list[list[int]]:
    rows = []
    for row in mat:
        out = []
        for x in row:
            xi = int(x)
            if xi != x:
                raise ValueError(f"non-integer entry {x!r}")
            out.append(xi)
        rows.append(out)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def _gauss_jordan(rows: list[list[int]]) -> tuple[int, list[int], int, int]:
    """In-place one-step fraction-free Gauss-Jordan elimination (Bareiss).

    Each pivot column is cleared from every other row, above and below, and
    each update divides exactly by the previous pivot, so on return row i is
    d times row i of the reduced row echelon form, d being the last pivot.
    Returns (rank, pivot columns, row-swap sign, d). A nonzero remainder
    would mean corrupted input and raises ArithmeticError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    sign = 1
    pivots: list[int] = []
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        row_k = rows[rank]
        pv = row_k[col]
        for r in range(m):
            if r == rank:
                continue
            row_r = rows[r]
            rc = row_r[col]
            # rows below the pivot row are zero left of col, as is the pivot
            # row, so only columns from col on change there
            for c in range(col if r > rank else 0, n):
                q, rem = divmod(pv * row_r[c] - rc * row_k[c], prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                row_r[c] = q
        pivots.append(col)
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, pivots, sign, prev


def rank_exact(mat) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination. The empty matrix has rank 0."""
    return _gauss_jordan(_int_rows(mat))[0]


def det_exact(mat) -> int:
    """Exact integer determinant: the last fraction-free pivot times the
    row-swap sign, or 0 below full rank."""
    rows = _int_rows(mat)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    rank, _, sign, d = _gauss_jordan(rows)
    return sign * d if rank == len(rows) else 0


def kernel_basis_exact(mat) -> list[list[int]]:
    """Integer basis of the rational kernel of an integer matrix.

    One basis vector per free column f, read off the fraction-free reduced
    echelon form: d at f and -row_i[f] at the i-th pivot column. Each is
    content-reduced with its first nonzero entry positive.
    """
    return _kernel_basis(_int_rows(mat))


def _kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """`kernel_basis_exact` on rows already known to be equal-length lists
    of Python ints, which it overwrites."""
    _, pivots, _, d = _gauss_jordan(rows)
    n = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in range(n):
        if f in pivot_set:
            continue
        x = [0] * n
        x[f] = d
        for row, pc in zip(rows, pivots):
            x[pc] = -row[f]
        content = gcd(*x)
        if next(v for v in x if v) < 0:
            content = -content
        basis.append([v // content for v in x])
    return basis
