"""Dense symmetric eigendecomposition and exact integer linear algebra.

Floating-point side: the one symmetry guard (`symmetrized`) and a symmetric
eigensolver on LAPACK (`numpy.linalg.eigh`) with a deterministic sort and
sign convention and a checked reconstruction residual.

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
    and the max-norm reconstruction residual of V diag(w) V^T."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 for a square matrix within SYMMETRY_RTOL of symmetric,
    relative to max |a_ij|; NotSymmetricError naming the worst entry
    otherwise."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    gap = np.abs(a - a.T)
    if np.max(gap) > SYMMETRY_RTOL * float(np.max(np.abs(a))):
        i, j = np.unravel_index(int(np.argmax(gap)), a.shape)
        raise NotSymmetricError(f"matrix[{i}][{j}] = {a[i, j]} != matrix[{j}][{i}] = {a[j, i]}")
    return (a + a.T) / 2.0


def eigensym(a) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix by LAPACK (`eigh`).

    Deterministic for identical input: stable descending sort, and each
    eigenvector's largest-magnitude entry made positive. Raises
    NonFiniteMatrixError on NaN or infinite entries, and NoConvergenceError
    if LAPACK fails or the reconstruction residual is above 1e-9 relative.
    """
    a0 = np.array(a, dtype=float)
    if not np.all(np.isfinite(a0)):
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    A = symmetrized(a0)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(reason=str(exc)) from exc

    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(w.size)]
    V = V * np.where(lead < 0, -1.0, 1.0)

    resid = float(np.max(np.abs(a0 - (V * w) @ V.T)))
    if resid > RESIDUAL_RTOL * float(np.max(np.abs(a0))):
        raise NoConvergenceError(residual=resid)
    w.setflags(write=False)
    V.setflags(write=False)
    return SpectralData(eigenvalues=w, eigenvectors=V, residual=resid)


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
    rows = _int_rows(mat)
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
