"""Dense symmetric eigendecomposition and exact integer linear algebra.

Floating-point side: the one symmetry guard (`symmetrized`) and a symmetric
eigensolver on LAPACK (`numpy.linalg.eigh`) with a deterministic sort and
sign convention and a checked reconstruction residual.

Exact side: fraction-free (Bareiss) elimination over Python integers, giving
rank over the rationals, exact determinants, and integer kernel bases with no
floating point involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _bareiss_echelon(rows: list[list[int]]) -> tuple[int, list[int], int, int]:
    """In-place fraction-free row echelon. Returns (rank, pivot columns,
    swap sign, last pivot). All divisions are exact by construction; a
    nonzero remainder would mean corrupted input and raises."""
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
        pv = rows[rank][col]
        for r in range(rank + 1, m):
            rc = rows[r][col]
            row_r = rows[r]
            row_k = rows[rank]
            for c in range(col + 1, n):
                num = pv * row_r[c] - rc * row_k[c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                row_r[c] = q
            row_r[col] = 0
        pivots.append(col)
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, pivots, sign, prev


def rank_exact(mat) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination. The empty matrix has rank 0."""
    rows = _int_rows(mat)
    if not rows or not rows[0]:
        return 0
    rank, _, _, _ = _bareiss_echelon(rows)
    return rank


def det_exact(mat) -> int:
    """Exact integer determinant (Bareiss: the last pivot, up to swap sign)."""
    rows = _int_rows(mat)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    rank, _, sign, last = _bareiss_echelon(rows)
    if rank < n:
        return 0
    return sign * last


def kernel_basis_exact(mat) -> list[list[int]]:
    """Integer basis of the rational kernel of an integer matrix.

    One basis vector per free column, content-reduced with the first nonzero
    entry positive. Exact throughout (echelon over integers, back substitution
    over fractions).
    """
    rows = _int_rows(mat)
    if not rows:
        return []
    n = len(rows[0])
    if n == 0:
        return []
    rank, pivots, _, _ = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis: list[list[int]] = []
    for f in free_cols:
        x: list[Fraction] = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i in reversed(range(rank)):
            pc = pivots[i]
            s = rows[i][f] * x[f] if f > pc else Fraction(0)
            for j in range(i + 1, rank):
                cj = pivots[j]
                if x[cj]:
                    s += rows[i][cj] * x[cj]
            x[pc] = -s / rows[i][pc]
        lcm = 1
        for v in x:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        ints = [int(v * lcm) for v in x]
        content = 0
        for v in ints:
            content = gcd(content, abs(v))
        if content > 1:
            ints = [v // content for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis
