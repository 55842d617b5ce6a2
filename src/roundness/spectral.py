"""Dense symmetric eigendecomposition and exact integer linear algebra.

Floating-point side, on LAPACK: the one symmetry guard (`symmetrized`);
`eigensym`, the guarded full eigendecomposition of one matrix (`eigh`), with
a deterministic sort and sign and a checked reconstruction residual, for the
modes `negtype` solves for once; and `_eigvals`, the one values-only solve
(`eigvalsh`) of a matrix or a stack (m, k, k), which every search step
makes. It holds each matrix's values to the trace and the squared Frobenius
norm its caller passes and runs no other guard, as the library builds these
matrices from checked distances.

Row-0 structure, the one place that builds and detects it: a circulant
matrix (d[i, j] = f((j - i) mod n)) or one in cube order (d[i, j] = f(i xor
j)) is row 0 read through one (n, n) index. The FFT or the Walsh-Hadamard
transform of row 0 gives its spectrum, the cosine or Walsh modes its
eigenvectors, and a convolution of row 0 its product with a vector, so no
such matrix need be built to be used. The Walsh-Hadamard transform of order
n = a b is two matrix products, with the Sylvester-Hadamard factors H_a and
H_b of order about sqrt(n), each built once per order (`_sylvester`), as
H_n = H_a (x) H_b.

Commuting distance classes: when the rows of a matrix are permutations of
row 0 and its class matrices A_k (1 where the entry is the k-th distinct
distance) commute, one eigendecomposition of a generic combination of them,
checked against every A_k, gives their joint eigenspaces and the eigenmatrix
Theta, and then the spectrum of any sum_k f(d_k) A_k is Theta f(d)
(`_class_spectrum`).

Exact side: one fraction-free Gauss-Jordan elimination (Bareiss's one-step
form) over a stack of integer matrices, whose single pass gives the rank
over the rationals, the exact determinant and an integer kernel basis, with
no floating point or fractions involved. It stays in int64 whenever the
entries provably fit: while every entry is below INT64_ENTRY_LIMIT (2^31)
no update can wrap. Hadamard's bound on the input proves that up front
where it can, as for every {-1, 0, 1} stack of order at most 15, which then
pays nothing per step (`_exact`); any other stack with entries below 2^31
starts in int64 and is checked at each pivot column, and moves to Python
integers the first time the check fails (`_eliminate`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, sqrt
from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError, NonFiniteMatrixError, NotSymmetricError, _integers

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
    """(a + a^T) / 2 for a square matrix, or for each matrix of a stack
    (..., k, k), within SYMMETRY_RTOL of symmetric relative to its own
    max |a_ij|; NotSymmetricError naming the worst entry of the first matrix
    that is not. A matrix that is exactly symmetric, as every form and D_p
    the library builds, is returned as it is."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    if (a == at).all():
        return a
    gap = np.abs(a - at)
    over = gap.max(axis=(-2, -1)) > SYMMETRY_RTOL * np.abs(a).max(axis=(-2, -1))
    if np.count_nonzero(over):
        first = tuple(np.argwhere(over)[0])
        a, gap = a[first], gap[first]
        i, j = np.unravel_index(int(gap.argmax()), a.shape)
        raise NotSymmetricError(f"matrix[{i}][{j}] = {a[i, j]} != matrix[{j}][{i}] = {a[j, i]}")
    return a / 2.0 + at / 2.0  # halved first, so no sum overflows


def eigensym(a) -> SpectralData:
    """Full eigendecomposition of one symmetric matrix, by LAPACK (`eigh`).

    Deterministic for identical input: stable descending sort, and each
    eigenvector signed by `_sign_fixed`. NonFiniteMatrixError on NaN or
    infinite entries, NotSymmetricError past `symmetrized`, and
    NoConvergenceError if LAPACK fails or its reconstruction residual is
    above 1e-9 relative to max |a_ij|. A stack is a ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"eigensym takes one matrix, got shape {a.shape}")
    amax = np.abs(a).max()  # NaN or inf exactly when an entry is
    if len(a) == a.shape[1] and not np.isfinite(amax):  # else symmetrized's ValueError
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    try:
        w, v = np.linalg.eigh(symmetrized(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(reason=str(exc)) from exc
    order = (-w).argsort(kind="stable")
    w, v = w[order], _sign_fixed(v[:, order])
    resid = float(np.abs(a - (v * w) @ v.T).max())
    if resid > RESIDUAL_RTOL * amax:
        raise NoConvergenceError(residual=resid)
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralData(eigenvalues=w, eigenvectors=v, residual=resid)


def _eigvals(a: np.ndarray, traces: list, squares: list) -> np.ndarray:
    """The eigenvalues alone, ascending as LAPACK gives them, of a symmetric
    matrix or of every matrix of a stack (m, k, k), in one LAPACK call
    (`eigvalsh`); NoConvergenceError if LAPACK fails.

    With no eigenvectors to rebuild a matrix from, each matrix's values are
    held to the trace (`traces`) and the squared Frobenius norm (`squares`)
    its caller passes, within RESIDUAL_RTOL of its own scale: sum w = tr a,
    on the scale sqrt(k) ||a||_F that bounds both sides, and sum w^2 =
    ||a||_F^2, each as `not (gap <= bound)`, so a NaN eigenvalue fails too;
    NoConvergenceError if either fails for any matrix.

    No other guard runs, as none can fire on the matrices the library builds
    from distances checked once per space or stack (`metric`'s
    `FiniteMetricSpace._max_d`, `negtype._class_forms`): the entries of D_p
    of d / max d lie in [0, 1] and those of M(p) and the centred A(p) are
    bounded by n, so all are finite; all are symmetric to within
    SYMMETRY_RTOL, LAPACK reads one triangle, and a matrix that is not what
    its caller's invariants say fails the Frobenius identity; and none needs
    rescaling for its squares to stay in float range, as max D_p = 1, tr
    M(p) = -sum(D_p) / n < 0 and A(p) 1 = R 1 with R >= 1.
    """
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(reason=str(exc)) from exc
    k = w.shape[-1]
    rows = w.reshape(-1, k)
    sums = rows.sum(axis=1).tolist()
    powers = (rows[:, None] @ rows[:, :, None]).ravel().tolist()
    for s, q, t, f in zip(sums, powers, traces, squares):
        if not (abs(s - t) <= RESIDUAL_RTOL * sqrt(k * f) and abs(q - f) <= RESIDUAL_RTOL * f):
            raise NoConvergenceError(reason=f"eigenvalues miss the trace by {abs(s - t):.3e} or "
                                            f"the squared Frobenius norm by {abs(q - f):.3e}, "
                                            f"on a squared norm of {f:.3e}")
    return w


# -- row-0 structure ------------------------------------------------------------

ROW0_BLOCK = 1 << 18  # entries `_row0_order` compares at a time


def _row0_index(order: str, n: int) -> np.ndarray:
    """The (n, n) index into row 0 that gives every row of a matrix in
    `order`: (j - i) mod n for "circulant" (row i is row 0 rolled by i) and
    i xor j for "cube" (n = 2^k)."""
    i = np.arange(n, dtype=np.int32)
    if order == "circulant":
        # row i is the window of (0..n-1, 0..n-1) from n - i: a strided view, no copies
        e = np.concatenate((i, i))
        return np.ndarray((n, n), e.dtype, e, n * e.itemsize, (-e.itemsize, e.itemsize))
    return i ^ i[:, None]


def _row0_order(a: np.ndarray) -> str | None:
    """"circulant" if the square matrix `a` equals its row 0 read through
    the circulant index, else "cube" if it does through the cube index
    (n a power of two), else None; exact, entry by entry. Circulant is
    tried first, so a matrix in both orders takes the FFT. A matrix of
    fewer than two rows has no order."""
    n = len(a)
    if n < 2:
        return None
    # a block of rows at a time, so a mismatch ends the test early and each copy is small
    step = max(1, ROW0_BLOCK // n)
    for order in ("circulant", "cube") if n & (n - 1) == 0 else ("circulant",):
        index = _row0_index(order, n)
        if all(np.array_equal(a[0][index[k:k + step]], a[k:k + step]) for k in range(0, n, step)):
            return order
    return None


def _row0_order_of_edges(n: int, edges: np.ndarray) -> str | None:
    """`_row0_order` of the symmetric 0/1 matrix of an n-vertex graph with
    the edges (m, 2), read off the edge set: "circulant" if i -> i + 1 mod
    n maps every edge to an edge, else "cube" if n is a power of two and
    every i -> i xor 2^b does, else None. Each map is looked up edge by
    edge, so no row of the matrix is compared."""
    if n < 2:
        return None
    u, v = edges[:, 0], edges[:, 1]
    mask = np.zeros((n, n), dtype=bool)
    mask[u, v] = mask[v, u] = True
    if mask[(u + 1) % n, (v + 1) % n].all():
        return "circulant"
    bits = 1 << np.arange(n.bit_length() - 1)[:, None]
    if n & (n - 1) == 0 and mask[u ^ bits, v ^ bits].all():
        return "cube"
    return None


def _row0_spectrum(order: str, row: np.ndarray) -> np.ndarray:
    """Each distinct eigenvalue of the symmetric matrix in `order` with row 0
    `row` at least once, the row sum first: the real part of its `rfft`
    (circulant), or its Walsh-Hadamard transform (cube), y[t] = sum_j row[j]
    (-1)^popcount(j & t). An (n, m) array is transformed column by column,
    along axis 0.

    The Walsh-Hadamard matrix of order n = 2^k is H_a (x) H_b, a = 2^floor(k/2)
    and b = 2^ceil(k/2), as popcount(j & t) splits over the high and the low
    bits of j and t (Sylvester's construction). So with row read as (a, b, m),
    y = H_a x along axis 0, then H_b along axis 1: two matrix products of
    sqrt(n)-sized factors (`_sylvester`), one body for a vector and a block.
    Integer input whose sums stay below 2^53 comes out exact."""
    if order == "circulant":
        return np.fft.rfft(row, axis=0).real
    x = np.asarray(row, dtype=float)
    k = len(x).bit_length() - 1
    a, b = 1 << k // 2, 1 << (k + 1) // 2
    y = np.matmul(_sylvester(b), (_sylvester(a) @ x.reshape(a, -1)).reshape(a, b, -1))
    return y.reshape(x.shape)


# order -> Sylvester-Hadamard matrix: the two of a cube order n hold about n floats each
_SYLVESTER: dict[int, np.ndarray] = {}


def _sylvester(m: int) -> np.ndarray:
    """The read-only Walsh-Hadamard matrix of order m, a power of two, with
    entries (-1)^popcount(i & j), by Sylvester's doubling H_2m = [[H_m, H_m],
    [H_m, -H_m]]; built once per order."""
    h = _SYLVESTER.get(m)
    if h is None:
        h = np.ones((1, 1))
        while len(h) < m:
            h = np.block([[h, h], [h, -h]])
        h.setflags(write=False)
        _SYLVESTER[m] = h
    return h


def _row0_multiplicities(order: str, n: int) -> np.ndarray:
    """How many eigenvalues of an n x n matrix in `order` each entry of
    `_row0_spectrum` stands for: 2 at the circulant frequencies 0 < t < n/2,
    whose value frequency n - t shares, and 1 everywhere else."""
    counts = np.ones(n // 2 + 1 if order == "circulant" else n, dtype=np.int64)
    if order == "circulant":
        counts[1:(n + 1) // 2] = 2
    return counts


def _row0_modes(order: str, n: int, ts) -> np.ndarray:
    """A unit real eigenvector of every n x n symmetric matrix in `order`
    at each frequency t of `ts`, as the columns of an (n, len(ts)) array,
    with the eigenvalue of entry t of `_row0_spectrum`: cos(2 pi t j / n),
    normalized (circulant), or the Walsh row (-1)^popcount(j & t) / sqrt(n),
    the transform of e_t (cube). Entry 0 of each is positive."""
    ts = np.asarray(ts, dtype=np.int64)
    if order == "circulant":
        # t j reduced mod n in integers first, so cos sees an angle in [0, 2 pi)
        modes = np.cos((2 * np.pi / n) * (np.arange(n, dtype=np.int64)[:, None] * ts % n))
        return modes / np.linalg.norm(modes, axis=0)
    unit = np.zeros((n, len(ts)))
    unit[ts, np.arange(len(ts))] = 1.0
    return _row0_spectrum(order, unit) / np.sqrt(n)


def _row0_product(order: str, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """D u for the symmetric matrix D in `order` with row 0 `row`, u a
    vector or an (n, k) array of columns, with no matrix built: the
    circular convolution of row and u by `rfft` and `irfft` (circulant), or
    their dyadic convolution, H (H row * H u) / n with H the Walsh-Hadamard
    transform (cube)."""
    n = len(row)
    lead = (slice(None),) + (None,) * (u.ndim - 1)  # row's transform against each column
    if order == "circulant":
        return np.fft.irfft(np.fft.rfft(row)[lead] * np.fft.rfft(u, axis=0), n, axis=0)
    return _row0_spectrum(order, _row0_spectrum(order, row)[lead] * _row0_spectrum(order, u)) / n


# -- commuting distance classes -------------------------------------------------

# two eigenvalues of the generic class combination further apart than this,
# relative to its largest, belong to different joint eigenspaces
CLASS_GAP_RTOL = 1e-10
# the largest defect A_k V - V Theta_k that `_class_spectrum` accepts,
# relative to |A_k| |V r|; a non-commuting family of 0/1 matrices misses by
# far more, and Rayleigh quotients on vectors this close are exact to ~1e-16
CLASS_RTOL = 1e-8
_CLASS_SEED = 20111


class ClassSpectrum(NamedTuple):
    """The joint spectrum of the distance classes of a matrix whose classes
    commute. `distances` holds the distinct distances d_k ascending (d_0 =
    0), `eigenmatrix` Theta (e, s) the eigenvalue of the class matrix A_k
    (1 where the distance is d_k) on each joint eigenspace, the one
    spanned by 1 first, `dims` the dimension of each eigenspace and `modes`
    (n, e) one unit vector of each, signed by `_sign_fixed`. The spectrum
    of sum_k f(d_k) A_k is Theta f(d)."""

    distances: np.ndarray
    eigenmatrix: np.ndarray
    dims: np.ndarray
    modes: np.ndarray


def _class_spectrum(a: np.ndarray) -> ClassSpectrum | None:
    """The joint spectrum of the distance classes of the symmetric matrix
    `a`, or None when the rows of `a` are not exact permutations of row 0,
    or its classes do not commute, or their joint eigenspaces cannot be told
    apart.

    Each row sorted is row 0 sorted, so position t of every sorted row is
    in the same class, and A_k y, for every k at once, is a gather of y
    summed over the positions of each class. One `eigh` of a seeded generic
    combination C = sum_k c_k A_k, c_k in [1, 2), gives the joint
    eigenspaces, as runs of its eigenvalues within CLASS_GAP_RTOL; by
    Perron-Frobenius the largest is C's row sum, with eigenvector 1, and it
    must be simple. Theta is read off one column v of each other eigenspace
    by Rayleigh quotients, v^T A_k v from one gather and one product each
    (its row for 1 is the class sizes, exactly), and checked on the whole
    basis V by a Freivalds test: for two seeded vectors r, every A_k (V r)
    must match V (Theta_k r) within CLASS_RTOL. Cost: one n x n `eigh`, a
    sort of the rows, O(n^2) per eigenspace and O(s n^2) for the test.
    """
    n = len(a)
    order = a.argsort(axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    row = a[0, order[0]]
    if not (a[rows, order] == row).all():
        return None
    bounds = _run_starts(row[1:] != row[:-1])  # where each class starts in a sorted row
    distances, s = row[bounds], len(bounds)
    counts = np.append(bounds[1:], n) - bounds
    # from the standard library's generator, which numpy already imports
    gen = random.Random(_CLASS_SEED)
    noise = np.array([gen.random() for _ in range(s + 2 * n)])
    c = 1.0 + noise[:s]
    c[0] = 0.0
    combination = np.empty((n, n))
    combination[rows, order] = np.repeat(c, counts)  # c_k at every entry of class k
    try:
        w, v = np.linalg.eigh(combination)
    except np.linalg.LinAlgError:
        return None
    w, v = w[::-1], v[:, ::-1]
    starts = _run_starts(w[1:] < w[:-1] - CLASS_GAP_RTOL * w[0])
    if len(starts) < 2 or starts[1] != 1:  # the Perron eigenvalue is not simple
        return None
    v[:, 0] = 1.0 / np.sqrt(n)
    modes = v[:, starts].T.copy()
    theta = np.empty((len(starts), s))
    theta[0] = counts
    for j in range(1, len(starts)):
        x = modes[j]
        theta[j] = np.add.reduceat(x @ x[order], bounds)  # x^T A_k x for every k
    # Freivalds: A_k V r = V Theta_k r for every k, tested on two seeded r
    dims = np.append(starts[1:], n) - starts
    r = noise[s:].reshape(2, n, 1) - 0.5
    y = v @ r
    defect = np.abs(np.add.reduceat(y[:, order, 0], bounds, axis=-1)
                    - v @ (np.repeat(theta, dims, axis=0) * r)).max(axis=(0, 1))
    if np.count_nonzero(defect > CLASS_RTOL * counts * np.abs(y).max()):
        return None
    modes = _sign_fixed(modes.T)
    for x in (distances, theta, dims, modes):
        x.setflags(write=False)
    return ClassSpectrum(distances, theta, dims, modes)


def _sign_fixed(u: np.ndarray) -> np.ndarray:
    """The columns of u, each times the sign of its first entry above
    1e-12 of its largest |entry|, which is then positive: the sign of every
    mode a `negtype` source gives (a row-0 mode has entry 0 positive)."""
    first = (np.abs(u) > 1e-12 * np.abs(u).max(axis=0)).argmax(axis=0)
    return u * np.sign(u[first, np.arange(u.shape[1])])


def _run_starts(changes: np.ndarray) -> np.ndarray:
    """The start of each run of a sequence, 0 first, given where each of its
    entries after the first differs from the one before."""
    return np.concatenate(([0], np.flatnonzero(changes) + 1))


# -- exact integer elimination --------------------------------------------------

# `_eliminate` runs in int64 while every entry it multiplies is below this in
# absolute value: then each product it forms is below 2^62 and each
# difference of two below 2^63, so no int64 operation can wrap
INT64_ENTRY_LIMIT = 1 << 31


def _int_rows(mat) -> np.ndarray:
    """`mat` as an (r, c) integer array: an integer or boolean ndarray as it
    is, anything else as Python ints (`errors._integers`); ValueError on a
    non-integer entry, ragged rows or no sequence of rows. A 2-D array keeps
    its column count when it has no rows; an empty list is (0, 0)."""
    # an integer array needs no per-entry check, nor an empty one
    if isinstance(mat, np.ndarray) and mat.ndim == 2 and (mat.dtype.kind in "biu" or not len(mat)):
        return mat
    rows = _integers(mat, None, None, "non-integer entry {!r}", depth=2)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if rows else 0)


def _exact(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """A copy of the integer stack `a` (m, r, c) in the dtype `_eliminate`
    starts in, and whether `_eliminate` must watch its entries.

    Every entry elimination forms is a minor of order at most K = min(r, c),
    so by Hadamard's bound at most K^(K/2) t^K with t = max |a_ij|. Where
    K^K t^(2K) < 2^62, every entry stays below INT64_ENTRY_LIMIT: the copy is
    int64 and needs no watch, as for the {-1, 0, 1} stacks of cube
    differences with K <= 15. Otherwise it is int64 and watched, if t is
    below INT64_ENTRY_LIMIT, and Python ints (dtype object) if not."""
    # max and min in a's own dtype, so no abs wraps and uint64 stays exact
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if top >= INT64_ENTRY_LIMIT:
        return a.astype(object), False
    order = min(a.shape[1:])
    return a.astype(np.int64), top > 0 and order ** order * top ** (2 * order) >= 1 << 62


def _eliminate(a: np.ndarray, watch: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step fraction-free Gauss-Jordan elimination (Bareiss), in place,
    of every matrix of an (m, r, c) integer stack.

    Column by column, each matrix takes as pivot its first row, among the
    rows not yet used as pivots, with a nonzero entry there, and clears that
    column from every other row, above and below. Each update divides
    exactly by the matrix's previous pivot, so every entry stays a minor of
    the input; a remainder would mean corrupted input or wrapped int64
    arithmetic and raises ArithmeticError. Rows are never swapped.

    It runs in a's dtype. With `watch` (see `_exact`), an int64 stack is
    checked before each column that has a pivot: the first time an entry,
    and so the pivot or the previous pivot, which are entries too, reaches
    INT64_ENTRY_LIMIT in absolute value, the stack moves to Python ints and
    goes on there, in a new array. Returns (a, pivots, d): a the reduced
    stack, pivots[i, j] the row of matrix i that pivots column j, or -1 if
    column j has none, and d[i] matrix i's last pivot (1 if it has none). On
    return each pivot row is d times the matching row of the reduced row
    echelon form.
    """
    m, r, c = a.shape
    pivots = np.full((m, c), -1, dtype=np.intp)
    unused = np.ones((m, r), dtype=bool)
    prev = np.ones((m, 1, 1), dtype=a.dtype)
    every = np.arange(m)
    for col in range(c):
        candidates = unused & (a[:, :, col] != 0)
        if not np.count_nonzero(candidates):
            continue
        if watch and np.abs(a).max() >= INT64_ENTRY_LIMIT:
            a, prev, watch = a.astype(object), prev.astype(object), False
        found = candidates.any(axis=1)
        piv = candidates.argmax(axis=1)  # row 0 where none is found
        row = a[every, piv]
        # a matrix with no pivot in this column keeps its previous pivot and
        # subtracts nothing, so its update is the identity
        pv = np.where(found, row[:, col], prev[:, 0, 0])[:, None, None]
        # in place, so Python-int input holds about two matrices of ints at once
        lead = a[:, :, col:col + 1].copy()
        a *= pv
        a -= lead * (row * found[:, None])[:, None, :]
        if np.count_nonzero(a % prev):
            raise ArithmeticError("inexact division in fraction-free elimination")
        a //= prev
        a[every, piv] = row  # the pivot row stays as it was
        pivots[:, col] = np.where(found, piv, -1)
        unused[every, piv] &= ~found
        prev = pv
    return a, pivots, prev[:, 0, 0]


def _ranks(a: np.ndarray) -> np.ndarray:
    """Exact rank of every matrix of an (m, r, c) integer stack."""
    return (_eliminate(*_exact(a))[1] >= 0).sum(axis=1)


def rank_exact(mat) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination. The empty matrix has rank 0."""
    return int(_ranks(_int_rows(mat)[None])[0])


def det_exact(mat) -> int:
    """Exact integer determinant: the last fraction-free pivot times the
    sign of the permutation that orders the pivot rows, or 0 below full
    rank."""
    a = _int_rows(mat)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _, (pivots,), (d,) = _eliminate(*_exact(a[None]))
    if (pivots < 0).any():
        return 0
    inversions = int(np.triu(pivots[:, None] > pivots[None, :], 1).sum())
    return -int(d) if inversions % 2 else int(d)


def kernel_basis_exact(mat) -> list[list[int]]:
    """Integer basis of the rational kernel of an integer matrix.

    One basis vector per free column f, read off the fraction-free reduced
    echelon form: d at f and minus the entry in column f of each pivot row
    at that row's pivot column. Each is content-reduced with its first
    nonzero entry positive.
    """
    return _kernel_basis(_int_rows(mat))


def _kernel_basis(a: np.ndarray) -> list[list[int]]:
    """`kernel_basis_exact` of an (r, c) integer array known to hold only
    integers."""
    (rows,), (pivots,), (d,) = _eliminate(*_exact(a[None]))
    rows = rows.tolist()
    pivot_rows = [(pc, int(pr)) for pc, pr in enumerate(pivots) if pr >= 0]
    basis: list[list[int]] = []
    for f in np.flatnonzero(pivots < 0).tolist():
        x = [0] * len(pivots)
        x[f] = int(d)
        for pc, pr in pivot_rows:
            x[pc] = -rows[pr][f]
        content = gcd(*x)
        if next(v for v in x if v) < 0:
            content = -content
        basis.append([v // content for v in x])
    return basis
