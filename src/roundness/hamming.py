"""Hamming-cube machinery: distance matrices, sign-vector eigenstructure,
exact subset classification, and tree embeddings.

The cube on n bits is the vertex set {0,1}^n with the Hamming metric. A
vertex is a plain int index i in 0..2^n - 1, standing for the n-digit binary
representation of i, most significant bit first; a subset is a sequence of
indices, and the Hamming distance of i and j is the popcount of i ^ j. The
2^n x 2^n distance matrix is its popcount row read through the cube index
of `spectral`, and has an explicit eigenbasis of block-alternating sign
vectors, which pins its rank at n+1. That rank structure yields an exact
dichotomy for subsets: a subset {x_0, ..., x_k} fails strict 1-negative type
precisely when the difference vectors x_i - x_0 are linearly dependent, so
classification reduces to one exact integer elimination. A single subset
and the exhaustive scan build the same 0/+-1 stack of difference matrices
and hand it to the one fraction-free elimination of `spectral`. XOR by a
vertex keeps a subset's metric and difference rank, so the scan classifies
only the subsets through vertex 0, all of one size in one such call, and
finds the roundness of one metric per isometry class of strict subset
metrics, all classes of one size in one lock-step root search. The scan
imports `negtype` and the tree embedding `graphs` when they run, so the
classifiers and the spectrum, lemma and witness checks load neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadBlockExponentError,
    BadParamsError,
    DimensionTooLargeError,
    NotATreeError,
    _integer,
    _integers,
)
from .metric import FiniteMetricSpace, _readonly
from .spectral import _kernel_basis, _ranks, _row0_index, det_exact, kernel_basis_exact, rank_exact

if TYPE_CHECKING:
    from .graphs import Graph

# Largest cube dimension n each operation accepts (the smallest is 1, and 0
# for a sign vector). Outside, DimensionTooLargeError is raised before any
# work. The caps bound memory and time: the distance matrix has 4^n int64
# entries (128 MiB at n = 12), a sign vector 2^n, the exact rank check
# eliminates the 2^n x 2^n matrix, and the
# exhaustive scan classifies every subset of up to n+1 of the 2^n vertices
# and solves one roundness problem per isometry class of subset metrics.
# Classifying a few points, or embedding a tree, is cheap at any n; their
# caps bound input and report size, which grow with n.
DIMENSION_CAPS = {
    "cube distance matrix": 12,
    "identity check": 10,
    "sign matrix": 10,
    "vertex matrix": 10,
    "factor matrix": 10,
    "sign vector": 10,
    "rank check": 8,
    "exhaustive scan": 4,
    "classification": 64,
    "tree embedding": 64,
}
# Most vertices of the path witness, a path into the 64-cube: its report
# grows as k^2
MAX_WITNESS_PATH = 65
MIN_SUBSET_SIZE_FOR_Q = 3  # 1- and 2-point subsets have unbounded roundness


def _check_dimension(operation: str, n) -> int:
    return _integer(n, 1, DIMENSION_CAPS[operation], f"{operation} supports n in "
                    f"1..{DIMENSION_CAPS[operation]}, got {{!r}}", DimensionTooLargeError)


def _subset_indices(n, indices) -> tuple[int, tuple[int, ...]]:
    """n and `indices` as ints, order kept. DimensionTooLargeError if n is
    outside the classification cap; ValueError unless the indices are
    integers in 0..2^n - 1, nonempty and distinct."""
    n = _check_dimension("classification", n)
    idx = tuple(_integers(indices, 0, (1 << n) - 1, f"index {{!r}} out of range for an {n}-cube"))
    if not idx:
        raise ValueError("subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("subset vertices must be distinct")
    return n, idx


@dataclass(frozen=True)
class ClassificationResult:
    """Strictness verdict for a cube subset with the exact difference rank.

    `dependency` (present iff not strict) holds integer coefficients
    a_1..a_k, not all zero, with sum a_i (x_i - x_0) = 0 exactly.
    """

    strict: bool
    rank: int
    dependency: tuple[int, ...] | None


@dataclass(frozen=True)
class ScanSummary:
    n: int
    max_size: int
    counts: dict[tuple[int, bool], int]
    min_q_over_strict: float | None
    argmin_subset: tuple[int, ...] | None
    unbounded_strict_count: int


def cube_distance_matrix(n: int) -> np.ndarray:
    """Hamming distance matrix of the n-cube in binary-counting vertex order,
    as int64: row 0 holds the popcount of each index, and d[i, j] =
    popcount(i xor j) is row 0 read through the cube index of `spectral`."""
    n = _check_dimension("cube distance matrix", n)
    row = np.array([i.bit_count() for i in range(1 << n)], dtype=np.int64)
    return _readonly(row[_row0_index("cube", 1 << n)])


def sign_vector(i: int, j: int) -> np.ndarray:
    """The read-only int64 2^i-vector whose entries are +1 on even blocks of
    length 2^j and -1 on odd blocks, i within its DIMENSION_CAPS entry."""
    cap = DIMENSION_CAPS["sign vector"]
    i = _integer(i, 0, cap, f"sign vector supports i in 0..{cap}, got {{!r}}",
                 DimensionTooLargeError)
    j = _integer(j, 0, i, f"block exponent must satisfy 0 <= j <= i, got j={{!r}}, i={i}",
                 BadBlockExponentError)
    entries = 1 - 2 * ((np.arange(1 << i, dtype=np.int64) >> j) & 1)
    return _readonly(entries)


def eigen_identity_check(n: int) -> dict:
    """Verify, in exact integer arithmetic, that the all-ones vector is an
    eigenvector of the cube distance matrix with eigenvalue n*2^(n-1) and
    each proper sign vector one with eigenvalue -2^(n-1)."""
    n = _check_dimension("identity check", n)
    d = cube_distance_matrix(n)
    failures = []
    v = sign_vector(n, n)
    err = int(np.max(np.abs(d @ v - n * (1 << (n - 1)) * v)))
    if err:
        failures.append({"vector": [n, n], "max_error": err})
    for i in range(n):
        v = sign_vector(n, i)
        err = int(np.max(np.abs(d @ v + (1 << (n - 1)) * v)))
        if err:
            failures.append({"vector": [n, i], "max_error": err})
    return {"ok": not failures, "failures": failures}


def sign_matrix(n: int) -> np.ndarray:
    """(n+1) x 2^n matrix whose rows are the sign vectors with block sizes
    2^n, 2^(n-1), ..., 1."""
    n = _check_dimension("sign matrix", n)
    rows = [sign_vector(n, j) for j in range(n, -1, -1)]
    return _readonly(np.vstack(rows))


def lifted_vertex_matrix(n: int) -> np.ndarray:
    """(n+1) x 2^n matrix whose column i is 1 followed by the bits of vertex
    i, most significant first."""
    n = _check_dimension("vertex matrix", n)
    idx = np.arange(1 << n, dtype=np.int64)
    rows = [np.ones(1 << n, dtype=np.int64)]
    for k in range(n):
        rows.append((idx >> (n - 1 - k)) & 1)
    return _readonly(np.vstack(rows))


def factor_matrix(n: int) -> np.ndarray:
    """The (n+1) x (n+1) lower-triangular factor relating lifted vertex
    coordinates to sign vectors: all-ones first column, -2 on the rest of
    the diagonal."""
    n = _check_dimension("factor matrix", n)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    m[:, 0] = 1
    for i in range(1, n + 1):
        m[i, i] = -2
    return _readonly(m)


def factorization_check(n: int) -> bool:
    """Exact check that the factor matrix is invertible (integer determinant
    +/- 2^n) and that factor @ lifted_vertex equals the sign matrix."""
    m = factor_matrix(n)
    det = det_exact(m)
    if det != (-2) ** n:
        return False
    return bool(np.array_equal(m @ lifted_vertex_matrix(n), sign_matrix(n)))


def null_dimension_check(n: int) -> dict:
    """Exact rank bookkeeping for the n-cube distance matrix.

    The distance matrix has rank n+1, hence kernel dimension 2^n - n - 1;
    the sign matrix has full row rank n+1 and its exact kernel annihilates
    the distance matrix. Two exact eliminations: the rank of the distance
    matrix, and the kernel of the sign matrix, whose rank is 2^n minus the
    kernel size.
    """
    n = _check_dimension("rank check", n)
    d = cube_distance_matrix(n)
    size = 1 << n
    expected = size - n - 1
    rank_d = rank_exact(d)
    computed = size - rank_d
    kernel = kernel_basis_exact(sign_matrix(n))
    rank_a = size - len(kernel)
    annihilates = True
    if kernel:
        k = np.array(kernel, dtype=np.int64).T  # columns are kernel vectors
        if int(d.max()) * int(np.abs(k).max()) * size < 1 << 53:
            d, k = d.astype(float), k.astype(float)
        annihilates = not np.any(d @ k)
    ok = expected == computed and rank_d == n + 1 and rank_a == n + 1 and annihilates
    return {
        "expected": expected,
        "computed": computed,
        "ok": ok,
        "distance_rank": rank_d,
        "sign_rank": rank_a,
        "kernel_annihilates": annihilates,
    }


def classify_subset(n: int, indices) -> ClassificationResult:
    """Exact strictness dichotomy for the subset {x_0, ..., x_k} of the
    n-cube given by its vertex indices, x_0 first.

    Strict 1-negative type holds iff the k difference vectors x_i - x_0 are
    linearly independent, that is iff the n x k matrix with those vectors as
    columns has an empty exact kernel. One elimination decides it: the rank
    is k minus the kernel size, and when dependent the first kernel vector
    is the dependency (content-reduced, first nonzero coefficient positive).

    One call takes about 0.2 ms at n = 4 or 5 (2-CPU host, numpy 2.4.6),
    nearly all of it numpy's fixed cost per call in the stacked elimination,
    paid once per pivot column. A caller that needs only the verdicts and
    ranks of many subsets should pass them as one (m, s) index array to
    `_difference_ranks`, which takes 1-6 us per subset.
    """
    n, idx = _subset_indices(n, indices)
    kernel = _kernel_basis(_differences(n, [idx])[0])
    return ClassificationResult(strict=not kernel, rank=len(idx) - 1 - len(kernel),
                                dependency=tuple(kernel[0]) if kernel else None)


def subset_metric(n: int, indices) -> FiniteMetricSpace:
    """The induced Hamming metric on a nonempty subset of the n-cube,
    labelled by its vertices' n-bit strings in the given order."""
    n, idx = _subset_indices(n, indices)
    d = np.array([[(i ^ j).bit_count() for j in idx] for i in idx], dtype=float)
    labels = tuple(format(i, f"0{n}b") for i in idx)
    return FiniteMetricSpace(labels=labels, dist=_readonly(d))


def _differences(n: int, idx) -> np.ndarray:
    """The (m, n, s-1) int64 stack of difference vectors of the subsets of
    the n-cube in the (m, s) index array `idx`, x_0 first: column i-1 of
    matrix j is x_i - x_0 of subset j, one row per bit, most significant
    first."""
    idx = np.asarray(idx, dtype=np.uint64)  # n <= 64: every index fits
    # bits[j, b, i] is bit b of vertex i of subset j
    bits = (idx[:, None, :] >> np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]) & 1
    bits = bits.astype(np.int64)
    return bits[:, :, 1:] - bits[:, :, :1]


def _difference_ranks(n: int, idx) -> np.ndarray:
    """Exact rank of the difference vectors x_i - x_0 of each subset of the
    n-cube in the (m, s) index array `idx`, x_0 first; row j is strict iff
    its rank is s - 1. The verdicts and ranks of `classify_subset`, for a
    whole array of subsets in one elimination."""
    return _ranks(_differences(n, idx))


def _combinations(size_cap: int, size: int) -> np.ndarray:
    """All `size`-subsets of range(size_cap) as an (m, size) int64 array, in
    itertools.combinations (lexicographic) order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(size_cap), size))
    count = math.comb(size_cap, size) * size
    return np.fromiter(flat, dtype=np.int64, count=count).reshape(-1, size)


def _pinned_combinations(size_cap: int, size: int) -> np.ndarray:
    """The `size`-subsets of range(size_cap) that contain 0, as an (m, size)
    int64 array, 0 first, in lexicographic order: `_combinations` of
    1..size_cap-1 with a column of 0 in front."""
    return np.pad(_combinations(size_cap - 1, size - 1) + 1, ((0, 0), (1, 0)))


def _translates(n: int, size: int, pinned: int) -> int:
    """How many `size`-subsets of the n-cube a family closed under XOR by a
    vertex has, given its `pinned` members through 0: a subset S and a
    point v of S give S ^ v through 0, so size * total = 2^n * pinned."""
    total, rest = divmod(pinned << n, size)
    if rest:
        raise AssertionError(f"{pinned} pinned {size}-subsets of the {n}-cube "
                             "are not a union of translation classes")
    return total


@lru_cache(maxsize=None)
def _point_orders(k: int) -> np.ndarray:
    """All k! orders of k points as the rows of a read-only (k!, k) array,
    in itertools.permutations order, the identity first."""
    return _readonly(np.array(list(itertools.permutations(range(k)))))


@lru_cache(maxsize=None)
def _key_digits(k: int, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows i and the columns j of the upper triangle of a k x k
    matrix, row by row, and the value of each as a base-`base` digit, the
    first most significant: read-only arrays, built once per (k, base)."""
    i, j = np.triu_indices(k, 1)
    if base ** len(i) - 1 > np.iinfo(np.int64).max:
        raise AssertionError(f"a {base}-ary key of {len(i)} digits overflows int64")
    weights = base ** np.arange(len(i) - 1, -1, -1, dtype=np.int64)
    return _readonly(i), _readonly(j), _readonly(weights)


def _metric_keys(dist: np.ndarray, base: int, orders: np.ndarray) -> np.ndarray:
    """One int64 key per matrix of the (m, k, k) stack `dist`, whose entries
    are in 0..base-1: the smallest, over the point orders that are the rows
    of the (P, k) array `orders`, of the matrix's upper triangle read in
    that order as base-`base` digits, the first entry most significant.
    Over one order the key is the matrix itself; over all k! orders
    (`_point_orders`) it is its isometry class."""
    i, j, weights = _key_digits(dist.shape[1], base)
    return (dist[:, orders[:, i], orders[:, j]] @ weights).min(axis=1)


def scan_subsets(
    n: int,
    max_size: int | None = None,
    p_max: float = 64.0,
    tol_p: float = 1e-9,
    tol_eig: float = 1e-9,
    jobs: int = 1,
) -> ScanSummary:
    """Classify every cube subset up to max_size and find the smallest
    roundness among the strict ones.

    Sizes 1 and 2 are classified but excluded from the minimum (two-point
    spaces have negative type at every exponent). Strict subsets whose
    roundness exceeds p_max count as unbounded and are likewise excluded.
    Ties in the minimum break lexicographically on the index set, so output
    is deterministic.

    A subset of more than n+1 points has more than n differences in n
    dimensions, so those sizes are counted non-strict with no elimination.
    Sizes 1 and 2 are counted strict the same way, by `math.comb`: one
    point has no differences, and two distinct points have a nonzero one.
    XOR by a vertex keeps a subset's metric and difference rank, so of each
    size k from 3 up to n+1 only the C(2^n - 1, k - 1) subsets through 0
    are classified, as one (m, k) index array in lexicographic order, by
    one exact fraction-free elimination (`_difference_ranks`), in int64
    with no check per pivot: Hadamard's bound proves every {-1, 0, 1} stack
    of order at most n <= 4 safe up front (`spectral._exact`).
    `_translates` scales their counts to all k-subsets. The scan runs in
    one process: `jobs` is checked but has no effect, and stays only for
    callers that still pass it. q depends only on the subset's metric up to
    relabelling, so the strict subsets of each size get their metrics in
    one gather from row 0 of `cube_distance_matrix` (the popcounts) and are
    grouped by isometry class (`_metric_keys`, taken over all k! point
    orders once per distinct ordered metric). One `roundness_search` solves
    the metric of the lexicographically first subset of every class, which
    contains 0, in lock-step, on the class forms of its at most n
    distances, and each subset gets the q of its class: 6 solves for the
    105 strict 3-subsets through 0 of the 4-cube. A max_size outside
    1..2^n, `jobs` below 1, and root-search parameters the search would
    reject raise BadParamsError before any work. `negtype`, which holds
    the search, is imported here, so the cube commands that do not scan
    never load it.
    """
    from .negtype import _check_search_params, roundness_search

    n = _check_dimension("exhaustive scan", n)
    size_cap = 1 << n
    max_size = _integer(min(n + 1, size_cap) if max_size is None else max_size, 1, size_cap,
                        f"max_size must be in 1..{size_cap}, got {{!r}}", BadParamsError)
    _integer(jobs, 1, None, "jobs must be at least 1, got {!r}", BadParamsError)
    p_max, tol_p, tol_eig = _check_search_params(p_max, tol_p, tol_eig)

    popcount = cube_distance_matrix(n)[0]
    counts: dict[tuple[int, bool], int] = {}
    best: tuple[float, tuple[int, ...]] | None = None
    unbounded_strict = 0
    for size in range(1, max_size + 1):
        if size < MIN_SUBSET_SIZE_FOR_Q or size > n + 1:
            # 1 or 2 points are strict, more than n differences in n dimensions are not
            counts[(size, size < MIN_SUBSET_SIZE_FOR_Q)] = math.comb(size_cap, size)
            continue
        idx = _pinned_combinations(size_cap, size)
        strict = _difference_ranks(n, idx) == size - 1
        n_strict = _translates(n, size, int(strict.sum()))
        for is_strict, count in ((True, n_strict), (False, math.comb(size_cap, size) - n_strict)):
            if count:
                counts[(size, is_strict)] = count
        if not n_strict:
            continue
        strict_idx = idx[strict]
        dist = popcount[strict_idx[:, :, None] ^ strict_idx[:, None, :]]
        orders = _point_orders(size)  # the identity first
        _, first, ordered = np.unique(_metric_keys(dist, n + 1, orders[:1]),
                                      return_index=True, return_inverse=True)
        _, iso = np.unique(_metric_keys(dist[first], n + 1, orders), return_inverse=True)
        iso = iso[ordered]  # the isometry class of each subset
        _, rep = np.unique(iso, return_index=True)  # its lexicographically first subset
        found = roundness_search(dist[rep].astype(float),
                                 p_max=p_max, tol_p=tol_p, tol_eig=tol_eig)
        q = np.array([f[0] if f else np.nan for f in found])[iso]
        bounded = ~np.isnan(q)
        unbounded_strict += _translates(n, size, len(q) - int(bounded.sum()))
        if bounded.any():
            j = int(np.nanargmin(q))  # the first, hence lexicographically smallest
            candidate = (float(q[j]), tuple(strict_idx[j].tolist()))
            if best is None or candidate < best:
                best = candidate
    return ScanSummary(
        n=n,
        max_size=max_size,
        counts=counts,
        min_q_over_strict=best[0] if best else None,
        argmin_subset=best[1] if best else None,
        unbounded_strict_count=unbounded_strict,
    )


def tree_embedding_search(t: Graph, n: int) -> dict[int, int] | None:
    """Isometric embedding of a tree into the n-cube, as the map from tree
    vertex to cube index, or None when there is none.

    A k-vertex tree has strict 1-negative type, so by the subset dichotomy
    its images would need k - 1 independent differences: none exists below
    n = k - 1. Djoković's theorem gives one from there on, since in a tree
    each edge is its own class and so gets a coordinate of its own: the
    vertex at breadth-first position i from vertex 0 maps to its parent's
    image with bit i - 1 set, so each image holds the edges of the vertex's
    path from 0. Checked exactly against the tree's BFS distances before
    returning. DimensionTooLargeError for n outside the
    "tree embedding" cap, and NotATreeError unless the graph has k - 1 edges
    and reaches every vertex from 0.
    """
    from .graphs import _bfs, adjacency

    n = _check_dimension("tree embedding", n)
    if len(t.edges) != t.n - 1:
        raise NotATreeError(f"a tree on {t.n} vertices has {t.n - 1} edges, got {len(t.edges)}")
    adj = adjacency(t)
    depth = _bfs(adj, 0)  # in breadth-first order
    if len(depth) < t.n:
        v = next(v for v in range(t.n) if v not in depth)
        raise NotATreeError(f"input graph is not connected: no path between vertices 0 and {v}")
    if t.n - 1 > n:
        return None
    images = {0: 0}
    for i, v in enumerate(itertools.islice(depth, 1, None)):
        parent = next(u for u in adj[v] if depth[u] < depth[v])
        images[v] = images[parent] | 1 << i
    for s in range(t.n):
        if any((images[s] ^ images[v]).bit_count() != d for v, d in _bfs(adj, s).items()):
            raise AssertionError("edge-coordinate embedding failed exact distance check")
    return {v: images[v] for v in range(t.n)}


def path_embedding_witness(k: int) -> list[int]:
    """Isometric embedding of the k-vertex path into the (k-1)-cube: vertex j
    maps to the index whose k-1 bits are j leading ones. Verified exactly
    before returning. DimensionTooLargeError unless k is an integer up to
    MAX_WITNESS_PATH, and BadParamsError below 2 vertices."""
    k = _integer(k, None, MAX_WITNESS_PATH, f"path witness supports k in 2..{MAX_WITNESS_PATH}, "
                 "got {!r}", DimensionTooLargeError)
    k = _integer(k, 2, None, "path needs at least 2 vertices, got {!r}", BadParamsError)
    dim = k - 1
    images = [((1 << j) - 1) << (dim - j) for j in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if (images[i] ^ images[j]).bit_count() != j - i:
                raise AssertionError("prefix embedding failed exact distance check")
    return images
