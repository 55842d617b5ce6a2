import itertools
import logging
import math
import random
import re
import time

import numpy as np
import pytest
from conftest import sympy_kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from roundness import (
    Graph,
    build_metric_space,
    check_negative_type,
    classify_subset,
    cube_distance_matrix,
    eigen_identity_check,
    factor_matrix,
    factorization_check,
    generalized_roundness,
    lifted_vertex_matrix,
    null_dimension_check,
    path_embedding_witness,
    path_metric,
    rank_exact,
    scan_subsets,
    sign_matrix,
    sign_vector,
    subset_metric,
    tree_embedding_search,
)
from roundness.errors import (
    BadBlockExponentError,
    BadParamsError,
    DimensionTooLargeError,
    NotATreeError,
)
from roundness import graphs, hamming, negtype
from roundness.hamming import ScanSummary, _combinations, _difference_ranks, _metric_keys
from roundness.negtype import roundness_search
from roundness.spectral import _eliminate, _ranks


def bits(n, i):
    """The n bits of cube vertex i, most significant first."""
    return [(i >> (n - 1 - c)) & 1 for c in range(n)]


def difference_rows(n, indices):
    """The 0/+-1 difference vectors x_i - x_0 of a cube subset, one per row."""
    base = bits(n, indices[0])
    return [[b - b0 for b, b0 in zip(bits(n, i), base)] for i in indices[1:]]


def popcount_matrix(n):
    idx = np.arange(1 << n)
    pc = np.array([int(i).bit_count() for i in range(1 << n)], dtype=np.int64)
    return pc[idx[:, None] ^ idx[None, :]]


def test_cube_distance_matrix_base_case():
    assert cube_distance_matrix(1).tolist() == [[0, 1], [1, 0]]


def test_cube_distance_matrix_two():
    expected = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    assert cube_distance_matrix(2).tolist() == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_distance_matrix_popcount_oracle(n):
    assert np.array_equal(cube_distance_matrix(n), popcount_matrix(n))


def test_cube_corner_distance():
    for n in range(1, 8):
        assert cube_distance_matrix(n)[0, (1 << n) - 1] == n


def test_cube_dimension_guard():
    with pytest.raises(DimensionTooLargeError):
        cube_distance_matrix(13)
    with pytest.raises(DimensionTooLargeError):
        cube_distance_matrix(0)


def test_sign_vectors():
    assert sign_vector(2, 2).tolist() == [1, 1, 1, 1]
    assert sign_vector(2, 1).tolist() == [1, 1, -1, -1]
    assert sign_vector(2, 0).tolist() == [1, -1, 1, -1]
    with pytest.raises(BadBlockExponentError):
        sign_vector(2, 3)


def test_eigen_identities_base_case_by_hand():
    d1 = cube_distance_matrix(1)
    assert np.array_equal(d1 @ [1, 1], [1, 1])
    assert np.array_equal(d1 @ [1, -1], [-1, 1])
    assert eigen_identity_check(1)["ok"]


def test_eigen_identities_n3_eigenvalues():
    d3 = cube_distance_matrix(3)
    full = sign_vector(3, 3)
    assert np.array_equal(d3 @ full, 12 * full)
    for j in range(3):
        v = sign_vector(3, j)
        assert np.array_equal(d3 @ v, -4 * v)


@pytest.mark.parametrize("n", range(1, 11))
def test_eigen_identities_hold(n):
    assert eigen_identity_check(n) == {"ok": True, "failures": []}


def test_base_matrices():
    assert sign_matrix(1).tolist() == [[1, 1], [1, -1]]
    assert lifted_vertex_matrix(1).tolist() == [[1, 1], [0, 1]]
    assert factor_matrix(1).tolist() == [[1, 0], [1, -2]]


def test_factorization_base_case():
    m = factor_matrix(1) @ lifted_vertex_matrix(1)
    assert np.array_equal(m, sign_matrix(1))
    assert factorization_check(1)


@pytest.mark.parametrize("n", range(1, 7))
def test_factorization_holds(n):
    assert factorization_check(n)


def test_null_dimension_examples():
    r1 = null_dimension_check(1)
    assert r1["expected"] == 0 and r1["distance_rank"] == 2 and r1["ok"]
    assert null_dimension_check(2)["expected"] == 1
    r5 = null_dimension_check(5)
    assert r5["expected"] == 26 and r5["computed"] == 26 and r5["ok"]


@pytest.mark.parametrize("fn", [classify_subset, subset_metric])
def test_subset_validation_reaches_both_entry_points(fn):
    with pytest.raises(ValueError, match="^subset must be nonempty$"):
        fn(3, [])
    with pytest.raises(ValueError, match="^index 8 out of range for an 3-cube$"):
        fn(3, [0, 8])
    with pytest.raises(ValueError, match="^index -1 out of range for an 3-cube$"):
        fn(3, [-1, 0])
    with pytest.raises(ValueError, match="^subset vertices must be distinct$"):
        fn(3, [1, 2, 1])
    # int() reads 1.5 and "1" as 1, and rejects the rest with errors of its
    # own; one check holds each index to the integers in range
    for bad in (1.5, 6.9, "1", None, [1], "abc", math.inf, math.nan):
        message = f"index {bad!r} out of range for an 3-cube"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(3, [0, bad, 6])
    fn(3, [0, 2.0, np.int64(6)])  # integral values of any type are accepted
    for n in (0, 65):
        with pytest.raises(DimensionTooLargeError):
            fn(n, [0, 1])
    fn(64, [0, (1 << 64) - 1])  # the largest accepted dimension


@st.composite
def cube_subsets(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=min(1 << n, 9), unique=True))


def reference_rank(rows) -> int:
    try:
        import sympy
    except ImportError:
        return float_rank(rows)
    return sympy.Matrix(rows).rank()


def float_rank(a) -> int | np.ndarray:
    """numpy's SVD rank of a {-1, 0, 1} matrix, or of each matrix of a stack:
    exact at the sizes these tests use. A rank-k integer r x c matrix has
    the product of its k nonzero singular values at least 1 and the largest
    at most sqrt(r c), so the smallest is at least (r c)^(-(k-1)/2), above
    2e-5 here, far above matrix_rank's cutoff, which is below 1e-12 here."""
    return np.linalg.matrix_rank(np.asarray(a, dtype=float))


def difference_stack(n, idx):
    """The difference vectors x_i - x_0 of each subset in the (m, s) index
    array `idx`, as the rows of an (m, s-1, n) stack, built from `bits`."""
    b = np.array([bits(n, i) for i in range(1 << n)])[idx]
    return b[:, 1:] - b[:, :1]


@settings(max_examples=150, deadline=None)
@given(subset=cube_subsets())
def test_subset_metric_and_strictness_from_index_bits(subset):
    n, idx = subset
    assert np.array_equal(subset_metric(n, idx).dist, cube_distance_matrix(n)[np.ix_(idx, idx)])
    diffs = difference_rows(n, idx)
    full_rank = not diffs or reference_rank(np.array(diffs).T.tolist()) == len(diffs)
    assert classify_subset(n, idx).strict == full_rank


def test_classify_examples():
    assert classify_subset(2, [0b00, 0b01, 0b10]).strict
    full = classify_subset(2, [0b00, 0b01, 0b10, 0b11])
    assert not full.strict  # 4 points in a 2-cube can never be strict
    assert full.rank == 2
    single = classify_subset(3, [5])
    assert single.strict and single.rank == 0 and single.dependency is None


def test_classify_subset_matches_sympy_on_the_3_cube():
    sympy = pytest.importorskip("sympy")
    subsets = [c for size in range(1, 9) for c in itertools.combinations(range(8), size)]
    assert len(subsets) == 255
    for indices in subsets:
        diffs = difference_rows(3, indices)
        rank = sympy.Matrix(diffs).rank() if diffs else 0
        strict = rank == len(diffs)
        dependency = None if strict else tuple(sympy_kernel(np.array(diffs).T.tolist())[0])
        cls = classify_subset(3, indices)
        assert (cls.strict, cls.rank, cls.dependency) == (strict, rank, dependency), indices


def test_dependency_certificates_exact():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        size = int(rng.integers(1, min(9, 1 << n) + 1))
        ids = rng.choice(1 << n, size=size, replace=False).tolist()
        cls = classify_subset(n, ids)
        assert cls.strict == (cls.rank == size - 1)
        if cls.dependency is not None:
            assert any(cls.dependency)
            base = np.array(bits(n, ids[0]))
            total = np.zeros(n, dtype=int)
            for a, i in zip(cls.dependency, ids[1:]):
                total += a * (np.array(bits(n, i)) - base)
            assert not total.any()


def oracle_ranks(n, idx):
    """numpy's rank of the difference vectors of each subset in `idx`."""
    return float_rank(difference_stack(n, idx)) if idx.shape[1] > 1 else np.zeros(len(idx), int)


def check_classify_subset(n, idx, ranks):
    """`classify_subset` of each subset in `idx` has the oracle's rank, is
    strict iff that rank is full, and, when not strict, reports a
    dependency that is a certificate: a content-reduced integer vector,
    first nonzero entry positive, that annihilates the difference vectors."""
    for indices, rank, diffs in zip(idx.tolist(), ranks.tolist(), difference_stack(n, idx)):
        cls = classify_subset(n, indices)
        assert (rank, rank == len(indices) - 1) == (cls.rank, cls.strict), indices
        if cls.strict:
            assert cls.dependency is None, indices
            continue
        dep = np.array(cls.dependency)
        assert dep[np.flatnonzero(dep)[0]] > 0 and math.gcd(*cls.dependency) == 1, indices
        assert not (dep @ diffs).any(), indices


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_classification_matches_classify_subset_exhaustively(n):
    """Both the batched ranks and `classify_subset` match numpy's rank on
    every subset, the rank-deficient ones inside a face included."""
    for size in range(1, (1 << n) + 1):
        idx = _combinations(1 << n, size)
        ranks = oracle_ranks(n, idx)
        assert _difference_ranks(n, idx).tolist() == ranks.tolist(), size
        check_classify_subset(n, idx, ranks)


@pytest.mark.parametrize("n", [5, 6])
def test_batched_classification_matches_classify_subset_on_a_sample(n):
    rng = np.random.default_rng(1300 + n)
    sizes = rng.integers(1, n + 3, size=5000)
    for size in np.unique(sizes):
        # distinct vertices in random order, so x_0 is not always the smallest
        idx = np.array([rng.choice(1 << n, size=size, replace=False)
                        for _ in range(int(np.sum(sizes == size)))])
        ranks = oracle_ranks(n, idx)
        assert _difference_ranks(n, idx).tolist() == ranks.tolist(), size
        check_classify_subset(n, idx, ranks)


@st.composite
def sign_matrix_stacks(draw):
    """Stacks of up to 5 random {-1, 0, 1} matrices of one shape up to 6 x 7,
    each with a column possibly zeroed and a column possibly repeated."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        entries = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=rows * cols,
                                max_size=rows * cols))
        mat = np.array(entries, dtype=np.int64).reshape(rows, cols)
        zero = draw(st.none() | st.integers(0, cols - 1))
        if zero is not None:
            mat[:, zero] = 0
        src, dst = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        mat[:, dst] = mat[:, src]
        stack.append(mat)
    return np.stack(stack)


@settings(max_examples=200, deadline=None)
@given(stack=sign_matrix_stacks())
def test_batched_rank_matches_rank_exact(stack):
    """The stacked rank and `rank_exact` of each matrix both equal numpy's
    rank (sympy's, where installed)."""
    expected = [reference_rank(mat.tolist()) for mat in stack]
    assert _ranks(stack).tolist() == expected
    assert [rank_exact(mat) for mat in stack] == expected


def test_batched_rank_raises_on_a_corrupted_pivot():
    good = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    _, pivots, d = _eliminate(good[None].copy())
    assert pivots.tolist() == [[0, 1, 2]] and d.tolist() == [2]  # det 2, rank 3
    bad = good.copy()
    bad[0, 0] = 10**12  # its products wrap int64, so a later division is inexact
    with pytest.raises(ArithmeticError, match="inexact division"):
        _eliminate(np.stack([good, bad]))


def test_subset_metric_distances():
    sp = subset_metric(3, [0b000, 0b011, 0b101])
    assert sp.labels == ("000", "011", "101")
    assert sp.dist.tolist() == [[0, 2, 2], [2, 0, 2], [2, 2, 0]]


def test_scan_h2():
    summary = scan_subsets(2)
    assert summary.counts == {(1, True): 4, (2, True): 6, (3, True): 4}
    # every strict triple of the 2-cube is a relabelled {0,1,2} path, q = 2
    assert summary.min_q_over_strict == pytest.approx(2.0, abs=1e-6)
    assert summary.argmin_subset == (0, 1, 2)
    assert summary.unbounded_strict_count == 0


def test_scan_h2_full_size():
    summary = scan_subsets(2, max_size=4)
    assert summary.counts[(4, False)] == 1
    assert (4, True) not in summary.counts


def test_scan_jobs_deterministic():
    for n, max_size in [(2, None), (3, None), (4, 3), (4, None)]:
        assert scan_subsets(n, max_size=max_size, jobs=2) == scan_subsets(n, max_size=max_size, jobs=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_counts_are_translation_invariant(n):
    """The scan classifies only the subsets through vertex 0 and scales
    their counts by translation; an elimination over every subset of each
    size, 0 or not, gives the same counts."""
    counts = scan_subsets(n, max_size=1 << n).counts
    for k in range(1, (1 << n) + 1):
        strict = int(np.sum(_difference_ranks(n, _combinations(1 << n, k)) == k - 1))
        expected = {(k, True): strict, (k, False): math.comb(1 << n, k) - strict}
        assert {key: counts.get(key, 0) for key in expected} == expected, k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_eliminates_only_the_subsets_through_0(monkeypatch, n):
    # one elimination per size 3..n+1, over the C(2^n - 1, k - 1) subsets
    # 0 + a (k-1)-subset of 1..2^n - 1, in lexicographic order
    seen = []

    def spy(n_, idx):
        seen.append(idx.copy())
        return _difference_ranks(n_, idx)

    monkeypatch.setattr(hamming, "_difference_ranks", spy)
    scan_subsets(n)
    assert [len(idx) for idx in seen] == [math.comb((1 << n) - 1, k - 1) for k in range(3, n + 2)]
    for k, idx in zip(range(3, n + 2), seen):
        assert not idx[:, 0].any()
        rest = itertools.combinations(range(1, 1 << n), k - 1)
        assert idx[:, 1:].tolist() == [list(c) for c in rest]


def test_scan_search_steps(caplog):
    # the lock-step searches of the benchmark's two scans: 12 + 18 + 13 = 43
    # steps while a probe snapped onto a bracket end fell back to bisection
    caplog.set_level(logging.DEBUG, logger="roundness")
    scan_subsets(3, max_size=8)
    scan_subsets(4, max_size=3)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lock-step")]
    assert [int(re.search(r"(\d+) steps", line)[1]) for line in lines] == [10, 12, 10]


def test_scan_guards():
    with pytest.raises(DimensionTooLargeError):
        scan_subsets(5)
    for jobs in (0, -3):
        with pytest.raises(BadParamsError):
            scan_subsets(2, jobs=jobs)


def brute_force_scan(n, max_size):
    """Reference scan: one roundness solve for every strict subset of size >= 3."""
    counts = {}
    best = None
    unbounded = 0
    for size in range(1, max_size + 1):
        for indices in itertools.combinations(range(1 << n), size):
            strict = classify_subset(n, indices).strict
            counts[(size, strict)] = counts.get((size, strict), 0) + 1
            if strict and size >= 3:
                res = generalized_roundness(subset_metric(n, indices))
                if res.status != "Finite":
                    unbounded += 1
                elif best is None or (res.q, indices) < best:
                    best = (res.q, indices)
    return ScanSummary(n=n, max_size=max_size, counts=counts,
                       min_q_over_strict=best[0], argmin_subset=best[1],
                       unbounded_strict_count=unbounded)


# one solve per isometry class of strict subset metric: 3 + 4 classes of
# sizes 3 and 4 in the 3-cube, and 6 + 14 of sizes 3 and 4 in the 4-cube
@pytest.mark.parametrize("n, max_size, distinct", [(3, 8, 7), (4, 3, 6), (4, 4, 20)])
def test_scan_solves_each_distinct_metric_once(monkeypatch, n, max_size, distinct):
    expected = brute_force_scan(n, max_size)
    solved = []

    def counting(dists, **kwargs):
        solved.extend(d.tobytes() for d in dists)
        return roundness_search(dists, **kwargs)

    monkeypatch.setattr(negtype, "roundness_search", counting)
    assert scan_subsets(n, max_size=max_size) == expected
    assert len(solved) == len(set(solved)) == distinct


def _all_orders(k):
    return np.array(list(itertools.permutations(range(k))))


@st.composite
def metric_stacks(draw):
    """(n, stack, permuted): an (m, k, k) stack of symmetric matrices with
    zero diagonal and off-diagonal entries in 1..n, k <= 5 and n <= 4, and the
    same stack with the points of each matrix in a drawn order."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    m = draw(st.integers(1, 6))
    stack = np.zeros((m, k, k), dtype=np.int64)
    i, j = np.triu_indices(k, 1)
    entries = draw(st.lists(st.integers(1, n), min_size=m * len(i), max_size=m * len(i)))
    stack[:, i, j] = np.reshape(entries, (m, len(i)))
    stack += stack.transpose(0, 2, 1)
    orders = [draw(st.permutations(range(k))) for _ in range(m)]
    permuted = np.stack([d[np.ix_(o, o)] for d, o in zip(stack, orders)])
    return n, stack, permuted


@settings(max_examples=150, deadline=None)
@given(metric_stacks())
def test_isometry_key_ignores_the_point_order(case):
    """The key over all orders is a relabelling invariant, and the key over
    the given order alone reads back, digit by digit, as the upper triangle,
    so distinct matrices never share a key."""
    n, stack, permuted = case
    k = stack.shape[1]
    orders = _all_orders(k)
    assert _metric_keys(stack, n + 1, orders).tolist() == _metric_keys(permuted, n + 1, orders).tolist()
    i, j = np.triu_indices(k, 1)
    for d, key in zip(stack, _metric_keys(stack, n + 1, orders[:1]).tolist()):
        digits = [key // (n + 1) ** e % (n + 1) for e in range(len(i) - 1, -1, -1)]
        assert digits == d[i, j].tolist()


@pytest.mark.parametrize("n", [3, 4])
def test_isometry_key_separates_exactly_the_isometry_classes(n):
    """Over the distinct strict subset metrics of sizes 3 and 4, two keys are
    equal exactly when some order of the points of one gives the other."""
    popcount = cube_distance_matrix(n)[0]
    for size in (3, 4):
        idx = _combinations(1 << n, size)
        idx = idx[_difference_ranks(n, idx) == size - 1]
        dists = np.unique(popcount[idx[:, :, None] ^ idx[:, None, :]], axis=0)
        orders = _all_orders(size)
        keys = _metric_keys(dists, n + 1, orders).tolist()
        relabelled = [{d[np.ix_(o, o)].tobytes() for o in orders} for d in dists]
        for a, b in itertools.product(range(len(dists)), repeat=2):
            assert (keys[a] == keys[b]) == (dists[b].tobytes() in relabelled[a]), (size, a, b)


@pytest.mark.parametrize("n, max_size", [(3, 8), (4, 3)])
def test_stacked_search_equals_single_solves(n, max_size):
    """Every distinct strict subset metric a scan solves, stacked by size as
    the scan stacks them: the lock-step search gives, member by member, the
    status, q, bracket and iteration count of a solve of its own."""
    by_size = {}
    for size in range(3, max_size + 1):
        for indices in itertools.combinations(range(1 << n), size):
            if classify_subset(n, indices).strict:
                dist = subset_metric(n, indices).dist
                by_size.setdefault(size, {}).setdefault(dist.tobytes(), dist)
    statuses = set()
    for group in by_size.values():
        stack = np.stack(list(group.values()))
        for dist, found in zip(stack, roundness_search(stack)):
            single = generalized_roundness(build_metric_space(dist))
            statuses.add(single.status)
            if found is None:
                assert single.status == "Unbounded"
                continue
            q, bracket, iterations = found
            assert single.status == "Finite"
            assert (q, bracket, iterations) == (single.q, single.bracket, single.iterations)
    assert statuses == {"Finite", "Unbounded"}


@pytest.mark.parametrize("params", [
    {"tol_p": 0.0}, {"tol_p": -1.0}, {"tol_p": float("nan")},
    {"tol_eig": -1.0}, {"tol_eig": float("inf")},
    {"p_max": 0.0}, {"p_max": -1.0}, {"p_max": float("inf")},
])
def test_scan_rejects_bad_search_params_before_classifying(monkeypatch, params):
    def fail(n, idx):
        raise AssertionError("classification started")

    monkeypatch.setattr(hamming, "_difference_ranks", fail)
    with pytest.raises(BadParamsError):
        scan_subsets(2, **params)


def test_h1_full_subset_strict_but_unbounded():
    assert classify_subset(1, [0, 1]).strict
    assert generalized_roundness(subset_metric(1, [0, 1])).status == "Unbounded"


def test_classifier_agrees_with_spectral_oracle_h2():
    for size in range(2, 5):
        for ids in itertools.combinations(range(4), size):
            strict_exact = classify_subset(2, ids).strict
            verdict = check_negative_type(subset_metric(2, ids), 1.0)
            assert verdict.holds
            assert strict_exact == verdict.strict, ids


STAR4 = Graph(4, ((0, 1), (0, 2), (0, 3)))
PATH4 = Graph(4, ((0, 1), (1, 2), (2, 3)))


def test_star_does_not_embed_in_two_cube():
    assert tree_embedding_search(STAR4, 2) is None


def test_path_embeds_in_three_cube():
    emb = tree_embedding_search(PATH4, 3)
    assert emb is not None
    for i in range(4):
        for j in range(i + 1, 4):
            assert (emb[i] ^ emb[j]).bit_count() == j - i


def test_path_does_not_embed_in_two_cube():
    assert tree_embedding_search(PATH4, 2) is None


def test_tree_search_guards():
    with pytest.raises(NotATreeError):
        tree_embedding_search(Graph(3, ((0, 1), (1, 2), (0, 2))), 3)
    with pytest.raises(NotATreeError):
        tree_embedding_search(Graph(4, ((0, 1), (2, 3), (1, 2), (0, 3))), 3)
    # k - 1 edges, but one closes a cycle, so vertex 3 is never reached
    with pytest.raises(NotATreeError, match="no path between vertices 0 and 3$"):
        tree_embedding_search(Graph(4, ((0, 1), (1, 2), (0, 2))), 3)
    for n in (0, 65):
        with pytest.raises(DimensionTooLargeError, match=f"^tree embedding supports n in 1..64, "
                                                         f"got {n}$"):
            tree_embedding_search(PATH4, n)
    # the largest tree that embeds in the largest cube accepted
    tree = prufer_tree(random.Random(65).choices(range(65), k=63), 65)
    emb = tree_embedding_search(tree, 64)
    dist = path_metric(tree).dist
    assert all((emb[i] ^ emb[j]).bit_count() == dist[i, j] for i in range(65) for j in range(65))
    # a tree too large for the cube is told apart with nothing of size k^2
    path = Graph(100_000, tuple((i, i + 1) for i in range(99_999)))
    start = time.perf_counter()
    assert tree_embedding_search(path, 64) is None
    assert time.perf_counter() - start < 1.0


def small_trees():
    yield Graph(2, ((0, 1),))
    yield Graph(3, ((0, 1), (1, 2)))
    yield STAR4
    yield PATH4
    yield Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    yield Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    yield Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def test_successful_embeddings_satisfy_dimension_bound():
    # any embedded k-vertex tree needs at least k-1 cube dimensions
    for tree in small_trees():
        for n in range(1, 6):
            emb = tree_embedding_search(tree, n)
            if emb is not None:
                assert n >= tree.n - 1
                dist = np.zeros((tree.n, tree.n), dtype=int)
                for u, v in tree.edges:
                    dist[u, v] = dist[v, u] = 1
                for _ in range(tree.n):  # tiny Floyd pass, enough at this size
                    for k in range(tree.n):
                        for i in range(tree.n):
                            for j in range(tree.n):
                                if dist[i, k] and dist[k, j] and (i != j):
                                    alt = dist[i, k] + dist[k, j]
                                    if dist[i, j] == 0 or alt < dist[i, j]:
                                        dist[i, j] = alt
                for i in range(tree.n):
                    for j in range(tree.n):
                        if i != j:
                            assert (emb[i] ^ emb[j]).bit_count() == dist[i, j]


def test_largest_supported_searches():
    # the 7-vertex path and star, the largest trees the old backtracking
    # search accepted, embed in Q_6 and the star not in Q_5
    p7 = Graph(7, tuple((i, i + 1) for i in range(6)))
    emb = tree_embedding_search(p7, 6)
    assert emb is not None
    star7 = Graph(7, tuple((0, i) for i in range(1, 7)))
    emb = tree_embedding_search(star7, 6)
    assert emb is not None
    for i in range(1, 7):
        assert (emb[0] ^ emb[i]).bit_count() == 1
    assert tree_embedding_search(star7, 5) is None


def test_single_vertex_tree_embeds_trivially():
    assert tree_embedding_search(Graph(1, ()), 3) == {0: 0}


def prufer_tree(seq, k):
    """The labelled tree on k vertices whose Prüfer sequence is seq."""
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)  # the smallest leaf
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(k) if degree[v] == 1))
    return Graph(k, tuple(edges))


def labelled_trees(max_k):
    """Every labelled tree on 2..max_k vertices, by Prüfer sequence."""
    for k in range(2, max_k + 1):
        for seq in itertools.product(range(k), repeat=k - 2):
            yield prufer_tree(seq, k)


def backtracking_embedding(t, n):
    """Exhaustive search for an isometric embedding of the tree t into the
    n-cube: vertices are placed in breadth-first order from vertex 0, which
    maps to index 0, each at the smallest unused index whose distance to
    every placed vertex is the tree distance. The map, or None."""
    if t.n == 1:
        return {0: 0}
    dist = path_metric(t).dist
    if dist.max() > n:
        return None  # Hamming distances cannot exceed the dimension
    adj = graphs.adjacency(t)
    order = [0]
    for u in order:  # a queue: breadth-first order
        order += [w for w in adj[u] if w not in order]
    images = {0: 0}

    def place(pos):
        if pos == len(order):
            return True
        v = order[pos]
        for cand in range(1 << n):
            if cand in images.values():
                continue
            if all((cand ^ images[u]).bit_count() == dist[v, u] for u in order[:pos]):
                images[v] = cand
                if place(pos + 1):
                    return True
                del images[v]
        return False

    return {v: images[v] for v in range(t.n)} if place(1) else None


def test_tree_embedding_matches_the_exhaustive_search():
    # the search picks the smallest candidate, its parent's image plus the
    # next free bit, so the two agree exactly, and the search shows
    # independently that a k-vertex tree embeds only from n = k - 1 on
    trees = list(labelled_trees(6))
    rng = random.Random(7)
    trees += [prufer_tree(rng.choices(range(7), k=5), 7) for _ in range(50)]
    trees += [Graph(7, tuple((i, i + 1) for i in range(6))),  # the 7-path and 7-star
              Graph(7, tuple((0, i) for i in range(1, 7)))]
    for tree in trees:
        for n in range(1, 7):
            emb = tree_embedding_search(tree, n)
            assert emb == backtracking_embedding(tree, n), (tree.edges, n)
            assert (emb is not None) == (n >= tree.n - 1)


def test_tree_embeddings_are_strict_cube_subsets():
    # a tree has strict 1-negative type, so its k images have k - 1
    # independent differences: the bound k - 1 <= n of the paper's dichotomy
    for tree in labelled_trees(6):
        emb = tree_embedding_search(tree, tree.n - 1)
        r = classify_subset(64, [emb[v] for v in range(tree.n)])
        assert r.strict and r.rank == tree.n - 1


def test_path_embedding_witness_examples():
    assert [format(i, "01b") for i in path_embedding_witness(2)] == ["0", "1"]
    assert [format(i, "03b") for i in path_embedding_witness(4)] == ["000", "100", "110", "111"]
    for k in range(2, 8):
        images = path_embedding_witness(k)
        assert len(images) == k
        for i in range(k):
            for j in range(i + 1, k):
                assert (images[i] ^ images[j]).bit_count() == j - i


def test_path_embedding_witness_dimension_cap():
    images = path_embedding_witness(65)  # into the 64-cube, the largest accepted
    assert images[0] == 0 and images[-1] == (1 << 64) - 1
    with pytest.raises(DimensionTooLargeError):
        path_embedding_witness(66)
    with pytest.raises(BadParamsError):
        path_embedding_witness(1)
