"""Invariants of the roundness computation, property-tested on random small
metric spaces: 3 to 8 points, Euclidean in R^3 or shortest paths of random
1..9 edge weights (on the complete graph, or on a circulant or a Cayley
graph of Z_2^k, whose rows are permutations of each other). The root search
reads the circulants' spectra off an FFT and the Z_2^k metrics' off a
Walsh-Hadamard transform, and a relabelled copy, which in general has
neither structure, off the joint spectrum of its distance classes (dense
inputs off the dense source), so the relabelling property pits them against
each other. Relabelled circulant graphs of up to 64 vertices check the
class spectrum against the dense source consumer by consumer."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import dense_copy

from roundness import (
    Graph,
    build_metric_space,
    check_negative_type,
    gen_family,
    generalized_roundness,
    gr_inequality_check,
    kernel_coincidence_check,
    path_metric,
)
from roundness.errors import DisconnectedError
from roundness import negtype
from roundness.metric import power_matrix
from roundness.negtype import (
    CERTIFICATE_TOL,
    CLASS_FORM_LIMIT,
    METHOD_DETERMINANT_FAST_PATH,
    _class_form_matrix,
    _class_forms,
    _itp,
    _space_search,
    negtype_form_matrix,
    roundness_search,
)

P_MAX = 64.0
TOL_P = 1e-9


def shortest_paths(w: np.ndarray) -> np.ndarray:
    d = w.astype(float)
    for k in range(len(d)):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


@st.composite
def euclidean(draw):
    points = draw(st.lists(st.tuples(*[st.integers(0, 9)] * 3), min_size=3, max_size=7,
                           unique=True))
    x = np.array(points, dtype=float)
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))


@st.composite
def weighted_graph(draw):
    n = draw(st.integers(3, 7))
    weights = draw(st.lists(st.integers(1, 9), min_size=n * (n - 1) // 2,
                            max_size=n * (n - 1) // 2))
    w = np.zeros((n, n), dtype=int)
    for (i, j), x in zip(itertools.combinations(range(n), 2), weights):
        w[i, j] = w[j, i] = x
    return shortest_paths(w)


@st.composite
def weighted_circulant(draw):
    n = draw(st.integers(3, 7))
    weights = draw(st.lists(st.integers(1, 9), min_size=n // 2, max_size=n // 2))
    offset = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    offset = np.minimum(offset, n - offset)  # 0..n//2
    return shortest_paths(np.array([0, *weights])[offset])


@st.composite
def weighted_cube_order(draw):
    """Shortest paths on the Cayley graph of Z_2^k, k = 2 or 3, with a
    weight 1..9 on each nonzero element: d[i, j] = f(i xor j)."""
    n = 1 << draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    x = np.arange(n)
    return shortest_paths(np.array([0, *weights])[x[:, None] ^ x[None, :]])


metrics = st.one_of(euclidean(), weighted_graph(), weighted_circulant(), weighted_cube_order())
scales = st.floats(1e-3, 1e3)
# the root search and the D_q checks run on d / max d, so q is the same over
# the whole float range
wide_scales = st.floats(1e-100, 1e100)


def relabelled(d: np.ndarray, perm) -> np.ndarray:
    return d[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None)
@given(d=metrics, c=wide_scales, data=st.data())
def test_roundness_invariant_under_relabelling_and_scaling(d, c, data):
    perm = data.draw(st.permutations(range(len(d))))
    res = generalized_roundness(build_metric_space(d))
    for other in (relabelled(d, perm), c * d):
        got = generalized_roundness(build_metric_space(other))
        assert (got.status, got.method) == (res.status, res.method)
        if res.status == "Finite":
            assert got.q == pytest.approx(res.q, abs=1e-6)


@st.composite
def relabelled_circulant_graph(draw):
    """The path metric of circulant:N:S, N <= 64, relabelled at random so
    that it has no row-0 order left."""
    n = draw(st.integers(5, 64))
    offsets = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    assume(math.gcd(n, *offsets) == 1)
    perm = draw(st.permutations(range(n)))
    sp = build_metric_space(relabelled(path_metric(gen_family("circulant", n, offsets)).dist, perm))
    assume(sp.order is None)
    return sp


@settings(max_examples=25, deadline=None)
@given(sp=relabelled_circulant_graph())
def test_relabelled_circulant_reads_its_class_spectrum(sp):
    # the distance classes of a circulant commute under any labelling
    assert sp.classes is not None
    dense = dense_copy(sp)
    res, ref = generalized_roundness(sp), generalized_roundness(dense)
    assert res.status == ref.status
    if res.status != "Finite":
        return
    assert abs(res.q - ref.q) <= 1e-9
    got, want = kernel_coincidence_check(sp, res.q), kernel_coincidence_check(dense, ref.q)
    assert (got.holds, got.form_kernel_dim, got.matrix_kernel_dim) \
        == (want.holds, want.form_kernel_dim, want.matrix_kernel_dim)
    assert (res.certificate is None) == (ref.certificate is None)
    if res.certificate is not None:
        # a degenerate null space has no one certificate: each must be a unit
        # zero-sum null vector of D_q
        dq = power_matrix(sp.dist / sp.dist.max(), res.q)
        for cert in (res.certificate, ref.certificate):
            assert abs(np.linalg.norm(cert) - 1) <= 1e-12 and abs(cert.sum()) <= 1e-9
            assert np.abs(dq @ cert).max() <= CERTIFICATE_TOL


@settings(max_examples=60, deadline=None)
@given(d=st.one_of(weighted_circulant(), weighted_cube_order()), c=wide_scales)
def test_det_normalized_vanishes_at_every_scale(d, c):
    for dist in (d, c * d):
        res = generalized_roundness(build_metric_space(dist))
        assert res.method == METHOD_DETERMINANT_FAST_PATH
        if res.status == "Finite":
            assert 0 <= res.det_normalized <= 1e-6


@settings(max_examples=80, deadline=None)
@given(d=metrics)
def test_bracket_ends_decide_negative_type(d):
    sp = build_metric_space(d)
    res = generalized_roundness(sp, p_max=P_MAX)
    if res.status == "Unbounded":
        assert check_negative_type(sp, P_MAX).holds
        return
    lo, hi = res.bracket
    assert check_negative_type(sp, lo).holds
    assert check_negative_type(sp, lo / 2).holds
    assert not check_negative_type(sp, hi).holds
    if 2 * hi <= P_MAX:
        assert not check_negative_type(sp, 2 * hi).holds


def doubled_bracket(p_hi: float, p_max: float = P_MAX) -> tuple[float, float]:
    """The bracket the doubling probes 1, 2, 4, ... (capped at p_max) had
    found when the search ended at (p_lo, p_hi)."""
    lo, hi = 0.0, 1.0
    while hi < p_hi:
        lo, hi = hi, min(2 * hi, p_max)
    return lo, hi


def itp_bound(p_hi: float, p_max: float = P_MAX, tol_p: float = TOL_P) -> int:
    """Bisection's step count on the doubled bracket, plus ITP's n_0 = 1."""
    lo, hi = doubled_bracket(p_hi, p_max)
    return math.ceil(math.log2((hi - lo) / tol_p)) + 1


@settings(max_examples=80, deadline=None)
@given(d=metrics)
def test_search_keeps_the_bisection_step_bound(d):
    res = generalized_roundness(build_metric_space(d), p_max=P_MAX, tol_p=TOL_P)
    if res.status == "Finite":
        assert res.iterations <= itp_bound(res.bracket[1])


@settings(max_examples=200, deadline=None)
@given(root=st.floats(0.0, P_MAX, exclude_min=True, exclude_max=True),
       tol_p=st.floats(1e-12, 1e-2),
       values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50))
# a positive value at every probe pins the regula falsi point to p_lo, so
# every step below the root lands on the edge of ITP's projection ball; with
# w0 / tol_p a power of two the bound has no slack for a probe past that edge
@example(root=1 - 2.0**-40, tol_p=2.0**-30, values=[1.0])
@example(root=63.9, tol_p=1e-9, values=[1.0])
def test_itp_step_bound_holds_whatever_values_it_is_sent(root, tol_p, values):
    # the values only place probes, so even values unrelated to the
    # predicate (or of the wrong sign) cannot cost more than n_half + 1 steps
    search = _itp(P_MAX, tol_p)
    p = next(search)
    with pytest.raises(StopIteration) as stop:
        for step in range(100):
            p = search.send((p <= root, values[step % len(values)]))
    q, (lo, hi), iterations = stop.value.value
    assert lo <= root < hi and hi - lo <= tol_p and q == (lo + hi) / 2
    assert iterations <= itp_bound(hi, tol_p=tol_p)


@settings(max_examples=80, deadline=None)
@given(d=metrics, c=scales, p=st.floats(0.0, 4.0), data=st.data())
def test_gr_inequality_verdict_invariant_under_scaling(d, c, p, data):
    points = st.lists(st.integers(0, len(d) - 1), min_size=1, max_size=4)
    a = data.draw(points)
    b = data.draw(st.lists(st.integers(0, len(d) - 1), min_size=len(a), max_size=len(a)))
    verdict = gr_inequality_check(build_metric_space(d), p, a, b).holds
    assert gr_inequality_check(build_metric_space(c * d), p, a, b).holds == verdict


@st.composite
def cayley_graph(draw):
    """A connected circulant on n <= 40 vertices, or a connected Cayley graph
    of Z_2^k, k <= 5 (i ~ i xor s for s in a generating set)."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 40))
        offsets = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
        assume(math.gcd(n, *offsets) == 1)
        return gen_family("circulant", n, sorted(offsets))
    n = 1 << draw(st.integers(1, 5))
    gens = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
    return Graph(n, tuple(sorted({(i, i ^ s) for i in range(n) for s in gens if i < i ^ s})))


def unit_power(sp, p):
    return power_matrix(sp.dist / sp.dist.max(), p)


def assert_unit_zero_sum(u, dq):
    """u is a unit zero-sum vector with max |D u - (u^T D u) u| within
    CERTIFICATE_TOL, computed on the dense matrix D = dq."""
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(u)) <= 1e-9
    assert np.max(np.abs(dq @ u - (u @ dq @ u) * u)) <= CERTIFICATE_TOL


@settings(max_examples=60, deadline=None)
@given(g=cayley_graph(), data=st.data())
def test_structured_consumers_agree_with_dense(g, data):
    # the path metric of a Cayley graph of Z_n or Z_2^k is read on row 0; a
    # relabelled copy held to the dense source takes every dense path
    try:
        sp = path_metric(g)
    except DisconnectedError:
        assume(False)
    assert sp.order is not None
    perm = data.draw(st.permutations(range(sp.n)))
    dense = dense_copy(build_metric_space(relabelled(sp.dist, perm)))
    res, res_dense = generalized_roundness(sp), generalized_roundness(dense)
    assert res.status == res_dense.status
    exponents = [1.0, 1.5, 2.0]
    if res.status == "Finite":
        q = res.q
        assert res_dense.q == pytest.approx(q, abs=1e-9)
        exponents.append(q / 2)
        # the dense measure at the same q: min |eigenvalue| / max |eigenvalue|
        # of D_q, whose rounding is about n eps of its largest eigenvalue
        magnitudes = np.abs(np.linalg.eigvalsh(unit_power(dense, q)))
        dense_det = magnitudes.min() / magnitudes.max()
        assert abs(res.det_normalized - dense_det) <= 1e-6 * dense_det + 4 * sp.n * 2.0**-52
        for result, metric in ((res, sp), (res_dense, dense)):
            dq = unit_power(metric, q)
            assert_unit_zero_sum(result.certificate, dq)
            assert np.max(np.abs(dq @ result.certificate)) <= CERTIFICATE_TOL
        kernel, kernel_dense = kernel_coincidence_check(sp, q), kernel_coincidence_check(dense, q)
        assert (kernel.holds, kernel.form_kernel_dim, kernel.matrix_kernel_dim) == (
            kernel_dense.holds, kernel_dense.form_kernel_dim, kernel_dense.matrix_kernel_dim)
    for p in exponents:
        verdict, verdict_dense = check_negative_type(sp, p), check_negative_type(dense, p)
        assert (verdict.holds, verdict.strict) == (verdict_dense.holds, verdict_dense.strict), p
        if verdict.witness is not None:
            # the witness attains the largest form value, in the unit of d
            assert_unit_zero_sum(verdict.witness.eta, unit_power(sp, p))
            assert abs(verdict.witness.form_value - verdict_dense.max_form_eigenvalue) <= (
                1e-9 * sp.n * sp.dist.max() ** p)


@settings(max_examples=150, deadline=None)
@given(d=metrics, p=st.floats(0.0, 4.0), data=st.data())
def test_every_record_holds_the_eigenvalue_of_one_then_the_form(d, p, data):
    # one layout on every source: entry 0 is the eigenvalue of 1, the
    # largest row sum of D_p, and the entries after it, each repeated by its
    # multiplicity, are the spectrum of M(p) = B^T D_p B; a relabelled copy
    # takes the class source or the dense one
    if data.draw(st.booleans()):
        d = relabelled(d, data.draw(st.permutations(range(len(d)))))
    sp = build_metric_space(d)
    record = negtype._source(sp)(p)
    assert record.values[0] == pytest.approx(unit_power(sp, p).sum(axis=1).max(), rel=1e-12)
    form = np.linalg.eigvalsh(negtype_form_matrix(sp.dist / sp.dist.max(), p))
    values = np.sort(np.repeat(record.values[1:], record.multiplicities[1:]))
    assert values.shape == form.shape
    assert np.abs(values - form).max() <= 1e-12 * np.abs(form).max()
    top = record.modes([1 + int(record.values[1:].argmax())])[:, 0]
    assert abs(np.linalg.norm(top) - 1) <= 1e-12 and abs(top.sum()) <= 1e-12


@st.composite
def integer_stacks(draw, metrics=False):
    """An (m, k, k) stack of symmetric matrices with zero diagonal and
    off-diagonal entries in 1..s, s <= CLASS_FORM_LIMIT, not all of them
    metrics, or with `metrics` in ceil(s/2)..s, where any two entries sum
    to at least a third, so every matrix is a metric; and one exponent per
    matrix drawn from 0, 0.5, 1, 2 and 3.7, where `**` takes its fast paths
    and where it does not."""
    s = draw(st.integers(1, CLASS_FORM_LIMIT))
    k = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    i, j = np.triu_indices(k, 1)
    least = (s + 1) // 2 if metrics else 1
    entries = draw(st.lists(st.integers(least, s), min_size=m * len(i), max_size=m * len(i)))
    stack = np.zeros((m, k, k))
    stack[:, i, j] = np.reshape(entries, (m, len(i)))
    p = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]), min_size=m, max_size=m))
    return stack + stack.transpose(0, 2, 1), np.array(p)


@settings(max_examples=150, deadline=None)
@given(case=integer_stacks())
def test_class_forms_give_the_powered_form(case):
    """The stacked search's M(p) from the class forms, built once, equals
    the form of D_p of d / max d, built from scratch, matrix by matrix."""
    d, p = case
    got, _, _ = _class_form_matrix(_class_forms(d), p)
    for a, dj, pj in zip(got, d, p):
        b = negtype_form_matrix(dj / dj.max(), pj)
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@settings(max_examples=150, deadline=None)
@given(case=integer_stacks())
def test_class_form_invariants_give_trace_and_frobenius_norm(case):
    """The invariants the stacked search holds each step's eigenvalues to,
    tr M(p) = sum_v w_v^p tr F_v and ||M(p)||_F^2 = w^T G w, built from the
    class forms, are the trace and the squared Frobenius norm of the form
    of D_p of d / max d, built from scratch, matrix by matrix."""
    d, _ = case
    classes = _class_forms(d)
    for p in (0.0, 0.5, 1.0, 2.0, 3.7, 64.0):
        _, traces, squares = _class_form_matrix(classes, np.full(len(d), p))
        for dj, trace, square in zip(d, traces, squares):
            b = negtype_form_matrix(dj / dj.max(), p)
            assert abs(trace - np.trace(b)) <= 1e-12 * abs(np.trace(b))
            assert abs(square - np.sum(b * b)) <= 1e-12 * np.sum(b * b)


@settings(max_examples=100, deadline=None)
@given(case=integer_stacks(metrics=True))
def test_stacked_search_agrees_with_dense_search(case):
    """The stacked search on class forms, which powers no distance matrix
    and builds no dense form, gives each member the status of the
    one-space search of its dense copy, and a q within TOL_P of it."""
    d, _ = case
    with mock.patch.object(negtype, "power_matrix", side_effect=AssertionError), \
            mock.patch.object(negtype, "negtype_form_matrix", side_effect=AssertionError):
        found = roundness_search(d, p_max=P_MAX, tol_p=TOL_P)
    for dj, got in zip(d, found):
        want = _space_search(dense_copy(build_metric_space(dj)), P_MAX, TOL_P, 1e-9)
        assert (got is None) == (want is None)
        if got is not None:
            assert abs(got[0] - want[0]) <= TOL_P
