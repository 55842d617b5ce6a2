import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLEET_Q, dense_copy, truncated_tetrahedron

from roundness import (
    build_metric_space,
    check_negative_type,
    cube_distance_matrix,
    gen_family,
    generalized_roundness,
    gr_inequality_check,
    kernel_coincidence_check,
    load_solid,
    path_metric,
    scan_subsets,
    subset_metric,
)
from roundness.errors import (
    BadParamsError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeEntryError,
    NonFiniteMatrixError,
)
from roundness import cli, metric, negtype, spectral
from roundness.metric import has_row_permutation_property, power_matrix
from roundness.negtype import (
    METHOD_DETERMINANT_FAST_PATH,
    METHOD_SPECTRAL_BISECTION,
    negtype_form_matrix,
    roundness_search,
)

P3_MATRIX = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def space(spec):
    """The path metric of a graph spec: family:n, circulant:n:s1,s2,... or
    a solid's name."""
    family, *params = spec.split(":")
    if family in ("dodecahedron", "icosahedron"):
        return path_metric(load_solid(family))
    if family == "circulant":
        return path_metric(gen_family(family, int(params[0]), map(int, params[1].split(","))))
    return path_metric(gen_family(family, *map(int, params)))


def relative_min_eigenvalue(a):
    """min |eigenvalue| / max |eigenvalue| of a symmetric matrix: the
    measure `det_normalized` reports for D_q."""
    magnitudes = np.abs(np.linalg.eigvalsh(a))
    return magnitudes.min() / magnitudes.max()


def test_form_matrix_two_points():
    sp = build_metric_space([[0, 1], [1, 0]])
    m = negtype_form_matrix(sp, 1.0)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_form_matrix_p0_is_minus_identity():
    for sp in (space("cycle:5"), space("petersen")):
        m = negtype_form_matrix(sp, 0.0)
        assert np.max(np.abs(m + np.eye(sp.n - 1))) <= 1e-12


def test_form_matrix_h2_max_eigenvalue_zero():
    sp = space("hypercube:2")
    m = negtype_form_matrix(sp, 1.0)
    assert m.shape == (3, 3)
    assert np.max(np.linalg.eigvalsh(m)) == pytest.approx(0.0, abs=1e-12)


def test_check_negative_type_h2_equality_case():
    verdict = check_negative_type(space("hypercube:2"), 1.0)
    assert verdict.holds and not verdict.strict
    eta = verdict.witness.eta
    assert np.allclose(np.abs(eta), 0.5, atol=1e-9)
    assert abs(eta @ [1, -1, -1, 1]) == pytest.approx(2.0, abs=1e-9)
    assert abs(verdict.witness.form_value) <= 1e-12


def test_check_negative_type_constant_distances_always_strict():
    verdict = check_negative_type(space("complete:3"), 10.0)
    assert verdict.holds and verdict.strict
    assert verdict.max_form_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    assert verdict.witness is None


def test_check_negative_type_two_points_p0():
    sp = build_metric_space([[0, 1], [1, 0]])
    verdict = check_negative_type(sp, 0.0)
    assert verdict.holds and verdict.strict


def test_check_negative_type_violation_has_positive_witness():
    verdict = check_negative_type(space("hypercube:2"), 1.5)
    assert not verdict.holds
    assert verdict.witness.form_value > 0
    assert abs(np.sum(verdict.witness.eta)) <= 1e-9
    assert np.linalg.norm(verdict.witness.eta) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complete_graphs_unbounded(n):
    res = generalized_roundness(space(f"complete:{n}"))
    assert res.status == "Unbounded"
    assert res.q is None and res.bracket is None and res.certificate is None


@pytest.mark.parametrize("params", [
    {"tol_p": 0.0}, {"tol_p": -1.0}, {"tol_p": float("nan")}, {"tol_p": float("inf")},
    {"tol_eig": -1.0}, {"tol_eig": float("nan")},
    {"p_max": 0.0}, {"p_max": -1.0}, {"p_max": float("inf")},
])
def test_roundness_rejects_bad_search_params(params):
    with pytest.raises(BadParamsError):
        generalized_roundness(space("cycle:5"), **params)


@pytest.mark.parametrize("call", [
    lambda sp: check_negative_type(sp, 1.0, tol_eig=float("nan")),
    lambda sp: check_negative_type(sp, 1.0, tol_eig=-1.0),
    lambda sp: gr_inequality_check(sp, 1.0, [0], [1], tol=float("nan")),
    lambda sp: gr_inequality_check(sp, 1.0, [0], [1], tol=-1.0),
    lambda sp: gr_inequality_check(sp, 1.0, [0], [1], tol=float("inf")),
], ids=["negtype-tol_eig-nan", "negtype-tol_eig-negative", "inequality-tol-nan",
        "inequality-tol-negative", "inequality-tol-inf"])
def test_bad_tolerances_rejected_before_any_solve(monkeypatch, call):
    def fail(*args, **kwargs):
        raise AssertionError("a spectrum source was built")

    # every spectrum, on row 0 (cycle:4 is circulant) or dense, comes from a source
    monkeypatch.setattr(negtype, "_source", fail)
    with pytest.raises(BadParamsError):
        call(space("cycle:4"))


def test_stacked_search_mixes_finite_and_unbounded_members():
    # 4-point metrics that stop at different steps: during doubling (K4),
    # and after bisections from different brackets; then 5-point metrics,
    # among them a path and a cube subset, whose single searches solve the
    # dense form M(p) while the stacked search sums its class forms
    stacks = [[space("cycle:4"), space("complete:4"), space("hypercube:2"),
               build_metric_space([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]),
               space("complete_bipartite:2")],
              [space("cycle:5"), space("complete:5"),
               build_metric_space([[abs(i - j) for j in range(5)] for i in range(5)]),
               subset_metric(3, (0, 1, 2, 4, 7))]]
    statuses = []
    for spaces in stacks:
        found = roundness_search(np.stack([sp.dist for sp in spaces]))
        for sp, f in zip(spaces, found):
            single = generalized_roundness(sp)
            statuses.append(single.status)
            got = ("Unbounded", None, None, 0) if f is None else ("Finite", *f)
            assert got == (single.status, single.q, single.bracket, single.iterations)
    assert statuses.count("Unbounded") == 2 and statuses.count("Finite") == 7


def test_stacked_search_raises_what_the_single_search_raises():
    good = space("cycle:5").dist
    bad = good.copy()
    bad[0, 2] = bad[2, 0] = np.inf
    with pytest.raises(NonFiniteMatrixError) as single:
        roundness_search(bad[None])
    with pytest.raises(type(single.value)) as stacked:
        roundness_search(np.stack([good, bad, good]))
    assert str(stacked.value) == str(single.value)
    with pytest.raises(BadParamsError):
        roundness_search(np.stack([good]), tol_p=0.0)
    assert roundness_search(np.empty((0, 3, 3))) == []


def test_stacked_search_picks_class_forms_for_few_distances(monkeypatch, caplog):
    # few distances, as in every cube scan: the class forms are built once
    # and no step builds D_p or its form; many distances, as in Euclidean
    # metrics: the stack is rejected before any eigensolve
    dense, steps = [], []
    eigvals = negtype._eigvals

    def counted(name):
        call = getattr(negtype, name)

        def recorded(*args):
            dense.append(name)
            return call(*args)

        return recorded

    def counted_steps(a):
        steps.append(len(a))
        return eigvals(a)

    for name in ("negtype_form_matrix", "power_matrix"):
        monkeypatch.setattr(negtype, name, counted(name))
    monkeypatch.setattr(negtype, "_eigvals", counted_steps)
    caplog.set_level(logging.DEBUG, logger="roundness")
    scan_subsets(4, max_size=3)
    assert dense == [] and steps
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lock-step")]
    assert line == f"lock-step search: 6 members, 4 classes, {len(steps)} steps, " \
                   f"{sum(steps)} member-steps"
    caplog.clear()
    steps.clear()
    stack = np.stack([euclidean_space(30, seed=seed).dist for seed in (1, 2, 3)])
    with pytest.raises(BadParamsError, match="at most 8 distinct distances"):
        roundness_search(stack)
    assert dense == [] and steps == []
    assert roundness_search(np.empty((0, 3, 3))) == []
    assert [r.getMessage() for r in caplog.records] \
        == ["lock-step search: 0 members, 0 classes, 0 steps, 0 member-steps"]


@pytest.mark.parametrize("stack, error", [
    ([[[0, -1, 2], [-1, 0, 1], [2, 1, 0]]], NegativeEntryError),
    ([[[0, 2], [2, 0]], [[0, 0], [0, 0]]], BadParamsError),
    (np.zeros((1, 1, 1)), BadParamsError),
    ([[[5.0]]], BadParamsError),
    ([[0, 1], [1, 0]], BadParamsError),
])
def test_stacked_search_rejects_bad_stacks_before_any_solve(monkeypatch, stack, error):
    # a negative distance, a member with no positive distance or a stack of
    # anything but matrices of 2 or more points has no roundness to find
    def fail(*args):
        raise AssertionError("eigensolve before the stack was checked")

    monkeypatch.setattr(negtype, "_eigvals", fail)
    with pytest.raises(error):
        roundness_search(np.array(stack, dtype=float))


def test_search_needs_few_evaluations(monkeypatch):
    # ITP: doubling plus about 7 steps where bisection took 30
    spaces = [space(s) for s in ("cycle:5", "petersen", "hypercube:4", "hypercube:5",
                                 "cycle:25")] + [euclidean_space(24)]
    calls = []
    source = negtype._source

    def counted(metric):
        at = source(metric)

        def evaluation(p):
            calls.append(1)
            return at(p)

        return evaluation

    # each step of the search, on row 0 or dense, takes one source
    monkeypatch.setattr(negtype, "_source", counted)
    evaluations = []
    for sp in spaces:
        calls.clear()
        assert negtype._space_search(sp, 64.0, 1e-9, 1e-9) is not None
        evaluations.append(len(calls))
    assert np.median(evaluations) <= 12, evaluations


def euclidean_space(n, seed=4):
    """The distances of n seeded Gaussian points in R^3: roundness 2."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return build_metric_space(np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1)))


def weighted_graph_space(n, seed=9):
    """Shortest paths on the complete graph with seeded integer weights 1..9."""
    w = np.triu(np.random.default_rng(seed).integers(1, 10, size=(n, n)), 1).astype(float)
    d = w + w.T
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k])
    return build_metric_space(d)


def relabelled(sp):
    """`sp` with vertices 1 and 2 swapped: on the graphs used here, neither
    circulant nor in cube order, so every consumer reads the spectrum of its
    distance classes."""
    perm = np.arange(sp.n)
    perm[[1, 2]] = [2, 1]
    return build_metric_space(sp.dist[np.ix_(perm, perm)])


# (q, bracket, ITP iterations) of `generalized_roundness`, as float.hex, on
# the spaces of the benchmark's fleet_q workload (its two seeded families
# drawn here from numpy seeds) and on a dense 256-point space that takes 31
# ITP steps
GOLDEN_DECISIONS = {
    "cycle:5": ("0x1.6373ad2140800p+0", ("0x1.6373ad1f89000p+0", "0x1.6373ad22f8000p+0"), 11),
    "petersen": ("0x1.0000000822800p+0", ("0x1.00000006f9000p+0", "0x1.000000094c000p+0"), 7),
    "icosahedron": ("0x1.0000000a4f000p+0", ("0x1.00000008d6000p+0", "0x1.0000000bc8000p+0"), 7),
    "dodecahedron": ("0x1.0000000dfe000p+0", ("0x1.0000000dec000p+0", "0x1.0000000e10000p+0"), 5),
    "hypercube:4": ("0x1.0000000c76000p+0", ("0x1.0000000c64000p+0", "0x1.0000000c88000p+0"), 5),
    "hypercube:5": ("0x1.0000001052000p+0", ("0x1.0000001040000p+0", "0x1.0000001064000p+0"), 5),
    "circulant:24:1,5": ("0x1.a8ff972b90000p-2", ("0x1.a8ff9728d0000p-2", "0x1.a8ff972e50000p-2"),
                         8),
    "cycle:25": ("0x1.0342d32594000p+0", ("0x1.0342d32450000p+0", "0x1.0342d326d8000p+0"), 8),
    "eucl:24": ("0x1.0000000a32000p+1", ("0x1.0000000984000p+1", "0x1.0000000ae0000p+1"), 8),
    "wgraph:24": ("0x1.0b98abcbd4000p-1", ("0x1.0b98abc998000p-1", "0x1.0b98abce10000p-1"), 10),
    "relabelled circulant:256:1,5": ("0x1.c1d13c9800000p-2",
                                     ("0x1.c1d13c9000000p-2", "0x1.c1d13ca000000p-2"), 31),
}


@pytest.mark.parametrize("name", GOLDEN_DECISIONS)
def test_search_decisions_are_golden(name):
    # every probe, bracket end and step count of the search, bit for bit
    if name == "eucl:24":
        sp = euclidean_space(24)
    elif name == "wgraph:24":
        sp = weighted_graph_space(24)
    elif name.startswith("relabelled "):
        sp = relabelled(space(name.split()[1]))
    else:
        sp = space(name)
    res = generalized_roundness(sp)
    assert (res.q.hex(), tuple(x.hex() for x in res.bracket), res.iterations) \
        == GOLDEN_DECISIONS[name]


@pytest.mark.parametrize("make", [lambda: path_metric(truncated_tetrahedron()),
                                  lambda: euclidean_space(24)],
                         ids=["truncated_tetrahedron", "eucl:24"])
def test_dense_search_and_strict_verdict_solve_for_values_only(monkeypatch, make):
    # the search and a strict verdict read eigenvalues alone; only a witness
    # asks for modes, and then `eigensym` runs once: on D_p for the truncated
    # tetrahedron, whose rows are permutations of each other, on M(p) for
    # the Euclidean space
    sp = make()
    assert sp.order is None and sp.classes is None
    calls = []
    eigensym = negtype.eigensym

    def counted(a):
        calls.append(a.shape)
        return eigensym(a)

    monkeypatch.setattr(negtype, "eigensym", counted)
    found = negtype._space_search(sp, 64.0, 1e-9, 1e-9)
    q, _, _ = found
    assert check_negative_type(sp, q / 2).strict
    assert calls == []
    verdict = check_negative_type(sp, q + 0.5)
    assert not verdict.strict and verdict.witness is not None
    k = sp.n if has_row_permutation_property(sp) else sp.n - 1
    assert calls == [(k, k)]


# the graphs of the benchmark's fleet_q workload, and three larger ones;
# the circulants and cubes among them take the row-0 source, the others the
# spectrum of their commuting distance classes
STRUCTURED = ["cycle:5", "hypercube:4", "hypercube:5", "circulant:24:1,5", "cycle:25",
              "cycle:400", "circulant:256:1,5", "hypercube:8"]
GENERIC = ["petersen", "icosahedron", "dodecahedron"]


@pytest.mark.parametrize("spec", STRUCTURED + GENERIC)
def test_structured_search_agrees_with_dense_search(monkeypatch, spec):
    # relabelled, each of these spaces is neither circulant nor in cube
    # order, and its search reads the spectrum of its distance classes; the
    # search of a dense copy, which solves D_p densely, is the reference for
    # both
    kinds = []
    source = negtype._source

    def counted(metric):
        at = source(metric)

        def recorded(p):
            src = at(p)
            kinds.append(type(src).__name__)
            return src

        return recorded

    monkeypatch.setattr(negtype, "_source", counted)
    sp = space(spec)
    moved = relabelled(sp)
    found = negtype._space_search(sp, 64.0, 1e-9, 1e-9)
    assert set(kinds) == {"_Row0Source" if spec in STRUCTURED else "_ClassSource"}
    kinds.clear()
    found_moved = negtype._space_search(moved, 64.0, 1e-9, 1e-9)
    assert set(kinds) == {"_ClassSource"}
    q_dense, (lo_dense, hi_dense), _ = negtype._space_search(dense_copy(moved), 64.0, 1e-9, 1e-9)
    for q, (lo, hi), _ in (found, found_moved):
        assert abs(q - q_dense) <= 1e-9
        assert lo <= hi_dense and lo_dense <= hi


@pytest.mark.parametrize("spec", GENERIC + ["relabelled hypercube:6", "relabelled cycle:64"])
def test_class_source_agrees_with_dense_source(spec):
    # every consumer, on the class source and on the dense one
    sp = relabelled(space(spec.split()[1])) if spec.startswith("relabelled ") else space(spec)
    dense = dense_copy(sp)
    assert sp.order is None and sp.classes is not None
    res, ref = generalized_roundness(sp), generalized_roundness(dense)
    assert abs(res.q - ref.q) <= 1e-9
    assert res.method == ref.method == METHOD_DETERMINANT_FAST_PATH
    assert res.det_normalized <= 1e-6 and ref.det_normalized <= 1e-6
    dq = power_matrix(sp.dist / sp.dist.max(), res.q)
    for cert in (res.certificate, ref.certificate):
        assert abs(np.linalg.norm(cert) - 1) <= 1e-12 and abs(cert.sum()) <= 1e-9
        assert np.abs(dq @ cert).max() <= 1e-6
    got, want = kernel_coincidence_check(sp, res.q), kernel_coincidence_check(dense, res.q)
    assert got.holds and want.holds
    assert (got.form_kernel_dim, got.matrix_kernel_dim) \
        == (want.form_kernel_dim, want.matrix_kernel_dim)
    for p in (res.q / 2, res.q + 0.5):
        a, b = check_negative_type(sp, p), check_negative_type(dense, p)
        assert (a.holds, a.strict) == (b.holds, b.strict)
        assert a.max_form_eigenvalue == pytest.approx(b.max_form_eigenvalue, rel=1e-12)
        if a.witness is not None:
            assert a.witness.form_value == pytest.approx(b.witness.form_value, rel=1e-9)


@pytest.mark.parametrize("make", [lambda: path_metric(truncated_tetrahedron()),
                                  lambda: dense_copy(relabelled(space("circulant:24:1,5")))],
                         ids=["truncated_tetrahedron", "dense relabelled circulant:24:1,5"])
def test_dense_row_permutation_spectrum_is_the_form_after_r(make):
    # on a row-permutation space the dense source solves D_p alone; M(p),
    # built and solved independently, is the reference for its tail
    sp = make()
    assert sp.order is None and sp.classes is None and has_row_permutation_property(sp)
    res = generalized_roundness(sp)
    unit = sp.dist / sp.dist.max()
    for p in (res.q / 2, res.q, res.q + 0.5):
        values = negtype._source(sp)(p).spectrum.values
        assert values[0] == pytest.approx(power_matrix(unit, p)[0].sum(), rel=1e-12)
        form = spectral._eigvals(negtype_form_matrix(unit, p))
        assert np.abs(values[1:] - form).max() <= 1e-12 * np.abs(form).max()
    report = kernel_coincidence_check(sp, res.q)
    form = spectral._eigvals(negtype_form_matrix(unit, res.q))
    null = int(np.count_nonzero(np.abs(form) <= negtype.CERTIFICATE_TOL))
    assert report.holds and report.form_kernel_dim == report.matrix_kernel_dim == null


@pytest.mark.parametrize("spec", GENERIC)
def test_class_spaces_make_one_eigh_and_no_solve_per_step(monkeypatch, spec):
    # the joint spectrum of the distance classes costs one n x n `eigh` per
    # space; no search step, verdict, certificate or kernel check solves
    sp = space(spec)
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(negtype, "eigensym", fail)
    monkeypatch.setattr(negtype, "_eigvals", fail)
    res = generalized_roundness(sp)
    assert res.certificate is not None and 0 <= res.det_normalized <= 1e-6
    assert kernel_coincidence_check(sp, res.q).holds
    for p in (res.q / 2, res.q + 0.5):
        verdict = check_negative_type(sp, p)
        assert verdict.strict == (p < res.q)
    assert shapes == [(sp.n, sp.n)]


@pytest.mark.parametrize("make", [lambda: path_metric(truncated_tetrahedron()),
                                  lambda: euclidean_space(24),
                                  lambda: weighted_graph_space(24)],
                         ids=["truncated_tetrahedron", "eucl:24", "wgraph:24"])
def test_class_detector_declines(monkeypatch, make):
    # the truncated tetrahedron's rows are permutations of each other, but
    # its distance classes do not commute; the two seeded spaces' rows are
    # not permutations, so they are declined before any detection runs
    sp = make()
    detect = metric._class_spectrum
    runs = []

    def spy(a):
        runs.append(len(a))
        return detect(a)

    monkeypatch.setattr(metric, "_class_spectrum", spy)
    assert sp.classes is None
    assert runs == ([12] if has_row_permutation_property(sp) else [])


@pytest.mark.parametrize("tol_p", [1e-17, 1e-300])
def test_search_ends_at_adjacent_floats_below_tol_p(tol_p):
    # below the float spacing the bracket cannot reach width tol_p; the
    # search must stop once its ends are adjacent floats
    search = negtype._itp(64.0, tol_p)
    p = next(search)
    for _ in range(200):
        try:
            p = search.send((p <= 1.3, p - 1.3))
        except StopIteration as stop:
            q, (p_lo, p_hi), _ = stop.value
            break
    else:
        pytest.fail("the search did not end within 200 probes")
    assert p_lo <= 1.3 < p_hi and np.nextafter(p_lo, np.inf) == p_hi and q in (p_lo, p_hi)
    res = generalized_roundness(space("cycle:5"), tol_p=tol_p)
    assert res.q == pytest.approx(generalized_roundness(space("cycle:5")).q, abs=1e-9)


@pytest.mark.parametrize("spec", ["cycle:5", "petersen", "hypercube:5", "cycle:25"])
def test_roundness_bit_identical_under_scaling(spec):
    d = space(spec).dist
    res = generalized_roundness(build_metric_space(d))
    for c in (1e-6, 1e-3, 0.25, 3.75, 1e3):
        scaled = generalized_roundness(build_metric_space(c * d))
        assert (scaled.q, scaled.bracket, scaled.iterations) == (res.q, res.bracket, res.iterations)


def test_tiny_distances_do_not_underflow():
    # q = 59.68: at p = 64 every power of 1e-6 * d underflows to 0 unless the
    # search divides d by its maximum first
    d = np.array([[0, 1, 1], [1, 0, 1.0235], [1, 1.0235, 0]])
    res = generalized_roundness(build_metric_space(d))
    tiny = generalized_roundness(build_metric_space(1e-6 * d))
    assert res.status == tiny.status == "Finite"
    assert res.q == pytest.approx(59.6817, abs=1e-4)
    assert tiny.q == pytest.approx(res.q, abs=1e-6)


def test_large_distances_do_not_overflow():
    with np.errstate(over="raise", invalid="raise"):
        res = generalized_roundness(build_metric_space(1e5 * space("complete:4").dist))
    assert res.status == "Unbounded"


def test_roundness_accepts_search_param_edges():
    assert generalized_roundness(space("cycle:5"), tol_eig=0.0).status == "Finite"
    assert generalized_roundness(space("cycle:5"), p_max=0.5).status == "Unbounded"


def test_fleet_roundness_matches_closed_forms(fleet):
    # cycle:5 - circulant symbol 2cos(4pi j/5)*2^p + 2cos(2pi j/5) vanishes
    #   first at 2^p = golden ratio squared, so q = 2 log2(phi)
    # complete_bipartite:3 - block spectrum gives 2*2^p - 3 = 0, q = log2(3/2)
    # petersen - adjacency eigenvalue -2 branch gives 2^p - 2 = 0, q = 1
    # even cycles and cubes sit at exactly 1
    for spec, expected in FLEET_Q.items():
        res = generalized_roundness(fleet[spec])
        assert res.status == "Finite", spec
        assert res.q == pytest.approx(expected, abs=1e-6), spec


def test_roundness_result_invariants(fleet):
    for spec, sp in fleet.items():
        res = generalized_roundness(sp)
        lo, hi = res.bracket
        assert hi - lo <= 1e-9
        assert res.q == (lo + hi) / 2
        assert res.method == METHOD_DETERMINANT_FAST_PATH
        assert res.iterations > 0
        u = res.certificate
        assert u is not None
        dq = power_matrix(sp, res.q)
        assert np.max(np.abs(dq @ u)) <= 1e-6 * max(1.0, np.max(np.abs(dq)))
        assert abs(np.sum(u)) <= 1e-9
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_four_cycle_is_relabelled_two_cube():
    perm = [0, 1, 3, 2]  # cycle order of the square's binary labels
    d2 = np.asarray(cube_distance_matrix(2), dtype=float)
    c4 = space("cycle:4")
    assert np.array_equal(c4.dist, d2[np.ix_(perm, perm)])


def test_row_perm_tolerance_is_relative():
    # sorted rows must agree within 1e-12 times the largest distance, at any
    # scale: a 1e-13-noisy 4-cycle passes, a 1e-10-noisy one does not
    eps = 1e-13
    close = np.array([[0, 1, 2 + eps, 1], [1, 0, 1, 2], [2 + eps, 1, 0, 1], [1, 2, 1, 0]])
    eps = 1e-10
    far = np.array([[0, 1 + eps, 2, 1], [1 + eps, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    for scale in (1e-3, 1.0, 1e3):
        sp = build_metric_space(scale * close)
        res = generalized_roundness(sp)
        assert res.method == METHOD_DETERMINANT_FAST_PATH
        assert kernel_coincidence_check(sp, res.q).holds
        sp = build_metric_space(scale * far)
        assert generalized_roundness(sp).method == METHOD_SPECTRAL_BISECTION
        with pytest.raises(HypothesisViolatedError):
            kernel_coincidence_check(sp, res.q)


def test_non_row_permutation_space_uses_spectral_path():
    sp = build_metric_space(P3_MATRIX)
    res = generalized_roundness(sp)
    assert res.method == METHOD_SPECTRAL_BISECTION
    assert res.certificate is None and res.det_normalized is None
    # the 3-point path nullifies its form at p = 2 with weights (1, -2, 1)
    assert res.q == pytest.approx(2.0, abs=1e-6)
    eta = np.array([1.0, -2.0, 1.0])
    assert eta @ power_matrix(sp, 2.0) @ eta == 0.0
    # tolerances are relative, so a tiny copy is neither taken for a
    # row-permutation space nor found to have negative type at every p
    tiny = generalized_roundness(build_metric_space(1e-13 * np.array(P3_MATRIX)))
    assert tiny.method == METHOD_SPECTRAL_BISECTION
    assert tiny.status == "Finite"
    assert tiny.q == pytest.approx(2.0, abs=1e-6)


def test_interval_property(fleet):
    for spec, sp in fleet.items():
        q = generalized_roundness(sp).q
        for p in (0.0, q / 2, q - 1e-8):
            assert check_negative_type(sp, p).holds, (spec, p)
        assert not check_negative_type(sp, q + 1e-6).holds, spec


def test_roundness_invariant_under_relabeling_and_scaling(fleet):
    rng = np.random.default_rng(17)
    for spec in ("cycle:5", "complete_bipartite:3"):
        sp = fleet[spec]
        q = generalized_roundness(sp).q
        d = np.asarray(sp.dist)
        perm = rng.permutation(sp.n)
        q_perm = generalized_roundness(build_metric_space(d[np.ix_(perm, perm)])).q
        assert q_perm == pytest.approx(q, abs=1e-6)
        for c in (1e-6, 1e-3, 0.25, 3.75, 1e3):
            q_scaled = generalized_roundness(build_metric_space(c * d)).q
            assert q_scaled == pytest.approx(q, abs=1e-6)


def test_determinant_fast_path_agreement(fleet):
    # det_normalized is min |eigenvalue| / max |eigenvalue| of D_q: about 0
    # at q, clearly not at q/2 (1.6e-3 on the 7-cube), and the same for
    # every unit of distance
    spaces = {**fleet, "hypercube:6": space("hypercube:6"), "hypercube:7": space("hypercube:7")}
    for spec, sp in spaces.items():
        readings = []
        for c in (1e-3, 1.0, 1e3):
            scaled = build_metric_space(c * sp.dist)
            res = generalized_roundness(scaled)
            at_q = relative_min_eigenvalue(power_matrix(scaled, res.q))
            assert res.det_normalized == pytest.approx(at_q, rel=1e-3)
            assert 0 <= res.det_normalized <= 1e-6, (spec, c)
            half = relative_min_eigenvalue(power_matrix(scaled, res.q / 2))
            assert half > 1e-6, (spec, c)
            readings.append((res.det_normalized, half))
        assert np.allclose(readings, readings[1], rtol=1e-3, atol=0), spec


def test_kernel_coincidence_fleet(fleet):
    for spec in ("hypercube:2", "cycle:4", "petersen"):
        sp = fleet[spec]
        res = generalized_roundness(sp)
        report = kernel_coincidence_check(sp, res.q)
        assert report.holds, spec
        assert report.max_defect <= 1e-6
        assert report.form_kernel_dim >= 1
        assert report.form_kernel_dim == report.matrix_kernel_dim


def test_hypercube_six_roundness_and_kernel_coincidence():
    cube = space("hypercube:6")  # 64 points, a 63x63 form
    res = generalized_roundness(cube)
    assert res.q == pytest.approx(1.0, abs=1e-6)
    assert kernel_coincidence_check(cube, res.q).holds


@pytest.mark.parametrize("spec", ["cycle:5", "cycle:400", "circulant:24:1,5", "hypercube:2",
                                  "hypercube:8", "complete_bipartite:4"])
def test_structured_consumers_make_no_eigensolve(monkeypatch, spec):
    # a circulant or cube-order space is read on row 0 by the search, the
    # certificate, the kernel check and the negative-type verdict
    sp = space(spec)
    assert sp.order is not None

    def fail(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(negtype, "eigensym", fail)
    monkeypatch.setattr(negtype, "_eigvals", fail)
    res = generalized_roundness(sp)
    assert res.certificate is not None and 0 <= res.det_normalized <= 1e-6
    assert kernel_coincidence_check(sp, res.q).holds
    for p in (res.q / 2, res.q + 0.5):
        verdict = check_negative_type(sp, p)
        assert verdict.strict == (p < res.q)


@pytest.mark.parametrize("spec", ["cycle:400", "hypercube:8"])
def test_consumers_read_the_cached_order(monkeypatch, capsys, spec):
    # a space detects its order once (`FiniteMetricSpace.order`); the search,
    # the verdict, the kernel check and `gr verify` read it and never run the
    # detector again
    sp = space(spec)
    assert sp.order is not None

    def fail(*args, **kwargs):
        raise AssertionError("the row-0 order was detected again")

    monkeypatch.setattr(negtype, "_row0_order", fail, raising=False)
    monkeypatch.setattr(spectral, "_row0_order", fail)
    res = generalized_roundness(sp)
    assert res.status == "Finite" and res.certificate is not None
    assert check_negative_type(sp, res.q / 2).strict
    assert kernel_coincidence_check(sp, res.q).holds
    assert cli.main(["verify", "--graph", spec]) == 0
    assert '"holds":true' in capsys.readouterr().out


def test_row_permutation_is_decided_once(monkeypatch):
    # the method tag, the class detection and the kernel check's guard all
    # read the verdict cached on the space, so Petersen sorts its rows once
    sp = space("petersen")
    decide = metric._rows_permute
    sorts = []

    def counted(d):
        sorts.append(len(d))
        return decide(d)

    monkeypatch.setattr(metric, "_rows_permute", counted)
    res = generalized_roundness(sp)
    assert res.method == METHOD_DETERMINANT_FAST_PATH
    assert kernel_coincidence_check(sp, res.q).holds
    assert has_row_permutation_property(sp)
    assert sorts == [10]


def test_cycle_4096_kernel_coincidence():
    # q = 1 and D_q has 2047 null frequencies, the even ones but 0; the odd
    # ones are about -5e-4 (of max |D_q| = 1), which a form mask relative to
    # the spectral radius of M(q) (about 830) took for null
    sp = space("cycle:4096")
    res = generalized_roundness(sp)
    assert res.q == pytest.approx(1.0, abs=1e-6)
    report = kernel_coincidence_check(sp, res.q)
    assert report.holds and report.max_defect <= 1e-6
    assert report.form_kernel_dim == report.matrix_kernel_dim == 2047


def test_kernel_coincidence_rejects_non_row_permutation():
    sp = build_metric_space(P3_MATRIX)
    with pytest.raises(HypothesisViolatedError):
        kernel_coincidence_check(sp, 2.0)


def test_gr_inequality_examples(fleet):
    sp = fleet["hypercube:2"]
    # singleton families: empty left sum
    r = gr_inequality_check(sp, 1.7, [0], [3])
    assert r.lhs == 0.0
    assert r.rhs == pytest.approx(2.0**1.7)
    assert r.holds

    # vertices 00,11 vs 01,10: equality 4 = 4 at p = 1
    r = gr_inequality_check(sp, 1.0, [0, 3], [1, 2])
    assert r.lhs == 4.0 and r.rhs == 4.0 and r.holds

    k3 = space("complete:3")
    r = gr_inequality_check(k3, 2.0, [0, 1], [2, 2])
    assert r.lhs == 1.0 and r.rhs == 4.0 and r.holds


def test_gr_inequality_errors(fleet):
    sp = fleet["hypercube:2"]
    with pytest.raises(LengthMismatchError):
        gr_inequality_check(sp, 1.0, [0, 1], [2])
    with pytest.raises(LengthMismatchError):
        gr_inequality_check(sp, 1.0, [], [])
    with pytest.raises(IndexOutOfRangeError):
        gr_inequality_check(sp, 1.0, [0, 4], [1, 2])


@pytest.mark.parametrize("c", [1e-5, 1.0, 1e3])
def test_gr_inequality_tolerance_is_relative(fleet, c):
    # on the 5-cycle at p = 2 > q these families give lhs = 16 c^2 > 12 c^2
    # = rhs, a 33 % violation at every scale
    sp = build_metric_space(c * fleet["cycle:5"].dist)
    r = gr_inequality_check(sp, 2.0, [0, 0, 2], [1, 1, 4])
    assert r.lhs == pytest.approx(16 * c**2) and r.rhs == pytest.approx(12 * c**2)
    assert not r.holds
    # equality (the 2-cube at p = 1) holds at every scale
    sq = build_metric_space(c * fleet["hypercube:2"].dist)
    assert gr_inequality_check(sq, 1.0, [0, 3], [1, 2]).holds


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_verdicts_and_values_at_extreme_units(fleet, c):
    # both checks power d / max d: the verdict of c * d is that of d, and
    # the reported values are those of d times c^p, inf or 0 once out of range
    for spec, p in (("cycle:5", 1.0), ("cycle:5", 2.0), ("hypercube:2", 1.0)):
        sp = fleet[spec]
        scaled = build_metric_space(c * sp.dist)
        ref, got = check_negative_type(sp, p), check_negative_type(scaled, p)
        assert (got.holds, got.strict) == (ref.holds, ref.strict), (spec, p)
        with np.errstate(over="ignore", under="ignore"):
            expected = ref.max_form_eigenvalue * np.float64(c) ** p
        assert got.max_form_eigenvalue == pytest.approx(expected, rel=1e-12), (spec, p)
        families = ([0, 0, 2], [1, 1, 3])
        assert gr_inequality_check(scaled, p, *families).holds == \
            gr_inequality_check(sp, p, *families).holds, (spec, p)


def test_witness_converts_to_inequality_violation(fleet):
    # above the supremal exponent the witness weights, cleared to integers,
    # give point families that break the inequality
    sp = fleet["hypercube:2"]
    p = 1.5
    verdict = check_negative_type(sp, p)
    assert not verdict.holds
    eta = [Fraction(x).limit_denominator(64) for x in verdict.witness.eta.tolist()]
    eta[-1] = -sum(eta[:-1])  # exact zero sum
    denom = math.lcm(*(f.denominator for f in eta))
    weights = [int(f * denom) for f in eta]
    a_idx, b_idx = [], []
    for i, w in enumerate(weights):
        a_idx += [i] * max(w, 0)
        b_idx += [i] * max(-w, 0)
    assert len(a_idx) == len(b_idx) > 0
    assert not gr_inequality_check(sp, p, a_idx, b_idx).holds


def test_sampled_instances_respect_negative_type(fleet):
    rng = np.random.default_rng(23)
    for spec in ("cycle:5", "hypercube:2"):
        sp = fleet[spec]
        q = generalized_roundness(sp).q
        # at the boundary exponent the slack must cover q's own ~1e-6 accuracy
        for p, tol in ((0.5, 1e-9), (q, 1e-6)):
            assert check_negative_type(sp, p).holds
            for _ in range(200):
                m = int(rng.integers(1, 5))
                a = rng.integers(0, sp.n, size=m).tolist()
                b = rng.integers(0, sp.n, size=m).tolist()
                assert gr_inequality_check(sp, p, a, b, tol=tol).holds
