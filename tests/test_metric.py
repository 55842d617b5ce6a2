from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundness import build_metric_space, cube_distance_matrix, generalized_roundness
from roundness.errors import (
    BadParamsError,
    NegativeEntryError,
    NegativeExponentError,
    NonFiniteMatrixError,
    NonzeroDiagonalError,
    NotSymmetricError,
    TriangleViolationError,
    ZeroDistanceError,
)
from roundness import metric
from roundness.metric import (
    FiniteMetricSpace,
    has_row_permutation_property,
    hyperplane_basis,
    power_matrix,
)
from roundness.negtype import _source
from roundness.spectral import _row0_spectrum

C4_MATRIX = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]  # BFS on the 4-cycle
P3_MATRIX = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_two_point_space_ok():
    sp = build_metric_space([[0, 1], [1, 0]])
    assert sp.n == 2
    assert sp.labels == ("0", "1")


def test_triangle_violation_reports_triple():
    with pytest.raises(TriangleViolationError) as exc:
        build_metric_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.triple == (0, 1, 2)


def test_c4_path_matrix_ok():
    sp = build_metric_space(C4_MATRIX)
    assert np.array_equal(sp.dist[0], [0, 1, 2, 1])


def test_construction_errors():
    with pytest.raises(NotSymmetricError):
        build_metric_space([[0, 1], [2, 0]])
    with pytest.raises(NonzeroDiagonalError):
        build_metric_space([[1, 1], [1, 0]])
    with pytest.raises(NegativeEntryError):
        build_metric_space([[0, -1], [-1, 0]])
    with pytest.raises(ZeroDistanceError):
        build_metric_space([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError):
        build_metric_space([[0]])


def test_input_guards_are_relative_to_scale():
    with pytest.raises(TriangleViolationError):
        build_metric_space(1e-13 * np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))
    with pytest.raises(NotSymmetricError):
        build_metric_space(1e-13 * np.array([[0, 1, 3], [2, 0, 1], [3, 1, 0]]))
    assert build_metric_space(1e-13 * np.array(C4_MATRIX)).n == 4


def test_near_symmetric_input_is_symmetrized():
    # an asymmetry within SYMMETRY_RTOL of max d is rounding noise: the
    # input is averaged with its transpose and keeps the symmetric input's q;
    # one far above it is an input error
    c5 = np.array([[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)],
                  dtype=float)
    q = generalized_roundness(build_metric_space(c5)).q
    near = c5.copy()
    near[0, 2] += 1e-14 * c5.max()
    sp = build_metric_space(near)
    assert np.array_equal(sp.dist, sp.dist.T) and sp.dist[0, 2] == (near[0, 2] + near[2, 0]) / 2
    assert sp.dist[0, 2] != c5[0, 2]
    assert generalized_roundness(sp).q == pytest.approx(q, abs=1e-9)
    far = c5.copy()
    far[0, 2] += 1e-10 * c5.max()
    with pytest.raises(NotSymmetricError):
        build_metric_space(far)


def test_distances_near_float_max_build_without_overflow():
    # d_ik + d_kj and d_ij + d_ji can pass float range, which made numpy warn
    # (an error in this suite) and averaged a near-symmetric pair to inf
    big = np.finfo(float).max
    sp = build_metric_space([[0, big], [big, 0]])
    assert sp.dist[0, 1] == big
    near = build_metric_space([[0, 1.7e308], [1.7000000000001e308, 0]])
    assert near.dist[0, 1] == near.dist[1, 0] and np.isfinite(near.dist).all()


def test_triangle_check_always_runs():
    # there is no switch that skips the triangle check
    with pytest.raises(TypeError):
        build_metric_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]], validate=False)
    with pytest.raises(NonzeroDiagonalError):
        build_metric_space([[1, 1], [1, 0]])


def test_power_matrix_two_point_p1():
    sp = build_metric_space([[0, 1], [1, 0]])
    pm = power_matrix(sp, 1.0)
    assert np.array_equal(pm, [[0, 1], [1, 0]])
    # a list is read as a float matrix (was a bare AttributeError in the check)
    listed = power_matrix([[0, 2], [2, 0]], 2)
    assert listed.dtype == float and not listed.flags.writeable
    assert np.array_equal(listed, [[0, 4], [4, 0]])


def test_power_matrix_p0_is_ones_minus_identity():
    for matrix in (C4_MATRIX, P3_MATRIX):
        sp = build_metric_space(matrix)
        pm = power_matrix(sp, 0.0)
        assert np.array_equal(pm + np.eye(sp.n), np.ones((sp.n, sp.n)))


def test_power_matrix_c4_squared():
    sp = build_metric_space(C4_MATRIX)
    pm = power_matrix(sp, 2.0)
    assert np.array_equal(pm[0], [0, 1, 4, 1])


def test_power_matrix_rejects_negative_exponent():
    sp = build_metric_space([[0, 1], [1, 0]])
    with pytest.raises(NegativeExponentError):
        power_matrix(sp, -0.5)
    with pytest.raises(NegativeExponentError):
        power_matrix(sp, float("nan"))


def test_power_matrix_stack_equals_single_calls():
    # a stack raised to one exponent gives each matrix bit for bit the
    # entries of a call of its own, also at the exponents (0.5, 2) where
    # numpy's scalar power takes a fast path
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(4, 12, 3))
    stack = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
    spaces = [build_metric_space(d) for d in stack]
    dists = np.stack([sp.dist for sp in spaces])
    for e in (0.5, 2.0, 1.3):
        stacked = power_matrix(dists, e)
        for sp, got in zip(spaces, stacked):
            assert np.array_equal(got, power_matrix(sp, e))
        assert not stacked.flags.writeable
    assert np.array_equal(power_matrix(stack, 2.0), stack ** 2.0)
    for e in (-0.5, np.nan):
        with pytest.raises(NegativeExponentError):
            power_matrix(stack, e)


def test_power_matrix_rejects_distances_it_would_read_as_one():
    # _power maps every entry that is not > 0 to 1 before the 0^p rule, so
    # NaN and negative distances are rejected first, as is a matrix with no
    # positive distance, in a stack too
    for d, p, error in ((np.array([[0.0, np.nan], [np.nan, 0.0]]), 2.0, NonFiniteMatrixError),
                        (np.array([[0.0, np.inf], [np.inf, 0.0]]), 2.0, NonFiniteMatrixError),
                        (np.array([[0.0, -1.0], [-1.0, 0.0]]), 0.5, NegativeEntryError),
                        (np.zeros((2, 2)), 1.0, BadParamsError),
                        (np.stack([np.ones((2, 2)) - np.eye(2), np.zeros((2, 2))]), 1.0,
                         BadParamsError)):
        with pytest.raises(error):
            power_matrix(d, p)


NON_FINITE = "distance matrix contains non-finite entries"


@pytest.mark.parametrize("matrix, error, message", [
    ([[0, np.nan], [np.nan, 0]], NonFiniteMatrixError, NON_FINITE),
    ([[0, np.inf], [np.inf, 0]], NonFiniteMatrixError, NON_FINITE),
    ([[0, -1, 1], [-1, 0, 1], [1, 1, 0]], NegativeEntryError, "matrix[0][1] = -1.0 < 0"),
    ([[1, 1, 1], [1, 0, 1], [1, 1, 0]], NonzeroDiagonalError, "matrix[0][0] = 1.0 != 0"),
    ([[0, 1, 1], [2, 0, 1], [1, 1, 0]], NotSymmetricError,
     "matrix[0][1] = 1.0 != matrix[1][0] = 2.0"),
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], ZeroDistanceError,
     "zero distance between distinct points 0 and 1"),
    (np.zeros((3, 3)), ZeroDistanceError, "zero distance between distinct points 0 and 1"),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], TriangleViolationError,
     "triangle inequality violated: d[0][2] = 3.0 > d[0][1] + d[1][2] = 1.0 + 1.0"),
], ids=["nan", "inf", "negative", "nonzero-diagonal", "asymmetric", "zero-distance", "all-zero",
        "triangle"])
def test_each_single_fault_has_one_error(matrix, error, message):
    # the one distance check raises the type every other entry point
    # raises for the same fault; a non-finite matrix is still a ValueError
    with pytest.raises(error) as exc:
        build_metric_space(matrix)
    assert str(exc.value) == message
    if error is NonFiniteMatrixError:
        assert isinstance(exc.value, ValueError)


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        build_metric_space([[0, float("nan")], [float("nan"), 0]])
    with pytest.raises(ValueError):
        build_metric_space([[0, float("inf")], [float("inf"), 0]])


def test_power_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        # points on a line give an easy random metric
        pts = np.sort(rng.uniform(0, 10, size=n))
        pts += np.arange(n) * 1e-3  # ensure distinct
        d = np.abs(pts[:, None] - pts[None, :])
        sp = build_metric_space(d)
        for p in (0.0, 0.5, 1.0, 2.7):
            e = power_matrix(sp, p)
            assert np.array_equal(e, e.T)
            assert np.all(np.diagonal(e) == 0.0)


def test_row_permutation_property():
    c5 = [[0, 1, 2, 2, 1], [1, 0, 1, 2, 2], [2, 1, 0, 1, 2], [2, 2, 1, 0, 1], [1, 2, 2, 1, 0]]
    assert has_row_permutation_property(build_metric_space(c5))
    assert not has_row_permutation_property(build_metric_space(P3_MATRIX))
    h3 = build_metric_space(cube_distance_matrix(3))
    assert has_row_permutation_property(h3)


def test_row_permutation_invariant_under_relabeling():
    rng = np.random.default_rng(11)
    d = np.asarray(cube_distance_matrix(3), dtype=float)
    for _ in range(20):
        perm = rng.permutation(8)
        sp = build_metric_space(d[np.ix_(perm, perm)])
        assert has_row_permutation_property(sp)


def test_quadratic_form_examples():
    sp = build_metric_space([[0, 1], [1, 0]])
    pm = power_matrix(sp, 1.0)
    assert np.zeros(2) @ pm @ np.zeros(2) == 0.0
    eta = np.array([1.0, -1.0])
    assert eta @ pm @ eta == -2.0

    h2 = build_metric_space(cube_distance_matrix(2))
    # (1,-1,-1,1) spans the kernel of the 2-cube distance matrix
    eta = np.array([1.0, -1.0, -1.0, 1.0])
    assert eta @ power_matrix(h2, 1.0) @ eta == 0.0


def test_two_point_form_closed_form():
    rng = np.random.default_rng(3)
    sp = build_metric_space([[0, 2.5], [2.5, 0]])
    for _ in range(25):
        eta1 = float(rng.normal())
        eta = np.array([eta1, -eta1])
        for p in (0.0, 0.5, 1.0, 3.0):
            val = eta @ power_matrix(sp, p) @ eta
            assert val <= 0.0
            assert val == pytest.approx(-2 * 2.5**p * eta1**2)


def gram_schmidt_basis(n):
    """Reference zero-sum basis: Gram-Schmidt, twice over, on e_0 - e_j."""
    cols = np.zeros((n, n - 1))
    for j in range(1, n):
        v = np.zeros(n)
        v[0], v[j] = 1.0, -1.0
        for _ in range(2):
            v -= cols[:, : j - 1] @ (cols[:, : j - 1].T @ v)
        cols[:, j - 1] = v / np.linalg.norm(v)
    return cols


def test_hyperplane_basis_two_points():
    b = hyperplane_basis(2)
    assert b.shape == (2, 1)
    assert b[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert b[1, 0] == pytest.approx(-1 / np.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
def test_hyperplane_basis_invariants(n):
    b = hyperplane_basis(n)
    assert b.shape == (n, n - 1)
    assert not b.flags.writeable
    for j in range(1, n):  # Helmert column j: j ones, then -j, then zeros
        expected = np.concatenate((np.ones(j), [-j], np.zeros(n - j - 1))) / np.sqrt(j * (j + 1))
        assert np.max(np.abs(b[:, j - 1] - expected)) <= 1e-15
    assert np.max(np.abs(b - gram_schmidt_basis(n))) <= 1e-12
    assert np.max(np.abs(b.T @ b - np.eye(n - 1))) <= 1e-12
    assert np.max(np.abs(b.T @ np.ones(n))) <= 1e-12


def triangle_oracle(d):
    """The triangle check one k at a time: the first k with a gap
    d_ij - (d_ik + d_kj) above the slack, and the (i, j) of its largest gap,
    as (i, k, j, d_ij, d_ik, d_kj), or None."""
    slack = 1e-12 * float(np.max(d))
    for k in range(len(d)):
        gap = d - (d[:, k][:, None] + d[k, :][None, :])
        if np.any(gap > slack):
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            return i, k, j, d[i, j], d[i, k], d[k, j]
    return None


@st.composite
def planted_triangles(draw):
    """A symmetric n x n matrix, n = 2..12, of distances in 5..10, which
    keep every triangle, with 0 to 3 pairs raised to 11..40, which may
    break some, and the block size of the check: one k, several k a block,
    or every k in one block."""
    n = draw(st.integers(2, 12))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(st.integers(5, 10))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            d[i, j] = d[j, i] = draw(st.integers(11, 40))
    block = draw(st.sampled_from([1, 2 * n * n, 3 * n * n + 1, metric.TRIANGLE_BLOCK]))
    return d, block


@settings(max_examples=300, deadline=None)
@given(case=planted_triangles())
def test_blocked_triangle_check_names_the_loops_first_violation(case):
    d, block = case
    expected = triangle_oracle(d)
    with mock.patch.object(metric, "TRIANGLE_BLOCK", block):
        if expected is None:
            build_metric_space(d)
            return
        with pytest.raises(TriangleViolationError) as exc:
            build_metric_space(d)
    i, k, j, dij, dik, dkj = expected
    assert exc.value.triple == (i, k, j)
    assert str(exc.value) == (f"triangle inequality violated: d[{i}][{j}] = {dij} > "
                              f"d[{i}][{k}] + d[{k}][{j}] = {dik} + {dkj}")


def test_triangle_check_in_several_blocks_finds_the_first_k():
    # n = 9 in blocks of two k: d[0][3] = 19 breaks a triangle only through
    # k = 4 (4 + 4) and k = 7 (5 + 5), in the third and the fourth block
    d = np.full((9, 9), 10.0)
    np.fill_diagonal(d, 0.0)
    for i, j, v in ((0, 3, 19), (0, 4, 4), (3, 4, 4), (0, 7, 5), (3, 7, 5), (4, 7, 9)):
        d[i, j] = d[j, i] = v
    with mock.patch.object(metric, "TRIANGLE_BLOCK", 2 * 81):
        with pytest.raises(TriangleViolationError) as exc:
            build_metric_space(d)
    assert exc.value.triple == triangle_oracle(d)[:3] == (0, 4, 3)
    assert "d[0][3] = 19.0 > d[0][4] + d[4][3] = 4.0 + 4.0" in str(exc.value)
    d[0, 4] = d[4, 0] = d[3, 4] = d[4, 3] = 10.0  # then k = 7, in the fourth block
    d[4, 7] = d[7, 4] = 10.0
    with mock.patch.object(metric, "TRIANGLE_BLOCK", 2 * 81):
        with pytest.raises(TriangleViolationError) as exc:
            build_metric_space(d)
    assert exc.value.triple == triangle_oracle(d)[:3] == (0, 7, 3)


POWER_EXPONENTS = [0.0, 1e-300, 1.0, 64.0]


def power_oracle(d, p):
    entries = np.where(d > 0, d, 1.0) ** p
    entries[d == 0] = 0.0
    return entries


def hand_built(d):
    return FiniteMetricSpace(labels=tuple(map(str, range(len(d)))), dist=np.asarray(d, float))


@pytest.mark.parametrize("p", POWER_EXPONENTS)
def test_prepared_powers_are_bit_identical_to_one_power(p):
    # hand-built spaces with zeros off the diagonal, which
    # `build_metric_space` would reject; 0^p = 0 at p = 0 too
    index = np.arange(6)
    cube_row = np.array([0.0, 0.0, 0.5, 1.0])
    relabelled = np.array([0.0, 0.0, 1.0, 2.0, 1.0, 0.0])[(index - index[:, None]) % 6]
    relabelled = relabelled[np.ix_([0, 2, 1, 3, 4, 5], [0, 2, 1, 3, 4, 5])]
    cube, classes, dense = (hand_built(cube_row[index[:4] ^ index[:4, None]]),
                            hand_built(relabelled), hand_built([[0, 0, 1], [0, 0, 2], [1, 2, 0]]))
    assert (cube.order, classes.order) == ("cube", None) and classes.classes is not None
    assert not dense.rows_permute
    for x in (cube.dist, cube_row, np.stack([cube.dist, cube.dist / 2]), relabelled):
        got = metric._powers(x)(p)
        assert got.tobytes() == power_oracle(x, p).tobytes()
        assert metric._power(x, p).tobytes() == got.tobytes()
    assert power_matrix(cube, p).tobytes() == power_oracle(cube.dist, p).tobytes()
    assert np.count_nonzero(power_oracle(cube.dist, p)) == 8  # its zeros stay 0, at p = 0 too
    # each builder powers from the base it prepared once per space
    record = _source(cube)(p)
    assert record.values.tobytes() == _row0_spectrum("cube", power_oracle(cube_row, p)).tobytes()
    record = _source(classes)(p)
    weights = power_oracle(classes.classes.distances / 2.0, p)
    assert record.values.tobytes() == (classes.classes.eigenmatrix @ weights).tobytes()
    for space in (classes, dense):
        unit = space.dist / space.dist.max()
        product = _source(space)(p).product(np.eye(space.n))
        assert product.tobytes() == power_oracle(unit, p).tobytes()
