import numpy as np
import pytest

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
from roundness.metric import has_row_permutation_property, hyperplane_basis, power_matrix

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
