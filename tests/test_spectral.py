from unittest import mock

import numpy as np
import pytest
from conftest import sympy_kernel
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roundness import (
    build_metric_space,
    cube_distance_matrix,
    det_exact,
    gen_family,
    generalized_roundness,
    kernel_basis_exact,
    kernel_coincidence_check,
    path_metric,
    rank_exact,
)
from roundness.errors import (
    NoConvergenceError,
    NonFiniteMatrixError,
    NotSymmetricError,
)
from roundness import spectral
from roundness.negtype import negtype_form_matrix
from roundness.spectral import (INT64_ENTRY_LIMIT, _eigvals, _eliminate, _exact, _row0_order,
                                eigensym)

try:
    import sympy
except ImportError:
    sympy = None


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return (a + a.T) / 2


def kernel_vectors(a, tol):
    """Eigenvectors of `a` whose eigenvalue is within tol times the spectral
    radius of zero: the numerical null space as the library masks it."""
    sd = eigensym(a)
    w = sd.eigenvalues
    return list(sd.eigenvectors[:, np.abs(w) <= tol * np.max(np.abs(w))].T)


def test_eigensym_ones_minus_identity():
    a = np.ones((4, 4)) - np.eye(4)
    sd = eigensym(a)
    assert np.allclose(sd.eigenvalues, [3, -1, -1, -1], atol=1e-12)


def test_eigensym_cube_two():
    sd = eigensym(np.asarray(cube_distance_matrix(2), dtype=float))
    assert np.allclose(sd.eigenvalues, [4, 0, -2, -2], atol=1e-12)


def test_eigensym_identity():
    sd = eigensym(np.eye(3))
    assert np.array_equal(sd.eigenvalues, [1, 1, 1])
    assert sd.residual == 0.0


def test_eigensym_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigensym([[0, 1], [2, 0]])


def test_symmetry_guard_is_relative_to_scale():
    with pytest.raises(NotSymmetricError):
        eigensym(1e-13 * np.array([[0.0, 1.0], [2.0, 0.0]]))
    sd = eigensym(np.zeros((3, 3)))
    assert np.array_equal(sd.eigenvalues, [0, 0, 0])


def test_eigensym_deterministic():
    rng = np.random.default_rng(0)
    a = random_symmetric(rng, 12)
    s1 = eigensym(a)
    s2 = eigensym(a.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eigensym_pathological_spectra():
    rng = np.random.default_rng(77)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    for diag in ([1e8, 1e8, 1e-8, 0.0, 0.0, -1e8], [1, 1, 1, 1, 1, 1 + 1e-14]):
        w = np.array(diag)
        a = (basis * w) @ basis.T
        a = (a + a.T) / 2
        sd = eigensym(a)
        scale = max(1.0, np.max(np.abs(a)))
        assert sd.residual <= 1e-9 * scale
        expected = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(sd.eigenvalues - expected)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
def test_eigensym_reconstruction_and_oracle(n):
    rng = np.random.default_rng(n)
    a = random_symmetric(rng, n, scale=3.0)
    sd = eigensym(a)
    scale = max(1.0, np.max(np.abs(a)))
    assert sd.residual <= 1e-9 * scale
    v = sd.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
    assert np.all(np.diff(sd.eigenvalues) <= 1e-12)
    # independent oracle: LAPACK
    expected = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(sd.eigenvalues - expected)) <= 1e-9 * scale


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    spectrum=st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 1e3]), min_size=1, max_size=12),
    dense=st.booleans(),
)
def test_eigensym_property(seed, spectrum, dense):
    """Random symmetric matrices up to 12x12; the drawn spectrum is mostly
    repeated eigenvalues, `dense` switches to a generic Gaussian matrix."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    if dense:
        a = random_symmetric(rng, n, scale=3.0)
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (basis * np.array(spectrum)) @ basis.T
        a = (a + a.T) / 2
    sd = eigensym(a)
    w, v = sd.eigenvalues, sd.eigenvectors
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(w - np.linalg.eigvalsh(a)[::-1])) <= 1e-9 * scale
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
    first = np.argmax(np.abs(v) > 1e-12 * np.abs(v).max(axis=0), axis=0)
    assert np.all(v[first, np.arange(n)] > 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_eigensym_rejects_non_finite(bad):
    a = np.array([[0.0, 1.0, bad], [1.0, 0.0, 1.0], [bad, 1.0, 0.0]])
    with pytest.raises(NonFiniteMatrixError):
        eigensym(a)


def test_eigensym_maps_lapack_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge") as info:
        eigensym(np.eye(3))
    assert "sweeps" not in str(info.value)
    assert info.value.residual is None


def test_eigensym_residual_bound(monkeypatch):
    true_eigh = np.linalg.eigh

    def shifted(a):
        w, v = true_eigh(a)
        return w + 1e-6, v

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(NoConvergenceError) as info:
        eigensym(np.diag([3.0, 1.0, -2.0]))
    assert info.value.residual == pytest.approx(1e-6)


def test_eigensym_sort_and_sign_rule_against_raw_eigh():
    # the rule written out on LAPACK's own output: stable descending sort
    # (ties keep LAPACK's order), then each column's first entry above 1e-12
    # of its largest magnitude made positive (`spectral._sign_fixed`)
    for a in (np.diag([1.0, 2.0, 1.0, 2.0]), np.ones((4, 4)) - np.eye(4),
              random_symmetric(np.random.default_rng(5), 4)):
        sd = eigensym(a)
        w, v = np.linalg.eigh(a)
        order = np.argsort(-w, kind="stable")
        w, v = w[order], v[:, order]
        first = np.argmax(np.abs(v) > 1e-12 * np.abs(v).max(axis=0), axis=0)
        v = v * np.where(v[first, np.arange(4)] < 0, -1.0, 1.0)
        assert np.array_equal(sd.eigenvalues, w)
        assert np.array_equal(sd.eigenvectors, v)
        assert isinstance(sd.residual, float)
        assert not sd.eigenvalues.flags.writeable and not sd.eigenvectors.flags.writeable


def test_eigensym_takes_one_matrix():
    with pytest.raises(ValueError, match="one matrix"):
        eigensym(np.stack([np.eye(3), np.eye(3)]))


def solve(a):
    """`_eigvals` of a matrix or a stack, each matrix held to its own trace
    and squared Frobenius norm, as the dense source holds its matrix."""
    a = np.asarray(a, dtype=float)
    stack = a.reshape(-1, *a.shape[-2:])
    return _eigvals(a, [np.trace(m) for m in stack], [np.vdot(m, m) for m in stack])


GOOD = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
BAD = [
    np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]]),
    np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]]),
    1e-13 * np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]]),
]
BAD_IDS = ["non-finite", "asymmetric", "asymmetric-tiny-scale"]


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_eigvals_stack_checks_every_member(bad):
    # `_eigvals` runs no finiteness or symmetry guard, but a member whose
    # values cannot meet the invariants of the matrix its caller means, a
    # NaN one or one whose upper triangle, which LAPACK does not read,
    # differs from its lower, fails a stack as it fails alone
    with pytest.raises(NoConvergenceError) as single:
        solve(bad)
    with pytest.raises(NoConvergenceError) as stacked:
        solve(np.stack([GOOD, 1e6 * GOOD, bad, GOOD]))
    assert str(stacked.value) == str(single.value)


def test_eigvals_maps_lapack_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        solve(np.eye(3))


def test_eigvals_trace_and_frobenius_checks_per_member(monkeypatch):
    true_eigvalsh = np.linalg.eigvalsh
    bad = np.diag([3.0, 1.0, -2.0])

    def shifted(a):
        # shifts the eigenvalues of the members whose [0, 0] entry is 3 only
        return true_eigvalsh(a) + 1e-6 * (a[..., :1, 0] == 3.0)

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    solve(np.stack([GOOD, 1e12 * GOOD]))
    with pytest.raises(NoConvergenceError) as single:
        solve(bad)
    with pytest.raises(NoConvergenceError) as stacked:
        solve(np.stack([1e12 * GOOD, bad, GOOD]))
    assert str(stacked.value) == str(single.value)
    # a shift the trace cannot see: one value up, one down, by 1e-6 of max |a_ij|
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: true_eigvalsh(a) + [-1e-6, 0.0, 1e-6])
    with pytest.raises(NoConvergenceError):
        solve(np.stack([GOOD, bad]))


def test_eigvals_trace_identity_sees_a_shifted_zero_eigenvalue(monkeypatch):
    # M(1) of the 4-cycle has the spectrum {-2, -2, 0}: its 0 moved by 1e-6
    # of ||a||_F moves the squared norm by only 1e-12 of ||a||_F^2, within
    # the Frobenius identity's bound, so the trace identity alone rejects it
    a = negtype_form_matrix(path_metric(gen_family("cycle", 4)), 1.0)
    norm = np.linalg.norm(a)
    true_eigvalsh = np.linalg.eigvalsh

    def shifted(m):
        w = true_eigvalsh(m)
        w[np.argmin(np.abs(w))] += 1e-6 * norm
        return w

    w = shifted(a)
    assert abs(w @ w - norm**2) <= spectral.RESIDUAL_RTOL * norm**2
    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(NoConvergenceError, match="miss the trace"):
        solve(a)


def test_eigvals_rejects_a_nan_eigenvalue(monkeypatch):
    # a NaN gap compares False with any bound, so each identity is tested as
    # `not (gap <= bound)`
    true_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: true_eigvalsh(a) * [np.nan, 1.0])
    with pytest.raises(NoConvergenceError, match="nan"):
        solve([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(NoConvergenceError):
        solve(np.stack([np.eye(2), [[2.0, 1.0], [1.0, 3.0]]]))


def test_eigensym_stack_residual_bound_per_member(monkeypatch):
    # eigensym takes one matrix and a stack goes to _eigvals: a shift that
    # eigensym's residual bound rejects on one member is rejected in a stack
    # too, while the members around it pass both
    true_eigh, true_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    bad = np.diag([3.0, 1.0, -2.0])

    def shifted(a):
        # shifts the eigenvalues of the members whose [0, 0] entry is 3 only
        w, v = true_eigh(a)
        return w + 1e-6 * (a[..., :1, 0] == 3.0), v

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shifted(a)[0])
    for a in (GOOD, 1e12 * GOOD):
        eigensym(a)
    solve(np.stack([GOOD, 1e12 * GOOD]))
    with pytest.raises(NoConvergenceError) as single:
        eigensym(bad)
    assert single.value.residual == pytest.approx(1e-6)
    with pytest.raises(NoConvergenceError):
        solve(np.stack([1e12 * GOOD, bad, GOOD]))


def test_eigvals_stack_equals_single_calls():
    rng = np.random.default_rng(7)
    members = [random_symmetric(rng, 5, scale) for scale in (1e-6, 1.0, 1e6)]
    members += [np.eye(5), np.zeros((5, 5)), np.ones((5, 5)) - np.eye(5)]
    w = solve(np.stack(members))
    assert w.shape == (6, 5)
    for j, a in enumerate(members):
        one = solve(a)
        assert one.shape == (5,)
        assert np.array_equal(w[j], one)
        assert np.all(np.diff(one) >= 0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    spectrum=st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 1e3]), min_size=1, max_size=12),
    kind=st.sampled_from(["degenerate", "random", "wide"]),
)
def test_eigvals_match_eigensym(seed, spectrum, kind):
    """Random symmetric matrices up to 12x12: the drawn spectrum, mostly
    repeated eigenvalues ("degenerate"), a generic Gaussian matrix
    ("random"), or eigenvalues of magnitude 1e-8 to 1e8 ("wide")."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    if kind == "random":
        a = random_symmetric(rng, n, scale=3.0)
    else:
        w = np.array(spectrum)
        if kind == "wide":
            w = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (basis * w) @ basis.T
        a = (a + a.T) / 2
    values = solve(a)[::-1]
    assert np.max(np.abs(values - eigensym(a).eigenvalues)) <= 1e-12 * np.max(np.abs(a))


def test_huge_distances_give_the_unscaled_roundness():
    # powers of 1e200 * d overflow at p = 2; the search and the D_q checks
    # run on d / max d, whose powers cannot
    d = np.asarray(path_metric(gen_family("cycle", 5)).dist)
    res = generalized_roundness(build_metric_space(d))
    for c in (1e200, 1e300):
        space = build_metric_space(c * d)
        with np.errstate(over="raise", invalid="raise"):
            got = generalized_roundness(space)
            assert kernel_coincidence_check(space, got.q).holds
        assert got.q == res.q
        assert got.det_normalized <= 1e-6 and got.certificate is not None


def test_rank_exact_examples():
    assert rank_exact([(1, 0), (0, 1)]) == 2
    assert rank_exact([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0], [0, 0]]) == 0


def test_rank_exact_row_operation_invariance():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(m, n)).tolist()
        r = rank_exact(a)
        i, j = rng.integers(0, m, size=2)
        b = [row[:] for row in a]
        b[i], b[j] = b[j], b[i]
        assert rank_exact(b) == r
        c = [row[:] for row in a]
        c[i] = [int(rng.choice([-3, -1, 2, 5])) * x for x in c[i]]
        assert rank_exact(c) == r
        if i != j:
            d = [row[:] for row in a]
            d[i] = [x + y for x, y in zip(d[i], d[j])]
            assert rank_exact(d) == r


def test_rank_exact_rejects_non_integers():
    with pytest.raises(ValueError):
        rank_exact([[0.5, 1], [1, 0]])
    with pytest.raises(ValueError):
        rank_exact(np.array([[0.5, 1], [1, 0]]))
    with pytest.raises(ValueError, match="ragged"):
        rank_exact([[1, 0], [1]])


def test_exact_entry_points_agree_across_input_types():
    """A list, int64 and uint8 arrays (which skip the per-entry check) and an
    integer-valued float array give the same rank, determinant and kernel."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = int(rng.integers(1, 7))
        a = rng.integers(0, 6, size=(r, r))
        if r > 1 and rng.random() < 0.5:
            a[r - 1] = a[0]  # singular
        results = [(rank_exact(m), det_exact(m), kernel_basis_exact(m))
                   for m in (a.tolist(), a.astype(np.int64), a.astype(np.uint8), a.astype(float))]
        assert all(res == results[0] for res in results), results


def test_empty_matrix_keeps_its_column_count():
    """A 2-D array with no rows, integer or float, has all of Q^c as its
    kernel; an empty list has no columns, so its kernel has no basis."""
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for m in (np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3))):
        assert kernel_basis_exact(m) == unit
        assert rank_exact(m) == 0
    assert kernel_basis_exact([]) == []


def test_exact_elimination_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(13)
    for _ in range(120):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.integers(-9, 10, size=(m, n))
        if rng.random() < 0.5 and m > 1:  # force extra rank deficiency
            a[m - 1] = a[0] * int(rng.integers(-2, 3))
        if rng.random() < 0.5 and n > 2:  # force a column dependency
            a[:, n - 1] = a[:, 0] * int(rng.integers(-3, 4)) + a[:, 1] * int(rng.integers(-3, 4))
        mat = sympy.Matrix(a.tolist())
        assert rank_exact(a) == mat.rank()
        assert kernel_basis_exact(a) == sympy_kernel(a.tolist())
        if m == n:
            assert det_exact(a) == int(mat.det())


@st.composite
def exact_matrices(draw):
    """Integer matrices on every path of the int64 rule: min(r, c) up to 6 or
    at 15 and 16, entries up to +-1 or +-2, or, at min(r, c) <= 6, up to
    +-2^20 or +-2^40, with a row or column possibly copied or replaced by a
    sum, so that the rank can fall short. {-1, 0, 1} at order 15 is proved
    safe in int64 up front and at 16 is watched; entries near 2^20 have 2 x 2
    minors near 2^41, past the int64 limit, so a stack of them moves to
    Python ints partway, and entries near 2^40 start there."""
    bound = draw(st.sampled_from([1, 2, 1 << 20, 1 << 40]))
    shape = st.integers(1, 6) | st.sampled_from([15, 16]) if bound <= 2 else st.integers(1, 6)
    r, c = draw(shape), draw(shape)
    entries = st.integers(-bound, bound)
    a = np.array(draw(st.lists(entries, min_size=r * c, max_size=r * c)),
                 dtype=np.int64).reshape(r, c)
    axis = draw(st.sampled_from([None, 0, 1]))
    if axis is not None and a.shape[axis] > 1:
        a = np.moveaxis(a, axis, 0)
        a[-1] = a[0] if draw(st.booleans()) else a[0] + a[1]
        a = np.moveaxis(a, 0, axis)
    return a


@pytest.mark.skipif(sympy is None, reason="sympy is the oracle")
@settings(max_examples=80, deadline=None)
@given(a=exact_matrices())
def test_exact_elimination_matches_sympy_in_both_dtypes(a):
    r, c = a.shape
    top = int(np.abs(a).max())
    start, watch = _exact(a[None])
    # int64 whenever the entries are below the limit, with no watch where
    # Hadamard's bound proves they stay there, as for {-1, 0, 1} up to 15
    assert start.dtype == (np.int64 if top < INT64_ENTRY_LIMIT else object)
    if top <= 1 and min(r, c) <= 15:
        assert start.dtype == np.int64 and not watch
    mat = sympy.Matrix(a.tolist())
    assert rank_exact(a) == mat.rank()
    assert kernel_basis_exact(a) == sympy_kernel(a.tolist())
    if r == c:
        det = det_exact(a)
        assert det == int(mat.det())
        if r > 1:
            assert det_exact(a[[1, 0, *range(2, r)]]) == -det  # a row swap flips the sign
    # a watched stack still in int64 at the end, and every proved one, never
    # passed the limit, and reached the same pivots and reduced rows as
    # Python ints
    if start.dtype == np.int64:
        reduced, pivots, d = _eliminate(start.copy(), watch=True)
        assert watch or reduced.dtype == np.int64
        if reduced.dtype == np.int64:
            wide = _eliminate(a[None].astype(object))
            assert [x.tolist() for x in wide] == [reduced.tolist(), pivots.tolist(), d.tolist()]


def test_cube_distance_matrix_reaches_rank_9_in_int64():
    # 256 x 256 with entries up to 8: Hadamard proves nothing, but its
    # entries stay below 2^13 through all 9 pivots, so no promotion
    d = cube_distance_matrix(8)
    start, watch = _exact(d[None])
    assert start.dtype == np.int64 and watch
    reduced, pivots, last = _eliminate(start, watch)
    assert reduced.dtype == np.int64 and int(np.abs(reduced).max()) < 1 << 13
    assert int((pivots >= 0).sum()) == rank_exact(d) == 9
    wide, wide_pivots, wide_last = _eliminate(d[None].astype(object))
    assert wide_pivots.tolist() == pivots.tolist() and wide_last.tolist() == last.tolist()
    assert wide.tolist() == reduced.tolist()


@pytest.mark.skipif(sympy is None, reason="sympy is the oracle")
def test_elimination_promoted_partway_matches_sympy():
    # entries near 2^20 start in int64; their 2 x 2 minors near 2^41 do not
    # fit, so the stack moves to Python ints at the second pivot column
    rng = np.random.default_rng(29)
    a = rng.integers(-(1 << 20), 1 << 20, size=(6, 6))
    start, watch = _exact(a[None])
    assert start.dtype == np.int64 and watch
    reduced, _, _ = _eliminate(start, watch)
    assert reduced.dtype == object
    mat = sympy.Matrix(a.tolist())
    assert det_exact(a) == int(mat.det()) != 0
    assert rank_exact(a) == mat.rank() == 6
    dependent = np.vstack([a[:5], a[0] - 3 * a[2]])  # rank 5, a kernel of one vector
    assert _eliminate(*_exact(dependent[None]))[0].dtype == object
    assert rank_exact(dependent) == sympy.Matrix(dependent.tolist()).rank() == 5
    assert det_exact(dependent) == 0
    assert kernel_basis_exact(dependent) == sympy_kernel(dependent.tolist())
    assert kernel_basis_exact(dependent.T) == sympy_kernel(dependent.T.tolist())


def test_det_exact_known_values():
    assert det_exact([[1, 0], [1, -2]]) == -2
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [2, 4]]) == 0


def test_det_exact_matches_float_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rng.integers(-5, 6, size=(n, n))
        assert det_exact(a) == round(np.linalg.det(a.astype(float)))


def test_kernel_basis_exact():
    a = [[0, 1, 1], [1, 0, 1]]  # kernel spanned by (1, 1, -1)
    basis = kernel_basis_exact(a)
    assert basis == [[1, 1, -1]]
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        mat = rng.integers(-3, 4, size=(m, n)).tolist()
        basis = kernel_basis_exact(mat)
        assert len(basis) == n - rank_exact(mat)
        for vec in basis:
            assert any(vec)
            assert all(sum(row[c] * vec[c] for c in range(n)) == 0 for row in mat)
            lead = next(v for v in vec if v)
            assert lead > 0


def test_null_space_cube_two():
    d2 = np.asarray(cube_distance_matrix(2), dtype=float)
    vecs = kernel_vectors(d2, 1e-9)
    assert len(vecs) == 1
    assert np.allclose(np.abs(vecs[0]), 0.5, atol=1e-12)
    assert abs(vecs[0] @ [1, -1, -1, 1]) == pytest.approx(2.0, abs=1e-12)


def test_null_space_cube_three_dimension():
    d3 = np.asarray(cube_distance_matrix(3), dtype=float)
    assert len(kernel_vectors(d3, 1e-9)) == 4  # 2^3 - 3 - 1


def test_null_space_identity_empty():
    assert kernel_vectors(np.eye(5), 1e-3) == []


@pytest.mark.parametrize("n", [3, 8, 20])
def test_null_space_residual_property(n):
    rng = np.random.default_rng(200 + n)
    # build a matrix with a known kernel: project out some directions
    a = random_symmetric(rng, n)
    sd = eigensym(a)
    w = sd.eigenvalues.copy()
    w[-2:] = 0.0
    a = (sd.eigenvectors * w) @ sd.eigenvectors.T
    a = (a + a.T) / 2
    tol = 1e-9
    vecs = kernel_vectors(a, tol)
    assert len(vecs) >= 2
    scale = max(1.0, np.max(np.abs(a)))
    for v in vecs:
        assert np.max(np.abs(a @ v)) <= 10 * tol * scale


def row0_order_reference(a):
    """The order of a square matrix by the entrywise definitions, circulant
    first: a[i][j] = a[0][(j - i) mod n], or a[i][j] = a[0][i xor j] with n
    a power of two."""
    n = len(a)
    if all(a[i][j] == a[0][(j - i) % n] for i in range(n) for j in range(n)):
        return "circulant"
    if n & (n - 1) == 0 and all(a[i][j] == a[0][i ^ j] for i in range(n) for j in range(n)):
        return "cube"
    return None


@st.composite
def row0_matrices(draw):
    """An n x n float distance-like or bool adjacency-like matrix, n = 2..17:
    a random row 0 read as a circulant or (n a power of two) in cube order,
    or random rows, with one entry changed or not."""
    n = draw(st.integers(2, 17))
    boolean = draw(st.booleans())
    values = st.booleans() if boolean else st.integers(0, 3).map(float)
    rows = st.lists(values, min_size=n, max_size=n)
    row = draw(rows)
    kind = draw(st.sampled_from(["circulant", "random"] + (["cube"] if n & (n - 1) == 0 else [])))
    if kind == "circulant":
        a = [[row[(j - i) % n] for j in range(n)] for i in range(n)]
    elif kind == "cube":
        a = [[row[i ^ j] for j in range(n)] for i in range(n)]
    else:
        a = [row] + [draw(rows) for _ in range(n - 1)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = not a[i][j] if boolean else a[i][j] + 1.0
    return np.array(a, dtype=bool if boolean else float)


CYCLE4 = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
CUBE4 = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]], dtype=float)
CYCLE8 = np.array([[min((j - i) % 8, (i - j) % 8) for j in range(8)] for i in range(8)], dtype=float)


@settings(max_examples=300, deadline=None)
@given(a=row0_matrices(), block=st.sampled_from([1, 7, 40, spectral.ROW0_BLOCK]))
@example(a=CYCLE4, block=spectral.ROW0_BLOCK)  # in both orders: circulant wins
@example(a=CYCLE4 > 1, block=1)
@example(a=CUBE4, block=spectral.ROW0_BLOCK)
@example(a=np.where(np.eye(8, k=-7, dtype=bool), 9.0, CYCLE8), block=1)  # last row off
def test_row0_order_matches_entrywise_definition(a, block):
    # `block` entries are compared at a time; small blocks split even these
    # matrices into several, so a mismatch in any block must be found
    with mock.patch.object(spectral, "ROW0_BLOCK", block):
        assert _row0_order(a) == row0_order_reference(a.tolist())


def walsh_rows(ts, n):
    """Rows ts of the Walsh-Hadamard matrix of order n, H[t, j] =
    (-1)^popcount(t & j), as int64, the parity summed bit by bit."""
    both = np.asarray(ts, dtype=np.int64)[:, None] & np.arange(n, dtype=np.int64)
    parity = np.zeros(both.shape, dtype=np.int64)
    for b in range(n.bit_length()):
        parity ^= (both >> b) & 1
    return 1 - 2 * parity


def walsh_oracle(x):
    """H x, column by column, from `walsh_rows` in exact integer or float
    arithmetic, 256 rows of H at a time."""
    n = len(x)
    return np.concatenate([walsh_rows(range(t, min(n, t + 256)), n) @ x for t in range(0, n, 256)])


CUBE_ORDERS = [1 << k for k in range(1, 13)]  # n = 2 .. 4096, odd and even k


@pytest.mark.parametrize("n", CUBE_ORDERS)
def test_walsh_transform_of_integers_is_the_oracle_exactly(n):
    rng = np.random.default_rng(n)
    for x in (rng.integers(-1000, 1001, size=n), rng.integers(-1000, 1001, size=(n, 3))):
        y = spectral._row0_spectrum("cube", x)
        assert y.shape == x.shape and y.dtype == float
        assert np.array_equal(y, walsh_oracle(x).astype(float))


@pytest.mark.parametrize("n", CUBE_ORDERS)
def test_walsh_transform_of_floats_matches_the_oracle(n):
    rng = np.random.default_rng(n + 1)
    for x in (rng.normal(size=n), rng.normal(size=(n, 4))):
        y = spectral._row0_spectrum("cube", x)
        assert np.all(np.abs(y - walsh_oracle(x)) <= 1e-12 * np.abs(x).sum(axis=0))


@pytest.mark.parametrize("n", [2, 4, 8, 32, 64, 512, 2048])
def test_walsh_modes_are_the_oracle_columns_over_sqrt_n(n):
    ts = np.unique(np.random.default_rng(n).integers(0, n, size=min(n, 40)))
    modes = spectral._row0_modes("cube", n, ts)
    assert np.array_equal(modes, walsh_rows(ts, n).T / np.sqrt(n))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 128, 256])
def test_walsh_product_is_the_dense_product(n):
    rng = np.random.default_rng(n + 2)
    row = rng.random(n)
    row[0] = 0.0
    index = np.arange(n)
    dense = row[index ^ index[:, None]]
    for u in (rng.normal(size=n), rng.normal(size=(n, 5))):
        product = spectral._row0_product("cube", row, u)
        assert product.shape == u.shape
        np.testing.assert_allclose(product, dense @ u, rtol=0, atol=1e-12 * n)


def test_sylvester_factors_are_built_once_and_read_only():
    h = spectral._sylvester(16)
    assert spectral._sylvester(16) is h and not h.flags.writeable
    assert np.array_equal(h, walsh_rows(range(16), 16))
