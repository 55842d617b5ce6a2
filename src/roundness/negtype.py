"""Negative-type verdicts and the generalized roundness of a finite metric space.

The quadratic form eta^T D_p eta over zero-sum weight vectors eta is captured
by the (n-1)x(n-1) matrix M(p) = B^T D_p B, with B an orthonormal basis of the
zero-sum hyperplane. The space has p-negative type exactly when M(p) is
negative semidefinite, and strict p-negative type when M(p) is negative
definite. The exponents with p-negative type form an interval [0, q], so q is
where the largest eigenvalue of M(p) changes sign. The root search brackets q
by doubling and narrows the bracket by ITP, which reads the eigenvalue's value
to place each probe and keeps bisection's worst-case step count. One driver
runs it on the distances divided by their maximum, for any number of matrices
in lock-step, each making the decisions a search of its own would:
`roundness_search` drives a stack of distance matrices and
`generalized_roundness` one space. A step reads two eigenvalues of each
M(p), the largest and the smallest, and decides in Python floats; a step
that solves makes one call of `spectral._eigvals` and passes it the trace
and the squared Frobenius norm of each matrix. A stack has at most
CLASS_FORM_LIMIT distinct distances v, as every stack of cube-subset
metrics (v in 1..n) has, and M(p) = sum_v w_v^p F_v, with w_v = v / max d
and F_v = B^T A_v B, A_v the 0/1 matrix of the entries equal to v: the
class forms F_v are built once per stack, with tr F_v and the Gram matrix
G_uv = <F_u, F_v>, so a step powers s distances per matrix, not k^2
entries, and reads tr M(p) = sum_v w_v^p tr F_v and ||M(p)||_F^2 = w^T G w
off them. Distances are checked once per space or stack, never per step.

Everything else a single space needs comes from one source per (space, p),
built by `_source`: D_p of d / max d, its product with a vector, and one
spectrum, as values, multiplicities and unit modes by index, with the entry
where the form's spectrum starts. On a space whose rows are permutations of
row 0 (`FiniteMetricSpace.rows_permute`), D_p 1 = r(p) 1 makes 1^perp
invariant, so M(p) has exactly the spectrum of D_p without r(p): the source
gives D_p's, r(p) at entry 0 and the form from entry 1; on any other space
it gives M(p)'s, the form from entry 0. There are three sources, chosen
once per space by what the space caches about itself:

- Row 0, on a circulant or cube-order space (`FiniteMetricSpace.order`).
  The values are the transform of row 0 (`spectral._row0_spectrum`), the
  modes its cosine or Walsh vectors (`spectral._row0_modes`), and D_p u a
  convolution (`spectral._row0_product`), with no n x n matrix built.
- Commuting distance classes, on any other space whose rows are
  permutations of row 0 and whose distance classes commute, as on Petersen,
  the solids or a relabelled circulant (`FiniteMetricSpace.classes`). D_p =
  sum_k (d_k / max d)^p A_k, and the class matrices A_k share one
  eigenbasis, so one eigendecomposition per space gives the eigenmatrix
  Theta, and the values of D_p at every p are Theta (d / max d)^p, r(p)
  first: each search step is a small product. The modes are one stored
  vector per joint eigenspace, and D_p u stays a dense product, so the
  certificate and the kernel defects are residuals of D_p itself.
- Dense, on every other space: D_p on a row-permutation space, whose
  classes do not commute (the truncated tetrahedron), M(p) on the rest. The
  values come from `spectral._eigvals`, held to the trace and the squared
  Frobenius norm of that matrix, and the modes from `eigensym`, run once,
  when a mode is first asked for. So the search, a strict verdict,
  `det_normalized` and the kernel mask solve for values alone, and only the
  witness, the certificate and the kernel modes eigendecompose.

The one-space search, `check_negative_type`, the certificate and
`kernel_coincidence_check` each have one body over the source. On a
row-permutation space (every vertex-transitive graph) q is also the first
exponent where an eigenvalue of D_p other than r(p) reaches 0, which gives
a null-vector certificate, and at q the zero-sum vectors nullifying the
form are the null vectors of D_q, which `kernel_coincidence_check` checks
with CERTIFICATE_TOL. Every tolerance is relative to the scale of the
matrix it tests, and every D_p is powered from d / max d, so no result
depends on the unit of distance and no power overflows or underflows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadParamsError,
    BracketFailureError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeExponentError,
    _integers,
    _real,
)
from .metric import (
    FiniteMetricSpace,
    NegativeTypeWitness,
    _check_distances,
    _power,
    hyperplane_basis,
    power_matrix,
)
from .spectral import (
    ROW0_BLOCK,
    ClassSpectrum,
    _eigvals,
    _row0_modes,
    _row0_multiplicities,
    _row0_product,
    _row0_spectrum,
    _sign_fixed,
    eigensym,
    symmetrized,
)

log = logging.getLogger("roundness")

METHOD_DETERMINANT_FAST_PATH = "DeterminantFastPath"
METHOD_SPECTRAL_BISECTION = "SpectralBisection"

CERTIFICATE_TOL = 1e-6
# Most distinct distances a stack of `roundness_search` may have: its class
# forms take s ((k-1)^2 + s + 2) floats per matrix
CLASS_FORM_LIMIT = 8


@dataclass(frozen=True)
class NegTypeVerdict:
    """Whether the p-negative-type inequality holds, and strictly so.

    `witness` is present exactly when the verdict is not strict: a unit-norm
    zero-sum vector achieving the largest form value (about zero in the
    equality case, positive when the inequality fails).
    """

    p: float
    holds: bool
    strict: bool
    max_form_eigenvalue: float
    witness: NegativeTypeWitness | None


@dataclass(frozen=True)
class RoundnessResult:
    status: str  # "Finite" | "Unbounded"
    q: float | None
    bracket: tuple[float, float] | None
    iterations: int
    method: str
    certificate: np.ndarray | None
    det_normalized: float | None


@dataclass(frozen=True)
class KernelCoincidenceReport:
    holds: bool
    max_defect: float
    form_kernel_dim: int
    matrix_kernel_dim: int


@dataclass(frozen=True)
class GrInequalityResult:
    lhs: float
    rhs: float
    holds: bool


def negtype_form_matrix(space, p) -> np.ndarray:
    """The powered-distance quadratic form restricted to zero-sum vectors:
    B^T D_p B, symmetrized. Takes, and checks, what `power_matrix` takes,
    so a stack of distance matrices gives the stack of their forms."""
    return _form(power_matrix(space, p))


def _form(dp: np.ndarray) -> np.ndarray:
    """`negtype_form_matrix` of D_p, or of a stack of them, unchecked."""
    b = hyperplane_basis(dp.shape[-1])
    m = b.T @ dp @ b
    return (m + m.swapaxes(-1, -2)) / 2.0


class _Spectrum(NamedTuple):
    """The eigenvalues of a symmetric matrix, how many eigenvalues each
    entry stands for, `modes(idx)`: a unit eigenvector at each entry of idx,
    signed by `spectral._sign_fixed`, as columns, and `start`, the entry
    where the form's spectrum begins: 1 on D_p of a row-permutation space,
    whose entry 0 is r(p), and 0 on M(p)."""

    values: np.ndarray
    multiplicities: np.ndarray
    modes: Callable[[np.ndarray], np.ndarray]
    start: int


def _source(space: FiniteMetricSpace):
    """The source of D_p of d / max d for `space`, as a function of p: read
    on row 0 for a space with an order (`FiniteMetricSpace.order`), off the
    joint spectrum of its distance classes when they commute
    (`FiniteMetricSpace.classes`), else densely. A source has `max_d`,
    `product(u)` = D_p u, and one `spectrum`: D_p's on a row-permutation
    space (`FiniteMetricSpace.rows_permute`), M(p)'s on any other. The
    distances are checked first, once per space (`FiniteMetricSpace._max_d`)."""
    max_d = space._max_d
    if space.order is not None:
        order, row = space.order, space.dist[0]
        unit, counts = row / max_d, _row0_multiplicities(order, space.n)
        return lambda p: _Row0Source(order, unit, counts, max_d, p)
    unit, classes = space.dist / max_d, space.classes
    if classes is not None:
        distances = classes.distances / max_d
        return lambda p: _ClassSource(classes, distances, unit, max_d, p)
    rows_permute = space.rows_permute
    return lambda p: _DenseSource(unit, max_d, p, rows_permute)


class _Row0Source:
    """The source of a circulant or cube-order space: row 0 of D_p, whose
    transform is the spectrum of D_p, value r(p) first."""

    def __init__(self, order: str, unit_row: np.ndarray, counts: np.ndarray, max_d: float,
                 p: float):
        self.order, self.max_d, n = order, max_d, len(unit_row)
        self.row = _power(unit_row, p)
        self.spectrum = _Spectrum(_row0_spectrum(order, self.row), counts,
                                  lambda ts: _row0_modes(order, n, ts), 1)

    def product(self, u: np.ndarray) -> np.ndarray:
        return _row0_product(self.order, self.row, u)


class _DenseProduct:
    """D_p of the distances `unit` (d / max d), built on first use, and its
    product with a vector."""

    def __init__(self, unit: np.ndarray, max_d: float, p: float):
        self.unit, self.max_d, self.p = unit, max_d, p

    @cached_property
    def dp(self) -> np.ndarray:
        return _power(self.unit, self.p)

    def product(self, u: np.ndarray) -> np.ndarray:
        return self.dp @ u


class _ClassSource(_DenseProduct):
    """The source of a space whose distance classes commute: the
    eigenvalues of D_p are the eigenmatrix of the classes times the powered
    class distances, r(p) first, and each joint eigenspace has one stored
    mode. D_p u is the dense product, so a certificate or a kernel defect
    is a residual of D_p itself, not of the spectrum it is read against."""

    def __init__(self, classes: ClassSpectrum, unit_distances: np.ndarray, unit: np.ndarray,
                 max_d: float, p: float):
        super().__init__(unit, max_d, p)
        modes = classes.modes
        self.spectrum = _Spectrum(classes.eigenmatrix @ _power(unit_distances, p), classes.dims,
                                  lambda idx: modes[:, idx], 1)


class _DenseSource(_DenseProduct):
    """The source of any other space: the spectrum of D_p on a
    row-permutation space and of M(p) on any other, each value counted
    once. The values come from `spectral._eigvals`, held to the trace and
    the squared Frobenius norm of the matrix solved, reversed, so r(p), the
    largest of D_p's (Perron-Frobenius), is entry 0. The modes come from
    `eigensym`, run once, when a mode is first asked for, in the same
    order, lifted by the zero-sum basis on M(p), signed by `_sign_fixed`."""

    def __init__(self, unit: np.ndarray, max_d: float, p: float, rows_permute: bool):
        super().__init__(unit, max_d, p)
        a = self.dp if rows_permute else _form(self.dp)
        solved = []  # eigensym(a), once a mode is asked for

        def modes(idx):
            if not solved:
                solved.append(eigensym(a))
            u = solved[0].eigenvectors[:, idx]
            u = u if rows_permute else hyperplane_basis(len(unit)) @ u
            return _sign_fixed(u / np.linalg.norm(u, axis=0))

        values = _eigvals(a, [np.trace(a)], [np.vdot(a, a)])[::-1]
        self.spectrum = _Spectrum(values, np.ones(len(values), dtype=np.int64), modes,
                                  int(rows_permute))


def check_negative_type(space: FiniteMetricSpace, p: float, tol_eig: float = 1e-9) -> NegTypeVerdict:
    """Decide (strict) p-negative type from the spectrum of the restricted form.

    The largest eigenvalue lmax of M(p) decides: holds iff lmax <= tol,
    strict iff lmax < -tol (tolerances relative to the spectral radius of
    M(p)). When not strict, the witness is the unit zero-sum mode at the
    form's largest value (the first such entry of the source's spectrum,
    past r(p) on a row-permutation space), first nonzero entry positive,
    and its form value is eta^T (D_p eta). Both come from the space's source
    (`_source`), on row 0 for a space with an order. The form is built on d / max d, so the verdict neither
    overflows nor underflows at any unit of distance; `max_form_eigenvalue`
    and the witness's `form_value` are reported in the unit of d, as their
    value on d / max d times (max d)^p, which is inf or nan where that
    product is out of float range. p must be a finite real >= 0, else
    NegativeExponentError, and tol_eig too, else BadParamsError.
    """
    p = _real(p, 0, "exponent must be a nonnegative real, got {!r}", NegativeExponentError)
    tol_eig = _real(tol_eig, 0, "tol_eig must be finite and >= 0, got {!r}", BadParamsError)
    src = _source(space)(p)
    spectrum = src.spectrum
    values = spectrum.values[spectrum.start:]
    top = int(values.argmax())
    lmax = float(values[top])
    holds, strict, _ = _predicate(lmax, float(values.min()), tol_eig)
    factor = _unit_factor(src.max_d, p)
    witness = None
    if not strict:
        eta = spectrum.modes([spectrum.start + top])[:, 0]
        eta.setflags(write=False)
        witness = NegativeTypeWitness(eta=eta, form_value=float(eta @ src.product(eta)) * factor)
    return NegTypeVerdict(p=float(p), holds=holds, strict=strict,
                          max_form_eigenvalue=lmax * factor, witness=witness)


def _predicate(lmax: float, lmin: float, tol_eig: float) -> tuple[bool, bool, float]:
    """(holds, strict, margin) from the largest and the smallest eigenvalue
    of M(p), in Python floats: lmax <= tol_eig times the spectral radius,
    lmax < -tol_eig times it, and the ITP margin lmax / radius - tol_eig.
    The radius is > 0, as max D_p = 1 on d / max d makes M(p) nonzero."""
    scale = -lmin if -lmin > lmax else lmax  # max(lmax, -lmin), without a call per step
    return lmax <= tol_eig * scale, lmax < -tol_eig * scale, lmax / scale - tol_eig


def _require_rows_permute(space: FiniteMetricSpace) -> None:
    """HypothesisViolatedError unless `FiniteMetricSpace.rows_permute`."""
    if not space.rows_permute:
        raise HypothesisViolatedError(
            "rows of the distance matrix are not permutations of each other")


def _unit_factor(max_d: float, p: float) -> float:
    """(max d)^p, which takes a value of degree p in the distances from
    d / max d back to the unit of d; inf where it overflows."""
    try:
        return max_d**p
    except OverflowError:
        return math.inf


def _check_search_params(p_max, tol_p, tol_eig) -> tuple[float, float, float]:
    """(p_max, tol_p, tol_eig) as floats; BadParamsError on values with which
    the search cannot end (tol_p <= 0 narrows forever) or has no meaning."""
    positive = "must be finite and > 0, got {!r}"
    return (_real(p_max, 0, "p_max " + positive, BadParamsError, open_end=True),
            _real(tol_p, 0, "tol_p " + positive, BadParamsError, open_end=True),
            _real(tol_eig, 0, "tol_eig must be finite and >= 0, got {!r}", BadParamsError))


def _itp(p_max: float, tol_p: float):
    """The root search for one matrix, as a generator: it yields each p to
    test, is sent (holds, value) there, and returns (q, (p_lo, p_hi), ITP
    iterations), or None when the predicate still holds at p_max. The bracket
    is narrowed to width tol_p, or to two adjacent floats below that.

    `holds` alone moves the bracket ends. `value`, which is <= 0 about where
    the predicate holds, only places the next probe: ITP (Oliveira and
    Takahashi, ACM TOMS 2020) takes the regula falsi point, truncates it
    towards the midpoint by kappa_1 * width^2 (kappa_2 = 2) and projects it
    into the ball around the midpoint that keeps bisection's step bound with
    n_0 = 1. The probe is then snapped to a dyadic grid far below tol_p, so
    that values differing in their last bits, as under d -> c * d, give the
    same probe (a grid finer than the float spacing at the probe, which
    would not move it, is skipped). Once regula falsi has all but found the
    root, the snapped probe can land on a bracket end; it then moves tol_p
    / 2 inside, which is nearer the midpoint, so the search keeps its
    superlinear steps instead of bisecting. A probe that still leaves the
    ball or the open bracket, as when tol_p / 2 is below the float spacing
    at the end, falls back to the midpoint. That fallback also keeps the
    step bound when a value's sign disagrees with `holds`.
    """
    holds, f_lo = yield 0.0
    if not holds:
        raise BracketFailureError("negative type fails at p = 0; input is numerically corrupt")
    p_lo = 0.0
    probe = 1.0
    while True:
        probe = min(probe, p_max)
        holds, value = yield probe
        if holds:
            p_lo, f_lo = probe, value
            if probe >= p_max:
                return None
            probe *= 2.0
        else:
            p_hi, f_hi = probe, value
            break
    w0 = p_hi - p_lo
    kappa1 = 0.2 / w0  # truncation scale, relative to the doubled bracket
    grid = 2.0 ** (math.floor(math.log2(tol_p)) - 8)
    iterations = 0
    while p_hi - p_lo > tol_p:
        width = p_hi - p_lo
        mid = (p_lo + p_hi) / 2.0
        if not p_lo < mid < p_hi:  # the ends are adjacent floats
            break
        # ITP's projection radius eps * 2^(n_max - j) - width / 2, n_0 = 1,
        # with eps = w0 / 2^(n_half + 1) the half-width that n_half =
        # ceil(log2(w0 / tol_p)) bisections reach (<= tol_p / 2): after j
        # steps the bracket is at most w0 * 2^(1 - j) wide, so the search
        # ends within n_half + 1 steps; w0 * 2^-j is exact in floats
        radius = w0 * 2.0 ** -iterations - width / 2.0
        x_f = (p_lo * f_hi - p_hi * f_lo) / (f_hi - f_lo) if f_hi > f_lo else mid
        sigma = 1.0 if mid >= x_f else -1.0
        delta = kappa1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        probe = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if grid >= math.ulp(probe):  # a finer grid would not move probe
            probe = round(probe / grid) * grid
        if probe == p_lo:
            probe += tol_p / 2.0
        elif probe == p_hi:
            probe -= tol_p / 2.0
        if not (p_lo < probe < p_hi and abs(probe - mid) <= radius):
            probe = mid
        holds, value = yield probe
        if holds:
            p_lo, f_lo = probe, value
        else:
            p_hi, f_hi = probe, value
        iterations += 1
    return (p_lo + p_hi) / 2.0, (p_lo, p_hi), iterations


def _lockstep(stack, extremes, p_max: float, tol_p: float, tol_eig: float) -> list:
    """The root searches (`_itp`) of the members of `stack`, run in lock-step.

    Each step calls `extremes(stack, p)` once, with `stack` cut down to the
    members still searching, in order, and p the list of their exponents;
    it returns the largest and the smallest eigenvalue of each M(p), as two
    arrays. The predicate (`_predicate`) is sent to each search with its
    margin. Returns, per member, what its search returns.
    """
    found: list[tuple[float, tuple[float, float], int] | None] = [None] * len(stack)
    live = [(i, _itp(p_max, tol_p)) for i in range(len(stack))]
    probes = [next(search) for _, search in live]
    while live:
        lmax, lmin = extremes(stack, probes)
        keep, probes = [], []
        for j, (top, bottom) in enumerate(zip(lmax.tolist(), lmin.tolist())):
            holds, _, margin = _predicate(top, bottom, tol_eig)
            i, search = live[j]
            try:
                probes.append(search.send((holds, margin)))
                keep.append(j)
            except StopIteration as stop:
                found[i] = stop.value
        if len(keep) < len(live):
            stack, live = stack[keep], [live[j] for j in keep]
    return found


def roundness_search(
    dists,
    p_max: float = 64.0,
    tol_p: float = 1e-9,
    tol_eig: float = 1e-9,
) -> list[tuple[float, tuple[float, float], int] | None]:
    """The root search on p, run in lock-step on a stack (m, k, k) of
    distance matrices.

    The predicate "largest eigenvalue of M(p) <= tol_eig times its spectral
    radius" is true exactly on [0, q]. Each matrix runs its own search and
    makes exactly the decisions a search of its own would: the predicate
    must hold at p = 0 (else BracketFailureError), the bracket is grown by
    doubling from 1 up to p_max, and then narrowed by ITP (`_itp`) while
    wider than tol_p, in at most ceil(log2(w0 / tol_p)) + 1 steps for a
    doubled bracket of width w0 (or until its ends are adjacent floats).
    The search runs on the distances divided by their maximum, so it
    neither overflows nor underflows at any unit of distance. The class
    forms of the stack are built once (`_class_forms`): M(p) = sum_v w_v^p
    F_v with w_v = v / max d, so each step powers s weights per matrix
    still searching, sums s forms at its own p, and makes one values-only
    solve of the stack (`spectral._eigvals`), held to tr M(p) = sum_v w_v^p
    tr F_v and ||M(p)||_F^2 = w^T G w, with G_uv = <F_u, F_v>, both built
    once per call, at O(s^2) per matrix and step; no D_p is built. One
    DEBUG line on the `roundness` logger gives the member count, the class
    count, the lock-step steps and the member-steps.

    Returns, per matrix, (q, (p_lo, p_hi), ITP iterations), or None when
    the predicate still holds at p_max (Unbounded). Bad tol_p, p_max or
    tol_eig raise BadParamsError, and a stack that `_class_forms` rejects
    NonFiniteMatrixError, NegativeEntryError, NonzeroDiagonalError,
    BadParamsError or NotSymmetricError, in that order, before any solve.
    """
    p_max, tol_p, tol_eig = _check_search_params(p_max, tol_p, tol_eig)
    d = np.asarray(dists, dtype=float)
    classes = _class_forms(d)
    steps: list[int] = []  # the members evaluated at each step

    def extremes(stack, p):
        steps.append(len(p))
        values = _eigvals(*_class_form_matrix(stack, np.array(p)))  # ascending
        return values[:, -1], values[:, 0]

    found = _lockstep(classes, extremes, p_max, tol_p, tol_eig)
    log.debug("lock-step search: %d members, %d classes, %d steps, %d member-steps",
              len(d), classes.shape[1], len(steps), sum(steps))
    return found


def _class_forms(d: np.ndarray) -> np.ndarray:
    """The distance-class forms of the stack d (m, k, k), k >= 2, of
    matrices that pass `metric._check_distances` and `spectral.symmetrized`
    (then symmetrized), each else its error, with at most CLASS_FORM_LIMIT
    distinct positive entries in all; BadParamsError on other shapes or more.

    Row v of matrix j, for each of the s distinct positive entries v of the
    whole stack, is the weight w_v = v / max d_j, then F_v = B^T A_v B
    symmetrized, with A_v the 0/1 matrix of the entries of d_j equal to v
    and B the zero-sum basis (`hyperplane_basis`), then tr F_v, then row v
    of the Gram matrix G_uv = <F_u, F_v>: an (m, s, (k-1)^2 + s + 2)
    array, from which `_class_form_matrix` makes M(p) of d / max d with its
    trace and squared Frobenius norm. On d / max d the eigenvalues of M(p)
    scale by (max d)^-p, so no sign and no relative test changes, and no
    power of a distance in (0, 1] overflows or makes a matrix all zero. A
    class that d_j lacks has F_v = 0 and the weight 1, whose powers stay
    finite."""
    if d.ndim != 3 or d.shape[1] != d.shape[2] or d.shape[1] < 2:
        raise BadParamsError(f"need a stack (m, k, k) of matrices with k >= 2, got {d.shape}")
    _check_distances(d)
    d = symmetrized(d)
    # the distinct nonzero entries, by a sort: `np.unique` without a return
    # option imports numpy.ma on recent numpy, which a fresh process pays
    values = np.sort(d[d != 0])
    values = np.append(values[:-1][values[1:] != values[:-1]], values[-1:])
    max_d = d.max(axis=(-2, -1), keepdims=True)
    if len(values) > CLASS_FORM_LIMIT:
        raise BadParamsError(f"a stack may have at most {CLASS_FORM_LIMIT} distinct "
                             f"distances, got {len(values)}")
    m, s, k = len(d), len(values), d.shape[-1]
    members = d[:, None] == values[:, None, None]  # (m, s, k, k)
    b = hyperplane_basis(k)
    square = b.T @ members @ b
    end = 1 + (k - 1) ** 2
    classes = np.empty((m, s, end + 1 + s))
    classes[:, :, 0] = values / max_d.reshape(m, 1)
    classes[:, :, 0][~members.reshape(m, s, k * k).any(axis=-1)] = 1.0
    forms = classes[:, :, 1:end]
    forms[:] = ((square + square.swapaxes(-1, -2)) / 2.0).reshape(m, s, end - 1)
    classes[:, :, end] = forms[:, :, ::k].sum(axis=-1)  # every k-th entry: the diagonal
    classes[:, :, end + 1:] = forms @ forms.swapaxes(1, 2)
    return classes


def _class_form_matrix(classes: np.ndarray,
                       p: np.ndarray) -> tuple[np.ndarray, list, list]:
    """M(p) of each matrix of a stack of class forms (`_class_forms`), with
    p one exponent per matrix, and its trace and squared Frobenius norm, as
    lists of floats: sum_v w_v^p F_v, sum_v w_v^p tr F_v and w^T G w, from
    one power of the (m, s) weights and three small batched products."""
    weights = classes[:, :, 0] ** p[:, None]
    s = classes.shape[1]
    k = math.isqrt(classes.shape[-1] - 2 - s)
    rows = weights[:, None]
    invariants = rows @ classes[:, :, -1 - s:]  # tr M(p), then w^T G
    return ((rows @ classes[:, :, 1:-1 - s]).reshape(-1, k, k), invariants[:, 0, 0].tolist(),
            (invariants[:, :, 1:] @ weights[:, :, None]).ravel().tolist())


def _space_search(space: FiniteMetricSpace, p_max: float, tol_p: float, tol_eig: float):
    """The root search of `roundness_search` for one space, each step on
    the spectrum of M(p) of its source (`_source`)."""
    p_max, tol_p, tol_eig = _check_search_params(p_max, tol_p, tol_eig)

    def extremes(sources, p):
        spectrum = sources[0](p[0]).spectrum
        values = spectrum.values[spectrum.start:]
        return values.max(keepdims=True), values.min(keepdims=True)

    (found,) = _lockstep(np.array([_source(space)], dtype=object), extremes,
                         p_max, tol_p, tol_eig)
    return found


def generalized_roundness(
    space: FiniteMetricSpace,
    p_max: float = 64.0,
    tol_p: float = 1e-9,
    tol_eig: float = 1e-9,
) -> RoundnessResult:
    """Compute the supremal exponent q with p-negative type.

    The root search is that of `roundness_search`, with each step on the
    space's source (`_source`): the bracket is grown by doubling from 1 and
    narrowed by ITP to width tol_p; q is its midpoint and `iterations`
    counts the ITP steps. If the predicate still holds at p_max the result
    is Unbounded (constant-distance spaces, for example, have negative type
    at every exponent). On row-permutation inputs
    (`FiniteMetricSpace.rows_permute`) D_q must be singular: `det_normalized`
    is min |eigenvalue| / max |eigenvalue| of D_q, a scale-free measure that
    is about 0 at q (a warning is logged above CERTIFICATE_TOL), and the
    certificate is the unit mode of D_q at its smallest |eigenvalue| other
    than r(q) (the first such entry), first nonzero entry positive, kept
    when max |D_q u| passes CERTIFICATE_TOL. Both read D_q of d / max d,
    which has the same eigenvectors and eigenvalue ratios; on a space with
    an order no matrix is built or eigendecomposed. tol_p and p_max must be
    finite and > 0 and tol_eig finite and >= 0; anything else raises
    BadParamsError before any eigensolve.
    """
    row_perm = space.rows_permute
    method = METHOD_DETERMINANT_FAST_PATH if row_perm else METHOD_SPECTRAL_BISECTION
    found = _space_search(space, p_max, tol_p, tol_eig)
    if found is None:
        log.debug("negative type still holds at p_max=%g; unbounded", p_max)
        return RoundnessResult(status="Unbounded", q=None, bracket=None,
                               iterations=0, method=method,
                               certificate=None, det_normalized=None)
    q, bracket, iterations = found
    log.debug("ITP search converged: q=%.12g in %d iterations", q, iterations)

    certificate = None
    det_norm = None
    if row_perm:
        src = _source(space)(q)
        magnitudes = np.abs(src.spectrum.values)  # D_q's: entry 0 is r(q), the rest M(q)'s
        det_norm = float(np.min(magnitudes) / np.max(magnitudes))
        if det_norm > CERTIFICATE_TOL:
            log.warning("determinant cross-check at q=%.12g is %.3e, expected ~0", q, det_norm)
        # r(q)'s mode is 1, which is not zero-sum
        u = src.spectrum.modes([1 + int(np.argmin(magnitudes[1:]))])[:, 0]
        if np.max(np.abs(src.product(u))) <= CERTIFICATE_TOL:  # relative: max |D_q| is 1
            u.setflags(write=False)
            certificate = u
    return RoundnessResult(status="Finite", q=q, bracket=bracket,
                           iterations=iterations, method=method,
                           certificate=certificate, det_normalized=det_norm)


def kernel_coincidence_check(space: FiniteMetricSpace, q: float) -> KernelCoincidenceReport:
    """Verify that zero-sum form-nullifying vectors and null vectors of D_q
    coincide at the supremal exponent q.

    On a row-permutation space M(q) has the spectrum of D_q without r(q), so
    both kernels are read off one mask of D_q's spectrum, from the space's
    source (`_source`): the eigenvalues within CERTIFICATE_TOL of 0, on the
    scale max |D_q| = 1 of d / max d, counted with their multiplicity.
    r(q) >= 1 is never in it, so the form's kernel is the whole of D_q's,
    and both reported dimensions are one count.
    One pass over the null modes, a block at a time, takes from each mode u
    the forward defect max |D_q u|, by the source's product, not by the
    eigensolver, and the backward defect |sum u| / sqrt(n), for u must be
    zero-sum; the verdict holds when both are within CERTIFICATE_TOL. A
    space with an order makes no n x n array. Requires a finite q >= 0
    (ValueError) and the row-permutation property (`_require_rows_permute`).
    """
    q = _real(q, 0, "kernel coincidence requires a finite roundness exponent q >= 0, got {!r}")
    _require_rows_permute(space)
    src = _source(space)(q)
    spectrum = src.spectrum  # D_q's, with r(q) >= 1 at entry 0, never in the kernel
    kernel = np.flatnonzero(np.abs(spectrum.values) <= CERTIFICATE_TOL)
    step = max(1, ROW0_BLOCK // space.n)
    max_defect = 0.0
    for k in range(0, len(kernel), step):
        u = spectrum.modes(kernel[k:k + step])
        max_defect = max(max_defect, float(np.abs(src.product(u)).max()),
                         float(np.abs(u.sum(axis=0)).max() / np.sqrt(space.n)))
    dim = int(spectrum.multiplicities[kernel].sum())
    return KernelCoincidenceReport(holds=max_defect <= CERTIFICATE_TOL, max_defect=max_defect,
                                   form_kernel_dim=dim, matrix_kernel_dim=dim)


def gr_inequality_check(
    space: FiniteMetricSpace,
    p: float,
    a_idx,
    b_idx,
    tol: float = 1e-9,
) -> GrInequalityResult:
    """Evaluate the two-family roundness inequality for one choice of points.

    lhs sums d(a_k, a_l)^p + d(b_k, b_l)^p over pairs k < l inside each
    family; rhs sums d(a_j, b_i)^p over all cross pairs. Repeated indices are
    allowed (the inequality quantifies over all choices of points). It holds
    when lhs <= rhs + tol * max(lhs, rhs), decided on d / max d, so the
    verdict does not depend on the unit of distance and no power overflows;
    lhs and rhs are reported in the unit of d, as their value on d / max d
    times (max d)^p, inf or nan where that is out of float range. p and tol
    are finite reals >= 0 (else NegativeExponentError, BadParamsError), each
    index an integer in 0..n-1 (IndexOutOfRangeError); d passes `_source`'s.
    """
    p = _real(p, 0, "exponent must be a nonnegative real, got {!r}", NegativeExponentError)
    tol = _real(tol, 0, "tol must be finite and >= 0, got {!r}", BadParamsError)
    a, bb = (_integers(x, 0, space.n - 1, f"point index {{!r}} out of range for {space.n} points",
                       IndexOutOfRangeError) for x in (a_idx, b_idx))
    if len(a) != len(bb):
        raise LengthMismatchError(f"family sizes differ: {len(a)} vs {len(bb)}")
    if len(a) < 1:
        raise LengthMismatchError("families must contain at least one point")
    max_d = space._max_d
    m = len(a)
    within = [(k, l) for k in range(m) for l in range(k + 1, m)]
    # only the entries the sums read: the pairs k < l inside each family,
    # then the m x m cross block row by row
    rows = [x[k] for x in (a, bb) for k, _ in within] + [i for i in a for _ in bb]
    cols = [x[l] for x in (a, bb) for _, l in within] + bb * m
    dp = _power(space.dist[rows, cols] / max_d, p)
    pairs = len(within)
    lhs = 0.0
    for v in (dp[:pairs] + dp[pairs:2 * pairs]).tolist():  # left to right over (k, l)
        lhs += v
    rhs = float(np.sum(dp[2 * pairs:].reshape(m, m)))
    holds = bool(lhs <= rhs + tol * max(lhs, rhs))
    factor = _unit_factor(max_d, p)
    return GrInequalityResult(lhs=lhs * factor, rhs=rhs * factor, holds=holds)
