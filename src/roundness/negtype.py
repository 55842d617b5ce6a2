"""Negative-type verdicts and the generalized roundness of a finite metric space.

The quadratic form eta^T D_p eta over zero-sum weight vectors eta is captured
by the (n-1)x(n-1) matrix M(p) = B^T D_p B, with B an orthonormal basis of the
zero-sum hyperplane. The space has p-negative type exactly when M(p) is
negative semidefinite, and strict p-negative type when M(p) is negative
definite. The exponents with p-negative type form an interval [0, q], so q is
where the largest eigenvalue of M(p) changes sign. The root search
(`roundness_search`) brackets q by doubling and narrows the bracket by ITP,
which reads the eigenvalue's value to place each probe and keeps
bisection's worst-case step count. It runs on the distances divided by their
maximum, on a stack of same-size distance matrices in lock-step, each matrix
making the decisions a search of its own would; `generalized_roundness` is
its stack of one. Each step takes the spectrum of M(p) from one stacked
eigensolve, or, for a stack of one matrix that is circulant or in cube
order (`spectral._row0_order`), from the transform of row 0 of D_p
(`spectral._row0_spectrum`): D_p 1 = r(p) 1, so M(p) has the spectrum of
D_p without r(p).

For spaces whose distance-matrix rows are permutations of each other (all
vertex-transitive graphs), q is also the first exponent where det(D_p)
vanishes; that criterion is run as a cross-check and yields a null-vector
certificate. At q the zero-sum vectors nullifying the form coincide with the
null space of D_q; `kernel_coincidence_check` verifies both inclusions
numerically. On a space that is circulant or in cube order
(`FiniteMetricSpace.order`) every consumer after the search reads row 0 too:
the certificate, `det_normalized`, both kernels and `check_negative_type`
take their eigenvalues from the transform of row 0 and their vectors from
the transform's modes (`spectral._row0_modes`), and apply D_p to a vector by
convolution (`spectral._row0_product`), with no n x n matrix built. Every
other space is eigendecomposed densely. Every tolerance is relative to the
scale of the matrix it tests (the spectral radius of M(p), max |D_q| or the
larger side of the roundness inequality), so no result depends on the unit
of distance. The root search, the D_q tests, `check_negative_type` and
`gr_inequality_check` power d / max d, which neither overflows nor
underflows at any unit, and every D_q test uses CERTIFICATE_TOL.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    BracketFailureError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeExponentError,
    NonFiniteMatrixError,
)
from .metric import (
    FiniteMetricSpace,
    NegativeTypeWitness,
    _check_tolerance,
    _power,
    has_row_permutation_property,
    hyperplane_basis,
    power_matrix,
    quadratic_form,
)
from .spectral import (
    ROW0_BLOCK,
    _row0_modes,
    _row0_multiplicities,
    _row0_order,
    _row0_product,
    _row0_spectrum,
    eigensym,
)

log = logging.getLogger("roundness")

METHOD_DETERMINANT_FAST_PATH = "DeterminantFastPath"
METHOD_SPECTRAL_BISECTION = "SpectralBisection"

CERTIFICATE_TOL = 1e-6


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
    B^T D_p B, symmetrized. Takes what `power_matrix` takes, so a stack of
    distance matrices gives the stack of their forms."""
    dp = power_matrix(space, p)
    b = hyperplane_basis(dp.shape[-1])
    m = b.T @ dp @ b
    return (m + m.swapaxes(-1, -2)) / 2.0


def _form_spectrum(space, p):
    """Spectrum of M(p), its largest eigenvalue, and its spectral radius: the
    scale every form tolerance is relative to. For a stack of distance
    matrices, the last two are arrays over the stack."""
    sd = eigensym(negtype_form_matrix(space, p))
    lmax, lmin = sd.eigenvalues[..., 0], sd.eigenvalues[..., -1]
    return sd, lmax, np.maximum(lmax, -lmin)  # = max(|lmax|, |lmin|) as lmax >= lmin


def _search_spectrum(d: np.ndarray):
    """The source of each search step's largest eigenvalue and spectral
    radius of M(p), a function of the live stack and its exponents.

    For a stack of one circulant or cube-order matrix (`_row0_order`),
    D_p has the same structure, D_p 1 = r(p) 1 and D_p is symmetric, so
    1^perp is invariant and the spectrum of M(p) is that of D_p without
    r(p): `_row0_spectrum` of row 0 of D_p with frequency 0 dropped. Every
    other stack takes the dense form spectrum (`_form_spectrum`).
    """
    order = _row0_order(d[0]) if len(d) == 1 else None
    if order is None:
        return lambda d, p: _form_spectrum(d, p)[1:]

    def row_spectrum(d, p):
        _, lmax, scale = _row0_form_spectrum(order, _power(d[0, 0], float(p[0])))
        return lmax[None], scale[None]

    return row_spectrum


def _row0_form_spectrum(order: str, row: np.ndarray):
    """The spectrum of M(p) for the matrix D_p in `order` with row 0 `row`,
    each distinct value once: `_row0_spectrum` without frequency 0, whose
    value is r(p), then its largest value and its spectral radius."""
    values = _row0_spectrum(order, row)[1:]
    lmax = values.max()
    return values, lmax, np.maximum(lmax, -values.min())


def _unit_row(space: FiniteMetricSpace) -> np.ndarray:
    """Row 0 of d / max d, which holds every distance of a space with an
    order (`FiniteMetricSpace.order`)."""
    row = space.dist[0]
    return row / row.max()


def check_negative_type(space: FiniteMetricSpace, p: float, tol_eig: float = 1e-9) -> NegTypeVerdict:
    """Decide (strict) p-negative type from the spectrum of the restricted form.

    The largest eigenvalue lmax of M(p) decides: holds iff lmax <= tol,
    strict iff lmax < -tol (tolerances relative to the spectral radius of
    M(p)). When not strict, the witness is the top eigenvector lifted back to
    a zero-sum weight vector, unit norm, first nonzero entry positive.
    On a space with an order (`FiniteMetricSpace.order`) the spectrum is
    the transform of row 0 of D_p without frequency 0, and the witness is
    the mode (`spectral._row0_modes`) of its largest value (the lowest such
    frequency), with its form value computed by convolution; no matrix is
    built. The form is built on d / max d, so the verdict neither
    overflows nor underflows at any unit of distance; `max_form_eigenvalue`
    and the witness's `form_value` are reported in the unit of d, as their
    value on d / max d times (max d)^p, which is inf or nan where that
    product is out of float range. tol_eig must be finite and >= 0, else
    BadParamsError.
    """
    if p < 0:
        raise NegativeExponentError(f"exponent must be nonnegative, got {p}")
    _check_tolerance("tol_eig", tol_eig)
    order = space.order
    if order is None:
        max_d = float(space.dist.max())
        unit = space.dist / max_d
        sd, lmax, scale = _form_spectrum(unit, p)
    else:
        max_d = float(space.dist[0].max())
        row = _power(space.dist[0] / max_d, p)
        values, lmax, scale = _row0_form_spectrum(order, row)
    lmax, scale = float(lmax), float(scale)
    holds = lmax <= tol_eig * scale
    strict = lmax < -tol_eig * scale
    factor = _unit_factor(max_d, p)
    witness = None
    if not strict:
        if order is None:
            eta = hyperplane_basis(space.n) @ sd.eigenvectors[:, 0]
            eta = _sign_normalize(eta / np.linalg.norm(eta))
            form_value = quadratic_form(power_matrix(unit, p), eta)
        else:
            eta = _row0_modes(order, space.n, [1 + int(values.argmax())])[:, 0]
            form_value = float(eta @ _row0_product(order, row, eta))
        eta.setflags(write=False)
        witness = NegativeTypeWitness(eta=eta, form_value=form_value * factor)
    return NegTypeVerdict(p=float(p), holds=holds, strict=strict,
                          max_form_eigenvalue=lmax * factor, witness=witness)


def _unit_factor(max_d: float, p: float) -> float:
    """(max d)^p, which takes a value of degree p in the distances from
    d / max d back to the unit of d; inf where it overflows."""
    try:
        return max_d**p
    except OverflowError:
        return math.inf


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def _check_search_params(p_max: float, tol_p: float, tol_eig: float) -> None:
    """Reject root-search parameters with which the search cannot end (tol_p
    <= 0 narrows forever) or has no meaning (NaN, infinity, negative)."""
    if not (math.isfinite(tol_p) and tol_p > 0):
        raise BadParamsError(f"tol_p must be finite and > 0, got {tol_p}")
    _check_tolerance("tol_eig", tol_eig)
    if not (math.isfinite(p_max) and p_max > 0):
        raise BadParamsError(f"p_max must be finite and > 0, got {p_max}")


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
    would not move it, is skipped); a snapped probe that leaves the ball or
    the open bracket falls back to the midpoint. That fallback also keeps
    the step bound when a value's sign disagrees with `holds`.
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
        if not (p_lo < probe < p_hi and abs(probe - mid) <= radius):
            probe = mid
        holds, value = yield probe
        if holds:
            p_lo, f_lo = probe, value
        else:
            p_hi, f_hi = probe, value
        iterations += 1
    return (p_lo + p_hi) / 2.0, (p_lo, p_hi), iterations


def _unit_distances(dists: np.ndarray) -> np.ndarray:
    """A distance matrix, or each matrix of a stack, divided by its largest
    entry. The eigenvalues of M(p) and D_p then scale by (max d)^-p, so no
    sign and no relative test changes, and no power of a distance in (0, 1]
    overflows or makes a matrix all zero."""
    return dists / dists.max(axis=(-2, -1), keepdims=True)


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
    neither overflows nor underflows at any unit of distance. Each step
    evaluates every matrix still searching at its own p, with one stacked
    eigensolve; a stack of one circulant or cube-order matrix is evaluated
    on the transform of row 0 of D_p instead (`_search_spectrum`), with the
    same predicate and the same ITP. Returns, per matrix, (q, (p_lo, p_hi),
    ITP iterations), or None when the predicate still holds at p_max
    (Unbounded). Bad tol_p, p_max or tol_eig raise BadParamsError, and
    non-finite distances NonFiniteMatrixError, before any eigensolve.
    """
    _check_search_params(p_max, tol_p, tol_eig)
    d = np.asarray(dists, dtype=float)
    if not np.isfinite(d).all():
        raise NonFiniteMatrixError("distance matrix contains non-finite entries")
    d = _unit_distances(d)
    found: list[tuple[float, tuple[float, float], int] | None] = [None] * len(d)
    spectrum = _search_spectrum(d)
    # the matrices still searching, in the order of their distances in d
    live = [(i, _itp(p_max, tol_p)) for i in range(len(d))]
    probes = [next(search) for _, search in live]
    while live:
        lmax, scale = spectrum(d, np.array(probes))
        # scale > 0: the largest entry of D_p is 1, so M(p) is not 0
        holds, values = lmax <= tol_eig * scale, lmax / scale - tol_eig
        keep, probes = [], []
        for j, sent in enumerate(zip(holds.tolist(), values.tolist())):
            i, search = live[j]
            try:
                probes.append(search.send(sent))
                keep.append(j)
            except StopIteration as stop:
                found[i] = stop.value
        if len(keep) < len(live):
            d, live = d[keep], [live[j] for j in keep]
    return found


def generalized_roundness(
    space: FiniteMetricSpace,
    p_max: float = 64.0,
    tol_p: float = 1e-9,
    tol_eig: float = 1e-9,
) -> RoundnessResult:
    """Compute the supremal exponent q with p-negative type.

    The root search is `roundness_search` on the stack of this one matrix:
    the bracket is grown by doubling from 1 and narrowed by ITP to width
    tol_p; q is its midpoint and `iterations` counts the ITP steps. If
    the predicate still holds at p_max the result is Unbounded
    (constant-distance spaces, for example, have negative type at every
    exponent). On row-permutation inputs (`has_row_permutation_property`)
    D_q must be singular: `det_normalized` is min |eigenvalue| / max
    |eigenvalue| of D_q, a scale-free measure that is about 0 at q (a
    warning is logged above CERTIFICATE_TOL), and a unit null vector of D_q
    orthogonal to all-ones is attached as a certificate; both read D_q of
    d / max d, which has the same eigenvectors and eigenvalue ratios. On a
    space with an order (`FiniteMetricSpace.order`) both come from row 0 of
    D_q: the eigenvalues are its transform, and the certificate is the mode
    (`spectral._row0_modes`) at the smallest |eigenvalue| of a frequency
    t >= 1 (the lowest such t), kept when its residual D_q u, computed by
    convolution, passes; no matrix is built or eigendecomposed. tol_p
    and p_max must be finite and > 0 and tol_eig finite and >= 0; anything
    else raises BadParamsError before any eigensolve.
    """
    row_perm = has_row_permutation_property(space)
    method = METHOD_DETERMINANT_FAST_PATH if row_perm else METHOD_SPECTRAL_BISECTION

    (found,) = roundness_search(space.dist[None], p_max=p_max, tol_p=tol_p, tol_eig=tol_eig)
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
        if space.order is None:
            dq = power_matrix(_unit_distances(space.dist), q)
            sd = eigensym(dq)
            magnitudes = np.abs(sd.eigenvalues)
            certificate = _null_certificate(sd, dq, space.n)
        else:
            row = _power(_unit_row(space), q)
            magnitudes = np.abs(_row0_spectrum(space.order, row))
            certificate = _row0_certificate(space.order, row, magnitudes)
        det_norm = float(np.min(magnitudes) / np.max(magnitudes))
        if det_norm > CERTIFICATE_TOL:
            log.warning("determinant cross-check at q=%.12g is %.3e, expected ~0", q, det_norm)
    return RoundnessResult(status="Finite", q=q, bracket=bracket,
                           iterations=iterations, method=method,
                           certificate=certificate, det_normalized=det_norm)


def _null_certificate(sd, dq, n):
    idx = int(np.argmin(np.abs(sd.eigenvalues)))
    u = sd.eigenvectors[:, idx].copy()
    u -= np.sum(u) / n  # project onto the zero-sum hyperplane
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return None
    u = _sign_normalize(u / norm)
    if np.max(np.abs(dq @ u)) > CERTIFICATE_TOL:  # relative: max |D_q| is 1
        return None
    u.setflags(write=False)
    return u


def _row0_certificate(order, row, magnitudes):
    """The unit zero-sum mode at the frequency t >= 1 of least |eigenvalue|
    of the matrix D_q in `order` with row 0 `row`, or None where
    max |D_q u| > CERTIFICATE_TOL (relative: max |D_q| is 1)."""
    u = _row0_modes(order, len(row), [1 + int(np.argmin(magnitudes[1:]))])[:, 0]
    if np.max(np.abs(_row0_product(order, row, u))) > CERTIFICATE_TOL:
        return None
    u.setflags(write=False)
    return u


def kernel_coincidence_check(space: FiniteMetricSpace, q: float) -> KernelCoincidenceReport:
    """Verify that zero-sum form-nullifying vectors and null vectors of D_q
    coincide at the supremal exponent q.

    Forward: every kernel vector of the restricted form M(q), lifted back to
    a zero-sum vector u, must satisfy D_q u = 0 (max-norm). Backward: every
    null vector of D_q must be orthogonal to all-ones. Both read D_q and
    M(q) of d / max d, whose largest entry is exactly 1. On a
    row-permutation space M(q) has the spectrum of D_q without r(q), so
    both kernels are the eigenvalues within CERTIFICATE_TOL of 0, on the
    D_q scale max |D_q| = 1, and the verdict uses the same tolerance. On a
    space with an order (`FiniteMetricSpace.order`) both kernels are sets
    of frequencies of the transform of row 0 of D_q, counted with their
    multiplicity, the form's without frequency 0, and each defect is read
    off the frequency's mode (`spectral._row0_modes`), with D_q u computed
    by convolution, a block of modes at a time; no matrix is built or
    eigendecomposed. Requires the row-permutation property
    (`has_row_permutation_property`, else HypothesisViolatedError) and a
    finite q.
    """
    if not has_row_permutation_property(space):
        raise HypothesisViolatedError(
            "rows of the distance matrix are not permutations of each other"
        )
    if q is None or not np.isfinite(q):
        raise ValueError("kernel coincidence requires a finite roundness exponent")
    if space.order is not None:
        max_defect, form_dim, matrix_dim = _row0_kernels(space.order,
                                                         _power(_unit_row(space), q))
    else:
        unit = _unit_distances(space.dist)
        dq = power_matrix(unit, q)
        sd_m = eigensym(negtype_form_matrix(unit, q))
        form_kernel = np.abs(sd_m.eigenvalues) <= CERTIFICATE_TOL
        u = hyperplane_basis(space.n) @ sd_m.eigenvectors[:, form_kernel]
        sd_d = eigensym(dq)
        matrix_kernel = np.abs(sd_d.eigenvalues) <= CERTIFICATE_TOL
        v = sd_d.eigenvectors[:, matrix_kernel]
        defects = np.concatenate(([0.0], np.max(np.abs(dq @ u), axis=0),
                                  np.abs(np.sum(v, axis=0)) / np.sqrt(space.n)))
        max_defect = float(np.max(defects))
        form_dim, matrix_dim = int(np.sum(form_kernel)), int(np.sum(matrix_kernel))
    return KernelCoincidenceReport(holds=max_defect <= CERTIFICATE_TOL, max_defect=max_defect,
                                   form_kernel_dim=form_dim, matrix_kernel_dim=matrix_dim)


def _row0_kernels(order: str, row: np.ndarray) -> tuple[float, int, int]:
    """The largest kernel defect and the dimensions of the kernels of M(q)
    and of D_q, for the matrix D_q in `order` with row 0 `row`."""
    n = len(row)
    counts = _row0_multiplicities(order, n)
    matrix_kernel = np.flatnonzero(np.abs(_row0_spectrum(order, row)) <= CERTIFICATE_TOL)
    form_kernel = matrix_kernel[matrix_kernel > 0]  # M(q) has no frequency 0
    defect = 0.0
    step = max(1, ROW0_BLOCK // n)  # modes at a time, so no n x n array is made
    for k in range(0, len(matrix_kernel), step):
        ts = matrix_kernel[k:k + step]
        modes = _row0_modes(order, n, ts)
        forward = np.abs(_row0_product(order, row, modes[:, ts > 0])).max(initial=0.0)
        backward = np.abs(modes.sum(axis=0)).max() / np.sqrt(n)
        defect = max(defect, float(forward), float(backward))
    return defect, int(counts[form_kernel].sum()), int(counts[matrix_kernel].sum())


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
    times (max d)^p, inf or nan where that is out of float range. tol must
    be finite and >= 0, else BadParamsError.
    """
    _check_tolerance("tol", tol)
    a = [int(i) for i in a_idx]
    bb = [int(i) for i in b_idx]
    if len(a) != len(bb):
        raise LengthMismatchError(f"family sizes differ: {len(a)} vs {len(bb)}")
    if len(a) < 1:
        raise LengthMismatchError("families must contain at least one point")
    for i in a + bb:
        if not 0 <= i < space.n:
            raise IndexOutOfRangeError(f"point index {i} out of range for {space.n} points")
    max_d = float(space.dist.max())
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
