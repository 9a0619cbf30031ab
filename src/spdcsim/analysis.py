"""Joint-distribution scans, correlation statistics and waist sweeps.

A scan steps both detectors along one Fourier-plane axis and collects the
coincidence rate on the Cartesian product of positions. The resulting grid,
normalized to unit total, is treated as a probability mass function on the
momentum nodes; its second moments give the Pearson coefficient and the
principal-axis orientation used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import MODE_GAUSSIAN_APPROX, SINC_GAUSSIAN_GAMMA, TransverseWavevector
from .trace import (
    DetectionAssignment,
    OpticalSystem,
    _log_intensity,
    _mismatches,
    _pinhole_boxes,
    _trace_gram,
    pinhole_smooth,
    resolve_pair,
    spatial_biphoton,
)

AXES = ("x", "y")

# softest-direction variance is capped at this multiple of the stiffest one
# when sizing windows for ridge-like distributions (e.g. zero walk-off)
_VARIANCE_RATIO_CAP = 25.0

_WINDOW_SIGMAS = 3.0


class DegenerateDistributionError(ValueError):
    """Joint distribution carries no usable two-dimensional support."""


class BracketError(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class ScanPlan:
    """One-axis-by-one-axis scan layout in the two Fourier planes.

    Ranges are detector positions in meters; the coordinate orthogonal to
    the scanned axis stays fixed at ``orthogonal`` for the whole scan.
    """

    axis: str
    assignment: DetectionAssignment
    range_a: tuple[float, float]
    range_b: tuple[float, float]
    points: int
    orthogonal: float = 0.0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if self.points < 8:
            raise ValueError(f"points must be >= 8, got {self.points}")
        for label, rng in (("range_a", self.range_a), ("range_b", self.range_b)):
            if not rng[0] < rng[1]:
                raise ValueError(f"{label} must satisfy min < max, got {rng}")


@dataclass(frozen=True)
class JointDistribution:
    """Coincidence-rate grid over detector A (rows) and detector B (columns)."""

    axis: str
    assignment: DetectionAssignment
    positions_a: np.ndarray  # m
    positions_b: np.ndarray  # m
    momenta_a: np.ndarray  # rad/m
    momenta_b: np.ndarray  # rad/m
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (len(self.positions_a), len(self.positions_b)):
            raise ValueError("values shape does not match the scan axes")
        for name, momenta, positions in (
            ("momenta_a", self.momenta_a, self.positions_a),
            ("momenta_b", self.momenta_b, self.positions_b),
        ):
            if np.shape(momenta) != (len(positions),):
                raise ValueError(
                    f"{name} has shape {np.shape(momenta)}, expected ({len(positions)},)"
                )
        # NaN and +-inf reach the min or the max; initial=0.0 leaves an empty
        # grid to the no-positive check instead of a reduction error
        low, high = v.min(initial=0.0), v.max(initial=0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("distribution contains non-finite entries")
        if low < 0.0:
            raise ValueError("distribution contains negative entries")
        if not high > 0.0:
            raise ValueError("distribution has no positive entries")


@dataclass(frozen=True)
class CorrelationSummary:
    """Second-moment reduction of a joint distribution in momentum space."""

    pearson: float
    covariance: np.ndarray  # 2x2, rad^2/m^2
    principal_angle: float  # rad, in (-pi/2, pi/2]
    peak: tuple[float, float]  # rad/m


@dataclass(frozen=True)
class AssignmentComparison:
    """Summaries of the same scan axis under both polarizer settings.

    Both come from one summarized scan: the oa grid is the ea grid
    transposed (see ``assignment_sensitivity``). Pearson is therefore the
    same under both assignments by construction; only the principal axis
    mirrors, with angle_oa = 1/2 atan2(2c, v_b - v_a) for the ea covariance
    entries v_a, v_b and c.
    """

    pearson_ea: float
    pearson_oa: float
    angle_ea: float
    angle_oa: float

    @property
    def angle_difference(self) -> float:
        """Smallest angle between the two principal axes (orientations)."""
        diff = abs(self.angle_ea - self.angle_oa)
        return min(diff, math.pi - diff)


def _momentum_pair(axis, assignment, orthogonal, system: OpticalSystem, grid_a, grid_b):
    """Detector momenta as TransverseWavevectors for a scan along ``axis``.

    ``orthogonal`` is the fixed detector position (m) on the other axis, a
    scalar or an array that broadcasts with the grids.
    """
    fourier = system.fourier
    lam_a, lam_b = resolve_pair(fourier.wavelength_e, fourier.wavelength_o, assignment)
    ortho_a = fourier.position_to_momentum(orthogonal, lam_a)
    ortho_b = fourier.position_to_momentum(orthogonal, lam_b)
    if axis == "y":
        q_A = TransverseWavevector(qx=ortho_a, qy=grid_a)
        q_B = TransverseWavevector(qx=ortho_b, qy=grid_b)
    else:
        q_A = TransverseWavevector(qx=grid_a, qy=ortho_a)
        q_B = TransverseWavevector(qx=grid_b, qy=ortho_b)
    return q_A, q_B


def run_scan(
    plan: ScanPlan,
    system: OpticalSystem,
    *,
    pinhole_diameter: float = 0.0,
    normalize: bool = True,
) -> JointDistribution:
    """Evaluate the coincidence rate over the plan's Cartesian position grid.

    In the Gaussian mode's closed form the log-intensity is an exact
    quadratic in the scan momenta, so the rates are one exponential of two
    length-N terms and one N x N outer product. The exact-sinc mode takes
    ``np.abs(spatial_biphoton(...)) ** 2`` on broadcast momentum axes. Both
    are the grid of ``_plan_scan`` at the pump of ``system``; the pinhole is
    ``pinhole_smooth``, which builds and frees each axis's box in turn. A
    grid with no positive cell raises DegenerateDistributionError, whether
    or not it is normalized.
    """
    return _plan_scan(plan, system, pinhole_diameter, normalize)(None)


def _plan_positions(plan):
    """The detector positions (m) of the plan's two axes and their steps, the pinhole's."""
    positions_a = np.linspace(plan.range_a[0], plan.range_a[1], plan.points)
    positions_b = np.linspace(plan.range_b[0], plan.range_b[1], plan.points)
    steps = (positions_a[1] - positions_a[0], positions_b[1] - positions_b[0])
    return positions_a, positions_b, steps


def _plan_scan(plan, system, pinhole_diameter, normalize=True):
    """The scan of ``plan`` as a function of the isotropic pump waist (None: as given).

    The plan's work, which no pump term enters, is done once: positions,
    momenta, the mismatches at the nodes (``_scan_mismatches``) or the
    exact-sinc wavevectors and the paraxial checks. The sweeps take the
    grid unnormalized and with no pinhole, and read its smoothed moments
    from vectors (``_moments``). Per waist, about the window midpoints
    (c_a, c_b), log I = r_a(q_a) + r_b(q_b) + 2 h (q_a - c_a)(q_b - c_b):
    r_a along the row through c_b, r_b along the column through c_a less
    log I there, h = J_a^T alpha J_b. Two length-N terms go into one N x N
    outer product and one in-place exponential gives the rates. A grid with
    no positive cell raises DegenerateDistributionError before any
    normalization.
    """
    n = plan.points
    positions_a, positions_b, steps = _plan_positions(plan)
    fourier = system.fourier
    lam_a, lam_b = resolve_pair(fourier.wavelength_e, fourier.wavelength_o, plan.assignment)
    momenta_a = np.asarray(fourier.position_to_momentum(positions_a, lam_a))
    momenta_b = np.asarray(fourier.position_to_momentum(positions_b, lam_b))
    gaussian = system.mode == MODE_GAUSSIAN_APPROX
    if gaussian:
        centre_a = 0.5 * (momenta_a[0] + momenta_a[-1])
        centre_b = 0.5 * (momenta_b[0] + momenta_b[-1])
        jacobian, d, (q_A, q_B) = _scan_mismatches(
            plan.axis, plan.assignment, system, plan.orthogonal,
            np.concatenate([momenta_a, np.full(n, centre_a), [centre_a]]),
            np.concatenate([np.full(n, centre_b), momenta_b, [centre_b]]),
        )
        u, v = momenta_a - centre_a, momenta_b - centre_b
    else:
        # column and row axes broadcast to the grid in every elementwise trace step
        q_A, q_B = _momentum_pair(
            plan.axis, plan.assignment, plan.orthogonal, system,
            momenta_a[:, np.newaxis], momenta_b[np.newaxis, :],
        )
    q_A.check_paraxial(lam_a)
    q_B.check_paraxial(lam_b)

    def scan(waist):
        swept = system if waist is None else system.with_isotropic_waist(waist)
        if gaussian:
            coefficients, alpha = _log_intensity_model(swept)
            log_rates = _log_intensity(coefficients, *d)
            cross = 2.0 * (jacobian[:, 0] @ alpha @ jacobian[:, 1])
            values = np.multiply.outer(u, cross * v)
            values += log_rates[:n, np.newaxis]
            values += log_rates[n : 2 * n] - log_rates[-1]
            np.exp(values, out=values)
        else:
            values = np.abs(spatial_biphoton(q_A, q_B, swept, plan.assignment)) ** 2
        if pinhole_diameter:
            values = pinhole_smooth(values, steps, pinhole_diameter)
        peak = values.max()
        if peak <= 0.0:
            raise DegenerateDistributionError("scan produced an all-zero grid")
        if normalize:
            values /= peak  # a fresh grid from the trace or the pinhole
        return JointDistribution(
            axis=plan.axis,
            assignment=plan.assignment,
            positions_a=positions_a,
            positions_b=positions_b,
            momenta_a=momenta_a,
            momenta_b=momenta_b,
            values=values,
        )

    return scan


def _log_intensity_model(system):
    """The ``_trace_gram`` coefficients and alpha (3x3) of log I = d^T alpha d + kappa."""
    coefficients = _trace_gram(system, SINC_GAUSSIAN_GAMMA)[0]
    _, a00, a11, a12, a22 = coefficients
    alpha = np.array([[a00, 0.0, 0.0], [0.0, a11, a12 / 2.0], [0.0, a12 / 2.0, a22]])
    return coefficients, alpha


def _scan_mismatches(axis, assignment, system, orthogonal, q_a, q_b):
    """The mismatches d (``trace._mismatches``), linear in the scan momenta.

    d = J (q_a, q_b) + d(0, 0). One ``_momentum_pair`` and one
    ``_mismatches`` call take d at unit q_a and at unit q_b with no
    orthogonal offset, the columns of J, and at the pairs (q_a[k], q_b[k])
    at the offset. Returns J (3x2), d at the pairs (3 x k) and the
    wavevectors of all traced pairs. Nothing here depends on the pump.
    """
    ortho = np.full(len(q_a) + 2, float(orthogonal))
    ortho[:2] = 0.0
    pair = _momentum_pair(
        axis, assignment, ortho, system,
        np.concatenate(([1.0, 0.0], q_a)), np.concatenate(([0.0, 1.0], q_b)),
    )
    d = np.array(_mismatches(*pair, assignment, system.geometry))
    return d[:, :2], d[:, 2:], pair


def summarize(dist: JointDistribution) -> CorrelationSummary:
    """Pearson coefficient, covariance and principal axis of a distribution.

    The normalized grid is read as a probability mass function on the
    momentum nodes (no interpolation); the principal angle is the
    orientation of the covariance eigenvector with the larger eigenvalue,
    reported in (-pi/2, pi/2]. The peak is the first cell in C order (row,
    then column) whose value is at least (1 - 1e-12) times the grid
    maximum, so mirror cells of a point-symmetric grid, which differ only
    by rounding, always give the same answer.

    Means and variances come from the marginals (the grid's row and column
    sums), and the covariance from one matrix-vector product,
    (q_a - m_a) . (grid @ (q_b - m_b)) / total, so no grid-sized temporary
    is made (``_moments``, which the waist sweeps share).
    """
    values = np.asarray(dist.values, dtype=float)
    pearson, var_a, var_b, cov_ab = _moments(values, dist.momenta_a, dist.momenta_b)
    # orientation of the major covariance eigenvector; atan2 keeps it in (-pi/2, pi/2]
    angle = 0.5 * math.atan2(2.0 * cov_ab, var_a - var_b)
    peak_cells = dist.values >= (1.0 - 1e-12) * dist.values.max()  # first in C order
    i_peak, j_peak = np.unravel_index(np.argmax(peak_cells), dist.values.shape)
    return CorrelationSummary(
        pearson=pearson,
        covariance=np.array([[var_a, cov_ab], [cov_ab, var_b]]),
        principal_angle=angle,
        peak=(float(dist.momenta_a[i_peak]), float(dist.momenta_b[j_peak])),
    )


def _moments(values, q_a, q_b, boxes=()):
    """Pearson, variances and covariance of S = B_a G B_b as a mass function on (q_a, q_b).

    ``values`` is the grid G and ``boxes`` the ``trace._pinhole_boxes`` of
    a pinhole: S is then ``pinhole_smooth(G)``, and with no boxes S = G and
    the operations are ``summarize``'s, in its order. Each box B is a
    symmetric circulant whose rows hold 2 taps + 1 ones, so S needs no
    N x N product. Up to the window weights, its marginals are B_a (G 1)
    and B_b (G^T 1) and S c_b is B_a (G (B_b c_b)): three passes over G and
    a few length-N products. The weights cancel in the means and the
    variances, and of the covariance's only axis b's is left.
    """
    box_of = {axis: box for axis, _, box in boxes}

    def smooth(axis, vector):
        return box_of[axis] @ vector if axis in box_of else vector

    marginal_a = smooth(0, values.sum(axis=1))
    total = float(marginal_a.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("distribution has zero total weight")
    # each marginal over its own sum: support on one row or column gets a
    # weight of exactly 1 there, so the mean is that node and the variance 0
    weights_a = marginal_a / total
    marginal_b = smooth(1, values.sum(axis=0))
    weights_b = marginal_b / float(marginal_b.sum())
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    centred_a = q_a - float(weights_a @ q_a)
    centred_b = q_b - float(weights_b @ q_b)
    var_a = float(weights_a @ centred_a**2)
    var_b = float(weights_b @ centred_b**2)
    cov_ab = float(centred_a @ (smooth(0, values @ smooth(1, centred_b)) / total))
    for axis, taps, _ in boxes:
        if axis == 1:  # S c_b carries both window weights, the total only axis a's
            cov_ab /= 2 * taps + 1
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateDistributionError(
            "zero variance along a scan axis; correlation is undefined"
        )
    # two roots: the product var_a * var_b underflows to 0 for variances of 8e-250
    return cov_ab / (math.sqrt(var_a) * math.sqrt(var_b)), var_a, var_b, cov_ab


def _gaussian_model_moments(axis, assignment, system, orthogonal=0.0):
    """Momentum mean and covariance of the scan predicted by the Gaussian model.

    Its log-intensity (``_log_intensity_model``, which ``run_scan`` reads
    too) is d^T alpha d + kappa in d = J q + d_off (``_scan_mismatches``),
    linear in the scan momenta q, so the precision is -2 J^T alpha J and
    the gradient at q = 0 is 2 J^T alpha d_off. They are taken for
    q = (q_e, q_o) and put in detector order by ``resolve_pair``, so the
    oa window is the ea one with its detectors swapped.
    Pure ridges are capped at a fixed variance ratio to the stiffest
    direction. Exact-sinc windows use them too.
    """
    _, alpha = _log_intensity_model(system)
    jacobian, at_offset, _ = _scan_mismatches(
        axis, DetectionAssignment.E_AT_A, system, orthogonal, [0.0], [0.0]
    )
    offset = at_offset[:, 0]
    precision = -2.0 * jacobian.T @ alpha @ jacobian
    gradient = 2.0 * jacobian.T @ alpha @ offset
    eigenvalues, vectors = np.linalg.eigh(precision)
    stiffest = eigenvalues.max()
    if stiffest <= 0.0:
        raise DegenerateDistributionError("scan model is unbounded in every direction")
    eigenvalues = np.maximum(eigenvalues, stiffest / _VARIANCE_RATIO_CAP)
    covariance = vectors @ np.diag(1.0 / eigenvalues) @ vectors.T
    # the capped covariance keeps the mean finite along a ridge, where the
    # gradient component vanishes with the curvature
    order = list(resolve_pair(0, 1, assignment))
    return (covariance @ gradient)[order], covariance[np.ix_(order, order)]


def auto_plan(
    axis: str,
    assignment: DetectionAssignment,
    system: OpticalSystem,
    points: int,
    *,
    orthogonal: float = 0.0,
) -> ScanPlan:
    """Scan window of mean +- 3 model widths from the Gaussian model's exact moments.

    The moments come from the model's quadratic log-intensity at the plan's
    ``orthogonal`` offset, whatever mode ``system`` itself traces.
    """
    mean, covariance = _gaussian_model_moments(axis, assignment, system, orthogonal)
    half = _WINDOW_SIGMAS * np.sqrt(np.diag(covariance))
    fourier = system.fourier
    lam_a, lam_b = resolve_pair(fourier.wavelength_e, fourier.wavelength_o, assignment)
    return ScanPlan(
        axis=axis,
        assignment=assignment,
        range_a=(
            fourier.momentum_to_position(mean[0] - half[0], lam_a),
            fourier.momentum_to_position(mean[0] + half[0], lam_a),
        ),
        range_b=(
            fourier.momentum_to_position(mean[1] - half[1], lam_b),
            fourier.momentum_to_position(mean[1] + half[1], lam_b),
        ),
        points=points,
        orthogonal=orthogonal,
    )


def assignment_sensitivity(
    axis: str,
    system: OpticalSystem,
    points: int = 64,
    *,
    pinhole_diameter: float = 0.0,
) -> AssignmentComparison:
    """Compare both polarizer assignments on one axis from a single ea summary.

    The trace resolves detector momenta to photons, and filters and
    Fourier-plane wavelengths belong to photons, so the oa scan is the ea
    scan with its detectors swapped: the auto window's ranges swap and the
    grid transposes. Transposing keeps the covariance c and swaps the
    variances v_a and v_b, so the oa Pearson is the ea one and
    angle_oa = 1/2 atan2(2c, v_b - v_a), both from the ea summary alone.
    """
    plan = auto_plan(axis, DetectionAssignment.E_AT_A, system, points)
    ea = summarize(run_scan(plan, system, pinhole_diameter=pinhole_diameter))
    (var_a, cov_ab), (_, var_b) = ea.covariance
    return AssignmentComparison(
        pearson_ea=ea.pearson,
        pearson_oa=ea.pearson,
        angle_ea=ea.principal_angle,
        angle_oa=0.5 * math.atan2(2.0 * cov_ab, var_b - var_a),
    )


def _pearson_by_waist(axis, system, plan, points, pinhole_diameter):
    """Pearson of one fixed-plan scan as a function of the isotropic pump waist.

    Without a ``plan`` the scan takes the ea auto window of ``system`` with
    ``points`` per axis, 64 when None. A given plan must scan ``axis``, and
    ``points``, when given, must be the plan's. The plan's work and checks
    run here, once: the scan's (``_plan_scan``) and the pinhole's boxes,
    whose checks raise before any box is built. Each waist redoes only the
    pump's work, the unnormalized grid with its ``JointDistribution``
    checks, and reads Pearson from ``_moments`` of that grid and the boxes,
    so no smoothed grid is formed.
    """
    if plan is None:
        plan = auto_plan(
            axis, DetectionAssignment.E_AT_A, system, 64 if points is None else points
        )
    elif plan.axis != axis:
        raise ValueError(f"axis {axis!r} differs from the plan's axis {plan.axis!r}")
    elif points is not None and points != plan.points:
        raise ValueError(f"points={points} differs from the plan's {plan.points} points")
    scan = _plan_scan(plan, system, 0.0, normalize=False)
    boxes = []
    if pinhole_diameter:
        steps = _plan_positions(plan)[2]
        boxes = list(_pinhole_boxes(pinhole_diameter, steps, (plan.points, plan.points)))

    def pearson_at(waist):
        dist = scan(waist)
        return _moments(dist.values, dist.momenta_a, dist.momenta_b, boxes)[0]

    return pearson_at


def waist_sweep(
    axis: str,
    waists,
    system: OpticalSystem,
    *,
    plan: ScanPlan | None = None,
    points: int | None = None,
    pinhole_diameter: float = 0.0,
) -> list[tuple[float, float]]:
    """Pearson coefficient per isotropic pump waist, on one fixed scan plan.

    The plan is ``plan`` or else the ea auto window of ``system`` with
    ``points`` per axis (64 when None); a plan on another axis than
    ``axis``, or of another size than a given ``points``, raises ValueError.
    Each waist's Pearson is that of ``summarize(run_scan(...))`` at that
    waist up to rounding, read from the unsmoothed grid and the pinhole's
    boxes (``_moments``), so no smoothed grid is formed.
    """
    waists = [float(w) for w in waists]
    bad = [w for w in waists if not 0.0 < w < math.inf]
    if bad:
        raise ValueError(f"waists must be finite and positive, got {bad[0]!r}")
    pearson_at = _pearson_by_waist(axis, system, plan, points, pinhole_diameter)
    return [(waist, pearson_at(waist)) for waist in waists]


def find_sign_transition(
    axis: str,
    waist_lo: float,
    waist_hi: float,
    tol: float,
    system: OpticalSystem,
    *,
    plan: ScanPlan | None = None,
    points: int | None = None,
    pinhole_diameter: float = 0.0,
) -> float:
    """Bisect the isotropic pump waist where the scan's Pearson sign flips.

    Endpoints must straddle a sign change; bisection proceeds until the
    bracket is narrower than ``tol`` (m) and returns its midpoint. A
    midpoint that is not strictly inside the bracket, once ``tol`` is below
    the float spacing there, ends it too and is returned. The plan is
    chosen and checked, and each step's one waist evaluated, as in
    ``waist_sweep``.
    """
    for name, value in (("waist_lo", waist_lo), ("waist_hi", waist_hi), ("tol", tol)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not waist_lo < waist_hi:
        raise ValueError("need waist_lo < waist_hi")
    pearson_at = _pearson_by_waist(axis, system, plan, points, pinhole_diameter)
    p_lo = pearson_at(waist_lo)
    p_hi = pearson_at(waist_hi)
    if p_lo == 0.0:
        return waist_lo
    if p_hi == 0.0:
        return waist_hi
    if (p_lo > 0.0) == (p_hi > 0.0):
        raise BracketError(
            f"pearson has the same sign at both endpoints "
            f"({p_lo:+.4f} at {waist_lo:g} m, {p_hi:+.4f} at {waist_hi:g} m)"
        )
    lo, hi = waist_lo, waist_hi
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        p_mid = pearson_at(mid)
        if p_mid == 0.0:
            return mid
        if (p_mid > 0.0) == (p_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
