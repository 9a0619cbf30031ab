"""Joint-distribution scans, correlation statistics and waist sweeps.

A scan steps both detectors along one Fourier-plane axis and collects the
coincidence rate on the Cartesian product of positions. The resulting grid,
normalized to unit total, is treated as a probability mass function on the
momentum nodes; its second moments give the Pearson coefficient and the
principal-axis orientation used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import MODE_GAUSSIAN_APPROX, TransverseWavevector
from .trace import DetectionAssignment, OpticalSystem, pinhole_smooth, spatial_biphoton

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
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (len(self.positions_a), len(self.positions_b)):
            raise ValueError("values shape does not match the scan axes")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution contains non-finite entries")
        if np.any(v < 0.0):
            raise ValueError("distribution contains negative entries")
        if not np.any(v > 0.0):
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

    Both come from one scan: the oa grid is the ea grid transposed (see
    ``assignment_sensitivity``). Pearson is therefore the same under both
    assignments by construction; only the principal axis mirrors, with
    angle_oa = 1/2 atan2(2c, v_b - v_a) for the ea covariance entries
    v_a, v_b and c.
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

    ``orthogonal`` is the fixed detector position (m) on the other axis.
    """
    lam_a = system.fourier.wavelength_at("A", assignment)
    lam_b = system.fourier.wavelength_at("B", assignment)
    ortho_a = system.fourier.position_to_momentum(orthogonal, lam_a)
    ortho_b = system.fourier.position_to_momentum(orthogonal, lam_b)
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
    method: str = "closed_form",
) -> JointDistribution:
    """Evaluate the coincidence rate over the plan's Cartesian position grid."""
    positions_a = np.linspace(plan.range_a[0], plan.range_a[1], plan.points)
    positions_b = np.linspace(plan.range_b[0], plan.range_b[1], plan.points)
    lam_a = system.fourier.wavelength_at("A", plan.assignment)
    lam_b = system.fourier.wavelength_at("B", plan.assignment)
    momenta_a = system.fourier.position_to_momentum(positions_a, lam_a)
    momenta_b = system.fourier.position_to_momentum(positions_b, lam_b)

    grid_a, grid_b = np.meshgrid(momenta_a, momenta_b, indexing="ij")
    q_A, q_B = _momentum_pair(
        plan.axis, plan.assignment, plan.orthogonal, system, grid_a, grid_b
    )
    q_A.check_paraxial(lam_a)
    q_B.check_paraxial(lam_b)
    amplitude = spatial_biphoton(q_A, q_B, system, plan.assignment, method=method)
    values = np.abs(amplitude) ** 2

    if pinhole_diameter:
        steps = (positions_a[1] - positions_a[0], positions_b[1] - positions_b[0])
        values = pinhole_smooth(values, steps, pinhole_diameter)
    if normalize:
        peak = values.max()
        if peak <= 0.0:
            raise DegenerateDistributionError("scan produced an all-zero grid")
        values = values / peak
    return JointDistribution(
        axis=plan.axis,
        assignment=plan.assignment,
        positions_a=positions_a,
        positions_b=positions_b,
        momenta_a=np.asarray(momenta_a),
        momenta_b=np.asarray(momenta_b),
        values=values,
        normalized=normalize,
    )


def summarize(dist: JointDistribution) -> CorrelationSummary:
    """Pearson coefficient, covariance and principal axis of a distribution.

    The normalized grid is read as a probability mass function on the
    momentum nodes (no interpolation); the principal angle is the
    orientation of the covariance eigenvector with the larger eigenvalue,
    reported in (-pi/2, pi/2].
    """
    weights = np.asarray(dist.values, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("distribution has zero total weight")
    weights = weights / total
    qa = np.asarray(dist.momenta_a)[:, np.newaxis]
    qb = np.asarray(dist.momenta_b)[np.newaxis, :]
    mean_a = float((weights * qa).sum())
    mean_b = float((weights * qb).sum())
    var_a = float((weights * (qa - mean_a) ** 2).sum())
    var_b = float((weights * (qb - mean_b) ** 2).sum())
    cov_ab = float((weights * (qa - mean_a) * (qb - mean_b)).sum())
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateDistributionError(
            "zero variance along a scan axis; correlation is undefined"
        )
    pearson = cov_ab / math.sqrt(var_a * var_b)
    # orientation of the major covariance eigenvector; atan2 keeps it in (-pi/2, pi/2]
    angle = 0.5 * math.atan2(2.0 * cov_ab, var_a - var_b)
    i_peak, j_peak = np.unravel_index(np.argmax(dist.values), dist.values.shape)
    return CorrelationSummary(
        pearson=pearson,
        covariance=np.array([[var_a, cov_ab], [cov_ab, var_b]]),
        principal_angle=angle,
        peak=(float(dist.momenta_a[i_peak]), float(dist.momenta_b[j_peak])),
    )


def _gaussian_model_moments(axis, assignment, system, orthogonal=0.0):
    """Momentum mean and covariance of the scan predicted by the Gaussian model.

    The traced log-intensity of the Gaussian-approximated mode is exactly
    quadratic in the scan momenta, so six samples recover its gradient and
    Hessian; the mean follows from the first, the covariance from the
    second. The same moments size windows for the exact-sinc mode.
    Directions the model leaves unconstrained (pure ridges) are capped at a
    fixed variance ratio to the constrained one.
    """
    h = 1.0e4  # rad/m; any value works on an exact quadratic, this one conditions well
    q_a = np.array([0.0, h, -h, 0.0, 0.0, h])
    q_b = np.array([0.0, 0.0, 0.0, h, -h, h])
    q_A, q_B = _momentum_pair(axis, assignment, orthogonal, system, q_a, q_b)
    model = replace(system, mode=MODE_GAUSSIAN_APPROX)
    amplitude = spatial_biphoton(q_A, q_B, model, assignment, method="closed_form")
    e00, ep0, em0, e0p, e0m, epp = 2.0 * np.log(np.abs(amplitude))
    gradient = np.array([ep0 - em0, e0p - e0m]) / (2.0 * h)
    precision = np.array(
        [
            [-(ep0 + em0 - 2.0 * e00), -(epp - ep0 - e0p + e00)],
            [-(epp - ep0 - e0p + e00), -(e0p + e0m - 2.0 * e00)],
        ]
    ) / h**2
    eigenvalues, vectors = np.linalg.eigh(precision)
    stiffest = eigenvalues.max()
    if stiffest <= 0.0:
        raise DegenerateDistributionError(
            "scan model predicts an unbounded distribution in every direction"
        )
    eigenvalues = np.maximum(eigenvalues, stiffest / _VARIANCE_RATIO_CAP)
    covariance = vectors @ np.diag(1.0 / eigenvalues) @ vectors.T
    # the capped covariance keeps the mean finite along a ridge, where the
    # gradient component vanishes with the curvature
    return covariance @ gradient, covariance


def auto_plan(
    axis: str,
    assignment: DetectionAssignment,
    system: OpticalSystem,
    points: int,
    *,
    orthogonal: float = 0.0,
) -> ScanPlan:
    """Scan window of mean +- 3 model widths from the Gaussian model's closed-form moments.

    The moments are taken at the plan's ``orthogonal`` offset, from the
    Gaussian-approximated mode whatever mode ``system`` itself traces.
    """
    mean, covariance = _gaussian_model_moments(axis, assignment, system, orthogonal)
    half = _WINDOW_SIGMAS * np.sqrt(np.diag(covariance))
    lam_a = system.fourier.wavelength_at("A", assignment)
    lam_b = system.fourier.wavelength_at("B", assignment)
    return ScanPlan(
        axis=axis,
        assignment=assignment,
        range_a=(
            system.fourier.momentum_to_position(mean[0] - half[0], lam_a),
            system.fourier.momentum_to_position(mean[0] + half[0], lam_a),
        ),
        range_b=(
            system.fourier.momentum_to_position(mean[1] - half[1], lam_b),
            system.fourier.momentum_to_position(mean[1] + half[1], lam_b),
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
    method: str = "closed_form",
) -> AssignmentComparison:
    """Compare both polarizer assignments on one axis from a single ea scan.

    The trace resolves detector momenta to photons, and filters and
    Fourier-plane wavelengths belong to photons, so the oa scan is the ea
    scan with its detectors swapped: the auto window's ranges swap and the
    grid transposes. The oa summary is taken from that relabelled grid.
    """
    plan = auto_plan(axis, DetectionAssignment.E_AT_A, system, points)
    ea = run_scan(plan, system, pinhole_diameter=pinhole_diameter, method=method)
    oa = replace(
        ea,
        assignment=DetectionAssignment.O_AT_A,
        positions_a=ea.positions_b,
        positions_b=ea.positions_a,
        momenta_a=ea.momenta_b,
        momenta_b=ea.momenta_a,
        values=ea.values.T,
    )
    ea_summary = summarize(ea)
    oa_summary = summarize(oa)
    return AssignmentComparison(
        pearson_ea=ea_summary.pearson,
        pearson_oa=oa_summary.pearson,
        angle_ea=ea_summary.principal_angle,
        angle_oa=oa_summary.principal_angle,
    )


def waist_sweep(
    axis: str,
    waists,
    system: OpticalSystem,
    *,
    plan: ScanPlan | None = None,
    points: int = 64,
    pinhole_diameter: float = 0.0,
    method: str = "closed_form",
) -> list[tuple[float, float]]:
    """Pearson coefficient per isotropic pump waist, on one fixed scan plan."""
    waists = [float(w) for w in waists]
    if any(w <= 0.0 for w in waists):
        raise ValueError("all waists must be positive")
    if plan is None:
        plan = auto_plan(axis, DetectionAssignment.E_AT_A, system, points)
    results = []
    for waist in waists:
        swept = system.with_isotropic_waist(waist)
        dist = run_scan(plan, swept, pinhole_diameter=pinhole_diameter, method=method)
        results.append((waist, summarize(dist).pearson))
    return results


def find_sign_transition(
    axis: str,
    waist_lo: float,
    waist_hi: float,
    tol: float,
    system: OpticalSystem,
    *,
    plan: ScanPlan | None = None,
    points: int = 64,
    pinhole_diameter: float = 0.0,
    method: str = "closed_form",
) -> float:
    """Bisect the isotropic pump waist where the scan's Pearson sign flips.

    Endpoints must straddle a sign change; bisection proceeds until the
    bracket is narrower than ``tol`` (m) and returns its midpoint.
    """
    if not (0.0 < waist_lo < waist_hi):
        raise ValueError("need 0 < waist_lo < waist_hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if plan is None:
        plan = auto_plan(axis, DetectionAssignment.E_AT_A, system, points)

    def pearson_at(waist: float) -> float:
        swept = system.with_isotropic_waist(waist)
        dist = run_scan(plan, swept, pinhole_diameter=pinhole_diameter, method=method)
        return summarize(dist).pearson

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
        p_mid = pearson_at(mid)
        if p_mid == 0.0:
            return mid
        if (p_mid > 0.0) == (p_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
