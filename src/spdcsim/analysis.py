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

from .kernel import TransverseWavevector
from .trace import (
    DetectionAssignment,
    OpticalSystem,
    _log_intensity_quadratic,
    _mismatches,
    biphoton_intensity,
    pinhole_smooth,
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
    """Evaluate the coincidence rate over the plan's Cartesian position grid.

    The rates come from ``biphoton_intensity``; in the Gaussian mode's
    closed form that is the exponential of the real quadratic
    log-intensity, with no complex amplitude.
    """
    positions_a = np.linspace(plan.range_a[0], plan.range_a[1], plan.points)
    positions_b = np.linspace(plan.range_b[0], plan.range_b[1], plan.points)
    lam_a = system.fourier.wavelength_at("A", plan.assignment)
    lam_b = system.fourier.wavelength_at("B", plan.assignment)
    momenta_a = system.fourier.position_to_momentum(positions_a, lam_a)
    momenta_b = system.fourier.position_to_momentum(positions_b, lam_b)

    # column and row axes broadcast to the grid in every elementwise trace step
    q_A, q_B = _momentum_pair(
        plan.axis, plan.assignment, plan.orthogonal, system,
        momenta_a[:, np.newaxis], momenta_b[np.newaxis, :],
    )
    q_A.check_paraxial(lam_a)
    q_B.check_paraxial(lam_b)
    values = biphoton_intensity(q_A, q_B, system, plan.assignment, method=method)

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
    )


def summarize(dist: JointDistribution) -> CorrelationSummary:
    """Pearson coefficient, covariance and principal axis of a distribution.

    The normalized grid is read as a probability mass function on the
    momentum nodes (no interpolation); the principal angle is the
    orientation of the covariance eigenvector with the larger eigenvalue,
    reported in (-pi/2, pi/2]. The peak is the first cell in C order (row,
    then column) whose value is at least (1 - 1e-12) times the grid
    maximum, so mirror cells of a point-symmetric grid, which differ only
    by rounding, always give the same answer.
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
    peak_cells = dist.values >= (1.0 - 1e-12) * dist.values.max()  # first in C order
    i_peak, j_peak = np.unravel_index(np.argmax(peak_cells), dist.values.shape)
    return CorrelationSummary(
        pearson=pearson,
        covariance=np.array([[var_a, cov_ab], [cov_ab, var_b]]),
        principal_angle=angle,
        peak=(float(dist.momenta_a[i_peak]), float(dist.momenta_b[j_peak])),
    )


def _gaussian_model_moments(axis, assignment, system, orthogonal=0.0):
    """Momentum mean and covariance of the scan predicted by the Gaussian model.

    Its log-intensity (``trace._log_intensity_quadratic``) is d^T alpha d +
    kappa in d = J q + d_off, linear in the scan momenta q, so the precision
    is -2 J^T alpha J and the gradient at q = 0 is 2 J^T alpha d_off. Taken
    for q = (q_e, q_o) and swapped for ``O_AT_A``, the oa window is the ea
    one with its detectors swapped. Pure ridges are capped at a fixed
    variance ratio to the stiffest direction. Exact-sinc windows use them too.
    """
    ea, geom = DetectionAssignment.E_AT_A, system.geometry
    _, a00, a11, a12, a22 = _log_intensity_quadratic(system)
    alpha = np.array([[a00, 0.0, 0.0], [0.0, a11, a12 / 2.0], [0.0, a12 / 2.0, a22]])
    # unit momenta on q_e and q_o in turn give the columns of J
    units = _momentum_pair(axis, ea, 0.0, system, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    jacobian = np.array([d + np.zeros(2) for d in _mismatches(*units, ea, geom)])  # d0 may be 0-d
    at_offset = _momentum_pair(axis, ea, orthogonal, system, 0.0, 0.0)
    offset = np.array(_mismatches(*at_offset, ea, geom))
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
    flip = slice(None, None, -1 if assignment is DetectionAssignment.O_AT_A else 1)
    return (covariance @ gradient)[flip], covariance[flip, flip]


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

    Without a ``plan`` the scan takes the ea auto window of ``system``.
    """
    if plan is None:
        plan = auto_plan(axis, DetectionAssignment.E_AT_A, system, points)

    def pearson_at(waist: float) -> float:
        swept = system.with_isotropic_waist(waist)
        return summarize(run_scan(plan, swept, pinhole_diameter=pinhole_diameter)).pearson

    return pearson_at


def waist_sweep(
    axis: str,
    waists,
    system: OpticalSystem,
    *,
    plan: ScanPlan | None = None,
    points: int = 64,
    pinhole_diameter: float = 0.0,
) -> list[tuple[float, float]]:
    """Pearson coefficient per isotropic pump waist, on one fixed scan plan."""
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
    points: int = 64,
    pinhole_diameter: float = 0.0,
) -> float:
    """Bisect the isotropic pump waist where the scan's Pearson sign flips.

    Endpoints must straddle a sign change; bisection proceeds until the
    bracket is narrower than ``tol`` (m) and returns its midpoint.
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
        p_mid = pearson_at(mid)
        if p_mid == 0.0:
            return mid
        if (p_mid > 0.0) == (p_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
