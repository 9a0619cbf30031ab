"""Frequency trace of the mode function and Fourier-plane coincidence rates.

The joint spatial amplitude at a detector-momentum pair is the double
integral of the mode function against the two filter amplitudes over the
frequency detunings omega = (omega_e, omega_o). For the Gaussian-approximated
mode the integrand is exp(-1/2 omega^T M omega + b^T omega + c). M is real
and holds no detector momentum; the linear term is b = d1 u + dk v + i w,
with constant rows u, v and w and d the phase mismatches at zero detuning.
So every closed form reads one reduction, the 3x3 Gram matrix of u, v and w
in M^-1 (``_trace_gram``). A CW (monochromatic) pump pins
omega_o = -omega_e and reduces the trace to one dimension. ``_on_support``
is the one place that checks and inverts M: it applies the one divergence
rule, M positive definite, and restricts M and the rows to the pump's
support. The rate log|A|^2 is a real quadratic in the three mismatches
(``_trace_gram``): ``biphoton_intensity`` evaluates it as one real
exponential per point, and scans and their auto windows read its five
coefficients in the scan momenta (``analysis._bilinear``,
``_scan_mismatches``). The amplitude adds the phase d1 G_uw +
dk (G_vw + L/2), which exact-sinc scans read the same way. The exact-sinc mode
writes its phase-matching factor as an average over crystal depth,
exp(i x) sinc x = (1/2) integral of exp(i x (1 + s)) over s in [-1, 1] with
x = dk L/2, so at each depth the integrand is again a complex Gaussian and
its trace is the gamma = 0 closed form times a Gauss-Legendre sum over
depth nodes. A trapezoid quadrature covers either mode and serves as the
independent oracle: one rule for both pumps, one point at a time, on a grid
over the pump's support that the oracle states for itself (``_SUPPORT_BASIS``).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (
    MODE_GAUSSIAN_APPROX,
    MODES,
    SINC_GAUSSIAN_GAMMA,
    SPECTRAL_GAUSSIAN,
    SPECTRAL_MONOCHROMATIC,
    PumpEnvelope,
    SpdcGeometry,
    TransverseWavevector,
    _require_finite,
    mismatch_longitudinal,
    mismatch_transverse_x,
    mismatch_transverse_y,
    mode_function,
)
from .dispersion import C_LIGHT

# intensity FWHM = 2 sigma sqrt(2 ln 2) for a Gaussian amplitude exp(-x^2/4 sigma^2)
_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

DEFAULT_QUADRATURE_NODES = 201
# half-width of each trapezoid window, in widths of the Gaussian-approximated form
QUADRATURE_WINDOW_SIGMAS = 9.0
QUADRATURE_RTOL = 1e-8
# Floor on the node count n of the coarse crystal-depth Gauss-Legendre rule;
# the returned sum uses 2n nodes.
DEPTH_NODES = 24


class DivergingIntegralError(ValueError):
    """The Gaussian frequency integral diverges (M not positive definite)."""


class QuadratureAccuracyWarning(UserWarning):
    """Quadrature failed its node-doubling convergence target."""


class DetectionAssignment(enum.Enum):
    """Which polarization the polarizers route to detector A."""

    E_AT_A = "ea"
    O_AT_A = "oa"

    @classmethod
    def parse(cls, label: str) -> "DetectionAssignment":
        try:
            return cls(str(label).lower())
        except ValueError:
            raise ValueError(
                f"assignment must be 'ea' or 'oa', got {label!r}"
            ) from None


@dataclass(frozen=True)
class SpectralFilter:
    """Gaussian amplitude filter exp[-omega^2 / (4 sigma^2)] in front of a detector."""

    center_wavelength: float  # m
    sigma: float  # rad/s, amplitude width

    def __post_init__(self):
        _require_finite(self, "center_wavelength", "sigma")
        if self.sigma <= 0.0:
            raise ValueError("filter sigma must be positive")
        if self.center_wavelength <= 0.0:
            raise ValueError("filter center wavelength must be positive")

    @classmethod
    def from_fwhm_nm(cls, center_nm: float, fwhm_nm: float) -> "SpectralFilter":
        """Build from the usual interference-filter spec: intensity FWHM in nm."""
        center = center_nm * 1e-9
        delta_omega = 2.0 * math.pi * C_LIGHT * (fwhm_nm * 1e-9) / center**2
        return cls(center_wavelength=center, sigma=delta_omega / _FWHM_FACTOR)

    @property
    def fwhm_nm(self) -> float:
        delta_omega = self.sigma * _FWHM_FACTOR
        return delta_omega * self.center_wavelength**2 / (2.0 * math.pi * C_LIGHT) / 1e-9

    def amplitude(self, omega):
        return np.exp(-np.asarray(omega) ** 2 / (4.0 * self.sigma**2))


@dataclass(frozen=True)
class FourierPlaneMap:
    """Linear position-to-momentum map q = 2 pi x / (lambda f) of a 2f system."""

    focal_length: float  # m
    wavelength_e: float  # m, central wavelength of the extraordinary photon
    wavelength_o: float  # m, central wavelength of the ordinary photon

    def __post_init__(self):
        _require_finite(self, "focal_length", "wavelength_e", "wavelength_o")
        if self.focal_length <= 0.0:
            raise ValueError("focal length must be positive")
        if self.wavelength_e <= 0.0 or self.wavelength_o <= 0.0:
            raise ValueError("central wavelengths must be positive")

    def position_to_momentum(self, x, wavelength: float):
        return 2.0 * np.pi * np.asarray(x) / (wavelength * self.focal_length)

    def momentum_to_position(self, q, wavelength: float):
        return np.asarray(q) * wavelength * self.focal_length / (2.0 * np.pi)


@dataclass(frozen=True)
class OpticalSystem:
    """Everything needed to evaluate a coincidence rate at one detector pair."""

    geometry: SpdcGeometry
    pump: PumpEnvelope
    filter_e: SpectralFilter
    filter_o: SpectralFilter
    fourier: FourierPlaneMap
    mode: str = MODE_GAUSSIAN_APPROX

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def with_isotropic_waist(self, waist: float) -> "OpticalSystem":
        return replace(self, pump=replace(self.pump, waist_x=waist, waist_y=waist))


def resolve_pair(q_A, q_B, assignment: DetectionAssignment):
    """The one polarizer relabel: map a detector pair (A, B) to its photons (e, o).

    The map keeps the pair for ``E_AT_A`` and swaps it otherwise, so it is
    its own inverse: ``resolve_pair(q_A, q_B, a)`` gives (q_e, q_o), and
    ``resolve_pair(lam_e, lam_o, a)`` gives the detectors' (lam_A, lam_B).
    """
    if assignment is DetectionAssignment.E_AT_A:
        return q_A, q_B
    return q_B, q_A


def _form_constants(system, gamma):
    """The rows u, v and w of the integrand's linear term, and the real 2x2 matrix M.

    With acceptance exp(-gamma x^2) exp(i x), x = dk L/2, the linear term
    is b = d1 u + dk v + i w in the mismatches d at zero detuning. Its rows,
    returned as one 3x2 array, are u = -(w_y^2 / 2) a1, v = -2 gamma (L/2)^2 ak
    and w = (L/2) ak, where a1 and ak are the coefficients of
    (omega_e, omega_o) in the transverse-y and longitudinal mismatches,
    read from ``kernel.mismatch_transverse_y`` and ``mismatch_longitudinal``
    once per geometry (``_frequency_rows``), since no pump term enters them. M
    holds the filters, the pump's y waist along a1, the acceptance along ak
    and a pulsed pump's spectrum; no term depends on the detector momenta.
    """
    pump = system.pump
    filter_e, filter_o = system.filter_e, system.filter_o
    half_l = system.geometry.crystal_length / 2.0
    a1, ak = _frequency_rows(system.geometry)

    matrix = 2.0 * (
        np.diag([1.0 / (4.0 * filter_e.sigma**2), 1.0 / (4.0 * filter_o.sigma**2)])
        + (pump.waist_y**2 / 4.0) * np.outer(a1, a1)
        + gamma * half_l**2 * np.outer(ak, ak)
    )
    if pump.spectral_mode == SPECTRAL_GAUSSIAN:
        matrix += np.ones((2, 2)) / (2.0 * pump.spectral_sigma**2)
    rows = np.array([-(pump.waist_y**2 / 2.0) * a1, -2.0 * gamma * half_l**2 * ak, half_l * ak])
    return rows, matrix


@functools.lru_cache(maxsize=16)
def _frequency_rows(geom: SpdcGeometry):
    """The rows a1 and ak of ``_form_constants``, read-only, once per geometry."""
    # each mismatch at zero momentum and unit omega_e, then unit omega_o
    zero, (unit_e, unit_o) = TransverseWavevector(0.0, 0.0), np.eye(2)
    a1 = mismatch_transverse_y(zero, unit_e, zero, unit_o, geom)
    ak = mismatch_longitudinal(zero, unit_e, zero, unit_o, geom)
    a1.setflags(write=False)
    ak.setflags(write=False)
    return a1, ak


def _mismatches(q_A, q_B, assignment, geom):
    """The mismatches d0, d1 and dk at zero detuning, per detector-momentum pair."""
    q_e, q_o = resolve_pair(q_A, q_B, assignment)
    d0 = np.asarray(mismatch_transverse_x(q_e, q_o), dtype=float)
    d1 = np.asarray(mismatch_transverse_y(q_e, 0.0, q_o, 0.0, geom), dtype=float)
    dk = np.asarray(mismatch_longitudinal(q_e, 0.0, q_o, 0.0, geom), dtype=float)
    return d0, d1, dk


def _window_form(q_A, q_B, system, assignment):
    """M and the linear term b of the Gaussian-mode integrand, per point.

    The trapezoid oracle takes the centre, width and phase rate of each
    window from them; b has the momenta's broadcast shape plus a trailing
    axis of 2.
    """
    (u, v, w), matrix = _form_constants(system, SINC_GAUSSIAN_GAMMA)
    _, d1, dk = _mismatches(q_A, q_B, assignment, system.geometry)
    return matrix, d1[..., np.newaxis] * u + dk[..., np.newaxis] * v + 1j * w


def _on_support(pump, matrix, *vectors):
    """M^-1, det M and the vectors of a frequency trace on the pump's support.

    Raises DivergingIntegralError unless M is positive definite, M_00 > 0
    and det M > 0, the one divergence rule. A pulsed pump leaves both
    detunings free: the inverse is the adjugate of the 2x2 M over that
    determinant and each (..., 2) vector comes back unchanged. A CW pump
    pins omega_o = -omega_e, so along l = (1, -1) M is the 1x1
    m_line = l^T M l, its inverse 1/m_line, and each vector v is
    v_e - v_o, of shape (..., 1). A positive definite M makes m_line
    positive, so the restriction checks nothing more.
    """
    (m00, m01), (m10, m11) = matrix.tolist()
    det = m00 * m11 - m01 * m10
    if not (m00 > 0.0 and det > 0.0):
        raise DivergingIntegralError(
            "M is not positive definite; the frequency integral diverges "
            "(check filter and pump spectral parameters)"
        )
    if pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        m_line = m00 - m01 - m10 + m11
        return np.array([[1.0 / m_line]]), m_line, *(v[..., :1] - v[..., 1:] for v in vectors)
    return np.array([[m11, -m01], [-m10, m00]]) / det, det, *vectors


def _trace_gram(system, gamma):
    """The one reduction behind every closed form: log|A|^2 and the Gram matrix.

    With acceptance exp(-gamma x^2) exp(i x), x = dk L/2, the integrand's
    linear term is b = d1 u + dk v + i w, with the rows u, v and w that
    ``_form_constants`` states, and its constant is
    c = -(w_x^2 d0^2 + w_y^2 d1^2) / 4 - gamma (L/2)^2 dk^2 + i (L/2) dk.
    The closed form A = pref exp(b^T M^-1 b / 2 + c) then needs only
    |pref|^2 = (2 pi)^k / det M and the 3x3 Gram matrix G of u, v and w in
    M^-1, both on the pump's support (``_on_support``). log|A|^2 is then
    the real quadratic alpha_00 d0^2 + alpha_11 d1^2 + alpha_12 d1 dk +
    alpha_22 dk^2 + kappa in the mismatches d at zero detuning, with
    kappa = log|pref|^2 - G_ww, alpha_00 = -w_x^2 / 2,
    alpha_11 = G_uu - w_y^2 / 2, alpha_12 = 2 G_uv and
    alpha_22 = G_vv - 2 gamma (L/2)^2. Returns (kappa, alpha_00, alpha_11,
    alpha_12, alpha_22) and G, as nested lists of floats.
    """
    pump, half_l = system.pump, system.geometry.crystal_length / 2.0
    rows, matrix = _form_constants(system, gamma)
    m_inv, det, rows = _on_support(pump, matrix, rows)
    # Python floats, not numpy scalars, so numpy can reuse N^2 temporaries in place
    gram = (rows @ m_inv @ rows.T).tolist()
    (uu, uv, _), (_, vv, _), (_, _, ww) = gram
    log_pref = math.log((2.0 * math.pi) ** len(m_inv) / det)
    alpha_11 = uu - pump.waist_y**2 / 2.0
    alpha_22 = vv - 2.0 * gamma * half_l**2
    return (log_pref - ww, -(pump.waist_x**2 / 2.0), alpha_11, 2.0 * uv, alpha_22), gram


def _gaussian_amplitude(q_A, q_B, system, assignment, gamma):
    """The closed form A at acceptance exp(-gamma x^2) exp(i x), its phase and G_ww.

    pref is real and positive, and the imaginary part of b^T M^-1 b / 2 + c
    is d1 G_uw + dk G_vw + (L/2) dk, so A = exp(log|A|^2 / 2 + i phase) with
    phase = d1 G_uw + dk (G_vw + L/2) (``_trace_gram``).
    """
    coefficients, ((_, _, uw), (_, _, vw), (_, _, ww)) = _trace_gram(system, gamma)
    d0, d1, dk = _mismatches(q_A, q_B, assignment, system.geometry)
    phase = d1 * uw + dk * (vw + system.geometry.crystal_length / 2.0)
    return np.exp(0.5 * _log_intensity(coefficients, d0, d1, dk) + 1j * phase), phase, ww


@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int):
    # built on first use: importing numpy.polynomial and building a rule take
    # milliseconds and memory that a Gaussian-mode run never needs
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _depth_node_count(slope, curvature) -> int:
    """Coarse Gauss-Legendre node count n for exp(slope s + curvature s^2).

    An n-node rule met 1e-11 relative for every |slope| <= 100 and
    |curvature| <= 5 tried once n >= |slope| + |curvature|; the count is
    rounded up to a multiple of 8 so that few distinct rules get built.
    """
    worst = float(np.max(np.abs(slope), initial=0.0)) + abs(curvature)
    return max(DEPTH_NODES, 8 * math.ceil(worst / 8.0))


def _depth_sum(slope, curvature, n):
    """Half the n-node Gauss-Legendre sum of exp(slope s + curvature s^2)."""
    nodes, weights = _legendre_rule(n)
    total = np.zeros(slope.shape, dtype=complex)
    for s, w in zip(nodes.tolist(), weights.tolist()):
        total += (0.5 * w) * np.exp(slope * s + curvature * (s * s))
    return total


def depth_average(slope, curvature, scale=1.0):
    """(1/2) integral over s in [-1, 1] of exp(slope s + curvature s^2), per point.

    ``slope`` may be an array, one entry per grid point; ``curvature`` is a
    scalar. The integral is a Gauss-Legendre sum on 2n nodes, evaluated one
    node at a time over the whole grid; n comes from the grid's worst
    |slope| and |curvature| (``_depth_node_count``). The n-node sum checks
    it: one QuadratureAccuracyWarning per call counts the points whose
    relative change exceeds QUADRATURE_RTOL and gives the worst such change
    and the largest change relative to the grid peak, with each point
    weighted by ``scale``, the factor its result multiplies.
    """
    slope = np.asarray(slope, dtype=complex)
    n = _depth_node_count(slope, curvature)
    fine = _depth_sum(slope, curvature, 2 * n)
    coarse = _depth_sum(slope, curvature, n)
    _warn_unconverged(
        fine, coarse, np.abs(fine), scale, f"doubling the {n} crystal-depth nodes"
    )
    return fine


def _warn_unconverged(fine, coarse, denom, scale, refinement):
    """One QuadratureAccuracyWarning for all points whose change exceeds the bound."""
    change = np.abs(fine - coarse)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = change / denom
        missed = (denom > 0.0) & (ratio > QUADRATURE_RTOL)
        if not missed.any():
            return
        peak_change = np.max(change * scale) / np.max(np.abs(fine) * scale)
    warnings.warn(
        f"quadrature changed by more than {QUADRATURE_RTOL:.0e} relative when "
        f"{refinement} at {int(missed.sum())} of {missed.size} points "
        f"(worst {ratio[missed].max():.2e}); the largest change is "
        f"{peak_change:.2e} of the grid peak; results may be inaccurate",
        QuadratureAccuracyWarning,
        stacklevel=3,
    )


def _trace_exact_sinc(q_A, q_B, system, assignment):
    """Closed-form trace of the exact-sinc mode, averaged over crystal depth.

    With x = dk L/2, exp(i x) sinc x = (1/2) integral of exp(i x (1 + s)) over
    s in [-1, 1]. At depth node s the frequency integrand is the gamma = 0
    Gaussian with i s w added to its linear term and i s (L/2) dk to its
    constant, where v = 0 (``_form_constants``). So its closed form is the s = 0
    amplitude times exp(B s + C s^2), with B = i phase - G_ww per point and
    C = -G_ww / 2 (``_gaussian_amplitude``). Scans take the same product
    from their plan's mismatches (``analysis._plan_scan``); this per-point
    form is their oracle.
    """
    base, phase, ww = _gaussian_amplitude(q_A, q_B, system, assignment, 0.0)
    return base * depth_average(1j * phase - ww, -0.5 * ww, np.abs(base))


def _node_count(span, feature_scale, phase_rate, floor: int):
    """Trapezoid nodes that resolve the window; broadcasts over array inputs."""
    n = np.asarray(floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.where(
            feature_scale > 0.0, np.maximum(n, np.ceil(2.5 * span / feature_scale) + 1), n
        )
        n = np.where(
            phase_rate > 0.0, np.maximum(n, np.ceil(4.0 * span * phase_rate / math.pi) + 1), n
        )
    return n.astype(int)


# Rows B of the oracle's frequency grid: a node t maps to (omega_e, omega_o) =
# t B. Stated apart from ``_on_support`` so that the oracle checks the support
# the closed forms integrate over instead of sharing it.
_SUPPORT_BASIS = {
    SPECTRAL_MONOCHROMATIC: ((1.0, -1.0),),
    SPECTRAL_GAUSSIAN: ((1.0, 0.0), (0.0, 1.0)),
}


def _nested_trapezoid(values, axes):
    """Trapezoid rule over the axes of ``values``, the last first, on the 1-D nodes ``axes``."""
    for axis in reversed(axes):
        values = np.trapezoid(values, axis, axis=-1)
    return values


def integrate_quadrature(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    *,
    nodes: int = DEFAULT_QUADRATURE_NODES,
    check_convergence: bool = True,
):
    """Direct trapezoid evaluation of the frequency trace at momentum pairs.

    The independent oracle for both closed forms of ``spatial_biphoton``.
    It evaluates the mode function of ``system.mode`` and broadcasts over
    momentum arrays: a scalar pair returns a complex scalar, arrays return
    an array of their broadcast shape. The trace runs over a tensor grid on
    the pump's support, one axis for a CW pump and two for a pulsed one,
    mapped to the detunings through ``_SUPPORT_BASIS``, and integrates one
    point per loop iteration. On each axis a point's window reaches
    QUADRATURE_WINDOW_SIGMAS widths of both the filters alone and the
    shifted product Gaussian of the Gaussian-approximated form, both taken
    on the support by ``_on_support``, and its node count n is raised above
    ``nodes`` whenever the window demands finer resolution. The integral is
    a nested trapezoid on 2n-1 nodes per axis; the even nodes give the rule
    with the step doubled. When ``check_convergence`` is set, one
    QuadratureAccuracyWarning per call reports how many points changed by
    more than QUADRATURE_RTOL relative between the two, the worst ratio and
    the largest change relative to the grid peak; degraded accuracy is
    reported, never raised. The window follows the Gaussian form, not the
    sinc^2 tails, so at pump waists of hundreds of um the exact-sinc
    trapezoid under-resolves tail points and warns (at a 500 um waist, 20
    of the 36 points of a 6^2 y grid over +-6 mm); the depth closed form
    does not need a window.
    """
    geom, pump = system.geometry, system.pump
    filter_e, filter_o = system.filter_e, system.filter_o
    q_e, q_o = resolve_pair(q_A, q_B, assignment)
    matrix, linear = _window_form(q_A, q_B, system, assignment)
    shape = linear.shape[:-1]
    m_inv, _, b = _on_support(pump, matrix, linear.reshape(-1, 2))
    filters = np.diag([1.0 / (2.0 * filter_e.sigma**2), 1.0 / (2.0 * filter_o.sigma**2)])
    half_filter = QUADRATURE_WINDOW_SIGMAS * np.sqrt(_on_support(pump, filters)[0].diagonal())
    sigma = np.sqrt(m_inv.diagonal())
    center = (b.real[:, np.newaxis, :] * m_inv).sum(axis=-1)
    lo = np.minimum(-half_filter, center - QUADRATURE_WINDOW_SIGMAS * sigma)
    hi = np.maximum(half_filter, center + QUADRATURE_WINDOW_SIGMAS * sigma)
    counts = np.broadcast_to(_node_count(hi - lo, sigma, np.abs(b.imag), nodes), lo.shape)

    basis = _SUPPORT_BASIS[pump.spectral_mode]
    even = (slice(None, None, 2),) * len(basis)
    q_parts = [
        np.broadcast_to(part, shape).ravel().tolist() for part in (q_e.qx, q_e.qy, q_o.qx, q_o.qy)
    ]
    fine = np.empty(len(lo), dtype=complex)
    coarse = np.empty(len(lo), dtype=complex)
    magnitude = np.empty(len(lo))
    for p, (qex, qey, qox, qoy) in enumerate(zip(*q_parts)):
        sizes = [2 * n - 1 for n in counts[p].tolist()]
        axes = [np.linspace(lo[p, i], hi[p, i], size) for i, size in enumerate(sizes)]
        grid = np.meshgrid(*axes, indexing="ij")
        omega_e, omega_o = (
            functools.reduce(np.add, [t * row[c] for t, row in zip(grid, basis)])
            for c in (0, 1)
        )
        integrand = (
            filter_e.amplitude(omega_e)
            * filter_o.amplitude(omega_o)
            * mode_function(
                TransverseWavevector(qx=qex, qy=qey),
                omega_e,
                TransverseWavevector(qx=qox, qy=qoy),
                omega_o,
                geom,
                pump,
                system.mode,
            )
        )
        fine[p] = _nested_trapezoid(integrand, axes)
        magnitude[p] = _nested_trapezoid(np.abs(integrand), axes)
        coarse[p] = _nested_trapezoid(integrand[even], [axis[::2] for axis in axes])

    if check_convergence:
        denom = np.maximum(np.abs(fine), 1e-9 * magnitude)
        _warn_unconverged(fine, coarse, denom, 1.0, "halving the step")
    return fine.reshape(shape)[()]


def spatial_biphoton(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
):
    """Joint spatial amplitude at a detector-momentum pair, frequency traced out.

    The closed form of either mode; it broadcasts over momentum arrays, and
    ``integrate_quadrature`` is its independent oracle. Both closed forms
    read one Gram matrix of the integrand's linear term (``_trace_gram``).
    The Gaussian mode's is exact, exp(log|A|^2 / 2 + i phase) per point. The
    exact-sinc mode's is the crystal-depth average of ``_trace_exact_sinc``,
    whose Gauss-Legendre sum is checked against half its nodes (see
    ``depth_average``).
    """
    if system.mode != MODE_GAUSSIAN_APPROX:
        return _trace_exact_sinc(q_A, q_B, system, assignment)
    return _gaussian_amplitude(q_A, q_B, system, assignment, SINC_GAUSSIAN_GAMMA)[0]


def _log_intensity(coefficients, d0, d1, dk):
    """log|A|^2 from the ``_trace_gram`` coefficients and the mismatches."""
    kappa, alpha_00, alpha_11, alpha_12, alpha_22 = coefficients
    offset = kappa + alpha_00 * d0**2
    return d1 * (alpha_11 * d1 + alpha_12 * dk) + alpha_22 * dk**2 + offset


def biphoton_intensity(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
):
    """|spatial_biphoton|^2 at a detector-momentum pair; broadcasts like it.

    In the Gaussian mode it is the exponential of the log-intensity
    quadratic of ``_trace_gram``, in real arithmetic, so a cell underflows
    to 0 only where |A|^2 does; otherwise ``np.abs(spatial_biphoton(...))
    ** 2`` of the closed form.
    """
    if system.mode != MODE_GAUSSIAN_APPROX:
        return np.abs(spatial_biphoton(q_A, q_B, system, assignment)) ** 2
    mismatches = _mismatches(q_A, q_B, assignment, system.geometry)
    return np.exp(_log_intensity(_trace_gram(system, SINC_GAUSSIAN_GAMMA)[0], *mismatches))


def _pinhole_taps(diameter: float, steps, shape):
    """(axis, taps) for each grid axis that the pinhole smooths, as a list.

    ``taps`` counts the nodes on either side within +-diameter/2, so each
    node's window holds 2 taps + 1 nodes; an axis with no tap is left out.
    Every check of ``pinhole_smooth``'s arguments, and of the diameter
    against each axis's span, raises ValueError here.
    """
    if not 0.0 <= diameter < math.inf:
        raise ValueError(f"pinhole diameter must be finite and non-negative, got {diameter!r}")
    steps = tuple(steps)
    if len(steps) != 2 or not all(math.isfinite(step) and step != 0.0 for step in steps):
        raise ValueError(
            f"steps must hold one finite, non-zero step per grid axis, got {steps!r}"
        )
    taps = []
    for axis, step in enumerate(steps):
        span = abs(step) * (shape[axis] - 1)
        if diameter > span:
            raise ValueError(
                f"pinhole diameter {diameter} m exceeds the scan span {span} m "
                f"along axis {axis}"
            )
        taps.append(int(math.floor(diameter / (2.0 * abs(step)) + 1e-12)))
    return [(axis, count) for axis, count in enumerate(taps) if count]


def _pinhole_windows(diameter: float, steps, momenta):
    """Each axis's momenta in window coordinates: (s, v) per node, one pair per axis.

    s_j and v_j are the mean and the variance of the momenta over node j's
    circular window of ``_pinhole_taps``. The pinhole's smoothed grid
    S = B_a G B_b, with B the normalized symmetric box of ``pinhole_smooth``,
    then has the moments of G read at the nodes s, with the mean of v added
    to each variance (``analysis._moments``). An axis with no tap keeps
    s = q and v = 0.
    """
    windows = [(np.asarray(q, dtype=float), 0.0) for q in momenta]
    for axis, taps in _pinhole_taps(diameter, steps, [len(q) for q in momenta]):
        q = windows[axis][0]
        n = len(q)
        nodes = q[(np.arange(n)[:, np.newaxis] + np.arange(-taps, taps + 1)) % n]
        windows[axis] = (nodes.mean(axis=1), nodes.var(axis=1))
    return windows


def _window_sums(values: np.ndarray, taps: int) -> np.ndarray:
    """The circular sum of the 2 taps + 1 rows around each row of a 2-D grid.

    Block prefix and suffix sums (M. van Herk, Pattern Recognit. Lett. 13,
    517 (1992); J. Gil and M. Werman, IEEE TPAMI 15, 504 (1993)): the rows
    are padded circularly and cut into blocks of w = 2 taps + 1, so the
    window of row b w + k is block b from its row k on plus block b + 1 up
    to its row k - 1. Both running sums are whole-slab adds, about three
    per cell for any width, and no window is a difference of sums.
    """
    n, width = len(values), 2 * taps + 1
    blocks = (n - 1) // width + 2
    padded = values[np.arange(-taps, blocks * width - taps) % n]
    padded = padded.reshape(blocks, width, -1)
    sums = np.empty_like(padded[1:])
    sums[:, 1] = padded[1:, 0]  # prefix sums of the next block
    for k in range(2, width):
        np.add(sums[:, k - 1], padded[1:, k - 1], out=sums[:, k])
    for k in range(width - 2, -1, -1):  # suffix sums, in place
        padded[:-1, k] += padded[:-1, k + 1]
    sums[:, 0] = padded[:-1, 0]
    sums[:, 1:] += padded[:-1, 1:]
    return sums.reshape(-1, values.shape[1])[:n]


def pinhole_smooth(values: np.ndarray, steps, diameter: float) -> np.ndarray:
    """Smooth a scan grid with a normalized top-hat of the pinhole diameter.

    The model is a 1-D box per detector along the scan axis: grid axis 0
    is detector A, axis 1 detector B. A real pinhole is a disk; its extent
    orthogonal to the scan axis is ignored.

    ``steps`` holds one finite, non-zero position increment (m) per grid
    axis; each axis is convolved circularly with a uniform kernel spanning
    the ``taps`` nodes on either side within +-diameter/2, so the grid
    total is conserved and the maximum can only decrease. The circular
    convolution wraps mass near one edge of the window onto the opposite
    edge. That is a known defect, kept here (ROADMAP.md, open item "Grid
    statistics that converge to the continuum"). ``diameter = 0`` returns
    an unsmoothed copy; a NaN, infinite or negative diameter raises
    ValueError.

    Each axis is one circular window sum (``_window_sums``) and one
    scaling by 1 / (2 taps + 1); axis 1 is summed on the transposed grid.
    Only non-negative terms are ever added, so no cell can cancel to a
    wrong or negative value. A running (cumulative) sum takes each window
    as a difference of two large prefix sums: tail cells would then carry
    an absolute error near 1e-16 of the peak and could go negative, which
    ``JointDistribution`` rejects.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("expected a 2-D scan grid")
    out = grid
    for axis, taps in _pinhole_taps(diameter, steps, grid.shape):
        out = _window_sums(out, taps) if axis == 0 else _window_sums(out.T, taps).T
        out *= 1.0 / (2 * taps + 1)
    return grid.copy() if out is grid else out
