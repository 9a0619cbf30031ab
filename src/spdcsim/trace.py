"""Frequency trace of the mode function and Fourier-plane coincidence rates.

The joint spatial amplitude at a detector-momentum pair is the double
integral of the mode function against the two filter amplitudes over the
frequency detunings. For the Gaussian-approximated mode the integrand is
exp(-1/2 w^T M w + b^T w + c) over w = (omega_e, omega_o) and the integral
has a closed form. The exact-sinc mode writes its phase-matching factor as
an average over crystal depth, exp(i x) sinc x = (1/2) integral of
exp(i x (1 + s)) over s in [-1, 1] with x = dk L/2, so at each depth the
integrand is again a complex Gaussian; its trace is that closed form
summed over Gauss-Legendre depth nodes. A trapezoid quadrature over the
detunings covers either mode and serves as the independent oracle. A CW
(monochromatic) pump pins omega_o = -omega_e and reduces the trace to one
dimension.
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
    mismatch_longitudinal,
    mismatch_transverse_x,
    mismatch_transverse_y,
    mode_function,
)
from .dispersion import C_LIGHT

# intensity FWHM = 2 sigma sqrt(2 ln 2) for a Gaussian amplitude exp(-x^2/4 sigma^2)
_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

DEFAULT_QUADRATURE_NODES = 201
DEFAULT_WINDOW_SIGMAS = 6.0
QUADRATURE_RTOL = 1e-8
# Floor on the node count n of the coarse crystal-depth Gauss-Legendre rule;
# the returned sum uses 2n nodes.
DEPTH_NODES = 24


class DivergingIntegralError(ValueError):
    """The Gaussian frequency integral diverges (Re(M) not positive definite)."""


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
        if self.focal_length <= 0.0:
            raise ValueError("focal length must be positive")
        if self.wavelength_e <= 0.0 or self.wavelength_o <= 0.0:
            raise ValueError("central wavelengths must be positive")

    def position_to_momentum(self, x, wavelength: float):
        return 2.0 * np.pi * np.asarray(x) / (wavelength * self.focal_length)

    def momentum_to_position(self, q, wavelength: float):
        return np.asarray(q) * wavelength * self.focal_length / (2.0 * np.pi)

    def wavelength_at(self, detector: str, assignment: DetectionAssignment) -> float:
        """Central wavelength of the photon routed to detector 'A' or 'B'."""
        if detector not in ("A", "B"):
            raise ValueError(f"detector must be 'A' or 'B', got {detector!r}")
        e_at_a = assignment is DetectionAssignment.E_AT_A
        if (detector == "A") == e_at_a:
            return self.wavelength_e
        return self.wavelength_o


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


@dataclass(frozen=True)
class ComplexQuadraticForm:
    """Integrand exp(-1/2 w^T M w + b^T w + c) over w = (omega_e, omega_o).

    ``matrix`` is a single complex symmetric 2x2; ``linear`` and ``constant``
    may carry leading batch axes so one form describes a whole scan grid.
    """

    matrix: np.ndarray  # (2, 2) complex
    linear: np.ndarray  # (..., 2) complex
    constant: np.ndarray  # (...) complex

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (2, 2):
            raise ValueError(f"matrix must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=1e-12, atol=0.0):
            raise ValueError("matrix must be symmetric")
        if np.shape(self.linear)[-1:] != (2,):
            raise ValueError("linear term must have trailing dimension 2")

    def evaluate(self, omega_e, omega_o):
        """Integrand value at a detuning point; broadcasts over batch axes."""
        w0 = np.asarray(omega_e)
        w1 = np.asarray(omega_o)
        m = self.matrix
        quad = (
            m[0, 0] * w0**2 + m[1, 1] * w1**2 + (m[0, 1] + m[1, 0]) * w0 * w1
        )
        lin = self.linear[..., 0] * w0 + self.linear[..., 1] * w1
        return np.exp(-0.5 * quad + lin + self.constant)

    def require_convergent(self) -> None:
        re_m = np.real(self.matrix)
        if not (re_m[0, 0] > 0.0 and np.linalg.det(re_m) > 0.0):
            raise DivergingIntegralError(
                "Re(M) is not positive definite; the frequency integral diverges "
                "(check filter and pump spectral parameters)"
            )


def resolve_pair(q_A, q_B, assignment: DetectionAssignment):
    """Map detector momenta to (q_e, q_o) for the requested polarizer setting."""
    if assignment is DetectionAssignment.E_AT_A:
        return q_A, q_B
    return q_B, q_A


def build_quadratic_form(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    assignment: DetectionAssignment,
    geom: SpdcGeometry,
    pump: PumpEnvelope,
    filter_e: SpectralFilter,
    filter_o: SpectralFilter,
) -> ComplexQuadraticForm:
    """Assemble f_e f_o times the Gaussian-approximated mode as a quadratic form.

    The form reproduces the integrand pointwise (see ``evaluate``); batched
    detector momenta produce batched linear/constant terms while the matrix,
    which holds no momentum dependence, stays a single 2x2.
    """
    form, _, _ = _quadratic_form(
        q_A, q_B, assignment, geom, pump, filter_e, filter_o, SINC_GAUSSIAN_GAMMA
    )
    return form


def _quadratic_form(q_A, q_B, assignment, geom, pump, filter_e, filter_o, gamma):
    """The form with acceptance exp(-gamma x^2) exp(i x), x = dk L/2, and dk's parts.

    Returns the form, the detuning coefficients ak of dk and dk at zero
    detuning; gamma = 0 leaves only the phase exp(i x) of the acceptance.
    """
    q_e, q_o = resolve_pair(q_A, q_B, assignment)
    sin_e = math.sin(geom.emission_angle_e)
    sin_o = math.sin(geom.emission_angle_o)
    cos_e = math.cos(geom.emission_angle_e)
    cos_o = math.cos(geom.emission_angle_o)
    half_l = geom.crystal_length / 2.0

    # coefficients of (omega_e, omega_o) inside the two mismatch functions
    a1 = np.array([-geom.group_slowness_e * sin_e, geom.group_slowness_o * sin_o])
    ak = np.array(
        [
            geom.group_slowness_pump - geom.group_slowness_e * cos_e,
            geom.group_slowness_pump - geom.group_slowness_o * cos_o,
        ]
    )

    matrix = 2.0 * (
        np.diag([1.0 / (4.0 * filter_e.sigma**2), 1.0 / (4.0 * filter_o.sigma**2)])
        + (pump.waist_y**2 / 4.0) * np.outer(a1, a1)
        + gamma * half_l**2 * np.outer(ak, ak)
    ).astype(complex)
    if pump.spectral_mode == SPECTRAL_GAUSSIAN:
        matrix += np.ones((2, 2)) / (2.0 * pump.spectral_sigma**2)

    d0 = np.asarray(mismatch_transverse_x(q_e, q_o), dtype=float)
    d1 = np.asarray(mismatch_transverse_y(q_e, 0.0, q_o, 0.0, geom), dtype=float)
    dk = np.asarray(mismatch_longitudinal(q_e, 0.0, q_o, 0.0, geom), dtype=float)

    linear = (
        -(pump.waist_y**2 / 2.0) * d1[..., np.newaxis] * a1
        - 2.0 * gamma * half_l**2 * dk[..., np.newaxis] * ak
        + 1j * half_l * ak
    )
    constant = (
        -(pump.waist_x**2 / 4.0) * d0**2
        - (pump.waist_y**2 / 4.0) * d1**2
        - gamma * (half_l * dk) ** 2
        + 1j * half_l * dk
    )
    form = ComplexQuadraticForm(matrix=matrix, linear=linear, constant=constant)
    form.require_convergent()
    return form, ak, dk


def _sqrt_det_continuous(matrix: np.ndarray) -> complex:
    # branch continuous from the real positive-definite limit: product of
    # principal square roots of the eigenvalues, which sit in Re > 0
    eigenvalues = np.linalg.eigvals(matrix)
    return complex(np.prod(np.sqrt(eigenvalues)))


def integrate_gaussian(form: ComplexQuadraticForm):
    """Closed form of the full 2-D integral: (2 pi / sqrt(det M)) exp(b^T M^-1 b / 2 + c)."""
    form.require_convergent()
    m_inv = np.linalg.inv(form.matrix)
    quad = np.einsum("...i,ij,...j->...", form.linear, m_inv, form.linear)
    return 2.0 * np.pi / _sqrt_det_continuous(form.matrix) * np.exp(0.5 * quad + form.constant)


def integrate_gaussian_antidiagonal(form: ComplexQuadraticForm):
    """Closed form of the 1-D integral along omega_o = -omega_e (CW pump trace)."""
    m = form.matrix
    m_line = m[0, 0] - m[0, 1] - m[1, 0] + m[1, 1]
    if not np.real(m_line) > 0.0:
        raise DivergingIntegralError(
            "frequency integral along the CW-pump line diverges"
        )
    b_line = form.linear[..., 0] - form.linear[..., 1]
    return np.sqrt(2.0 * np.pi / m_line) * np.exp(
        b_line**2 / (2.0 * m_line) + form.constant
    )


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
    complex Gaussian with i s (L/2) ak added to its linear term and
    i s (L/2) dk0 to its constant, so its closed form is the s = 0 value
    times exp(B s + C s^2): B = i (L/2) (ak^T M^-1 b + dk0) per point and
    C = -(L/2)^2 ak^T M^-1 ak / 2, with M, b and ak restricted to the line
    omega_o = -omega_e for a CW pump.
    """
    geom, pump = system.geometry, system.pump
    form, ak, dk = _quadratic_form(
        q_A, q_B, assignment, geom, pump, system.filter_e, system.filter_o, 0.0
    )
    half_l = geom.crystal_length / 2.0
    if pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        base = integrate_gaussian_antidiagonal(form)
        m = form.matrix
        ak_line = ak[0] - ak[1]
        m_inv_ak = ak_line / (m[0, 0] - m[0, 1] - m[1, 0] + m[1, 1])
        ak_b = (form.linear[..., 0] - form.linear[..., 1]) * m_inv_ak
        ak_ak = ak_line * m_inv_ak
    else:
        base = integrate_gaussian(form)
        m_inv_ak = np.linalg.solve(form.matrix, ak)
        ak_b = form.linear @ m_inv_ak
        ak_ak = ak @ m_inv_ak
    slope = 1j * half_l * (ak_b + dk)
    curvature = complex(-0.5 * half_l**2 * ak_ak)
    return base * depth_average(slope, curvature, np.abs(base))


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


# Integrand cells (points x fine nodes) evaluated at once on the CW path; small
# chunks keep the temporaries in cache and the peak memory flat.
QUADRATURE_CHUNK_CELLS = 4096


def _trace_monochromatic(q_e, q_o, form, system, mode, nodes, window_sigmas):
    """Fine, coarse and |integrand| integrals along omega_o = -omega_e, per point.

    Each point's window and node count n come from its quadratic form. Points
    are grouped by n and evaluated in chunks of QUADRATURE_CHUNK_CELLS on 2n-1
    fine nodes; the even nodes equal np.linspace(lo, hi, n) bit for bit, so
    they carry the step-doubled coarse rule without a second evaluation.
    """
    geom, pump = system.geometry, system.pump
    filter_e, filter_o = system.filter_e, system.filter_o
    matrix = form.matrix
    m_line = float(np.real(matrix[0, 0] - matrix[0, 1] - matrix[1, 0] + matrix[1, 1]))
    b_line = (form.linear[..., 0] - form.linear[..., 1]).reshape(-1)
    center = b_line.real / m_line
    product_sigma = 1.0 / math.sqrt(m_line)
    pair_sigma = 1.0 / math.sqrt(
        2.0 * (1.0 / (4.0 * filter_e.sigma**2) + 1.0 / (4.0 * filter_o.sigma**2))
    )
    lo = np.minimum(-window_sigmas * pair_sigma, center - window_sigmas * product_sigma)
    hi = np.maximum(window_sigmas * pair_sigma, center + window_sigmas * product_sigma)
    counts = np.broadcast_to(
        _node_count(hi - lo, product_sigma, np.abs(b_line.imag), nodes), lo.shape
    )

    shape = np.shape(form.constant)
    q_e_x, q_e_y, q_o_x, q_o_y = (
        np.broadcast_to(component, shape).reshape(-1, 1)
        for component in (q_e.qx, q_e.qy, q_o.qx, q_o.qy)
    )
    fine = np.empty(lo.shape, dtype=complex)
    coarse = np.empty(lo.shape, dtype=complex)
    magnitude = np.empty(lo.shape)
    for n in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == n)
        fine_nodes = 2 * n - 1
        step = max(1, QUADRATURE_CHUNK_CELLS // fine_nodes)
        for start in range(0, group.size, step):
            rows = group[start:start + step]
            # linspace returns the rows F-ordered; in C order numpy's pairwise
            # sum adds each row as it adds a lone 1-D array, bit for bit
            omega = np.ascontiguousarray(
                np.linspace(lo[rows], hi[rows], fine_nodes, axis=-1)
            )
            integrand = (
                filter_e.amplitude(omega)
                * filter_o.amplitude(-omega)
                * mode_function(
                    TransverseWavevector(qx=q_e_x[rows], qy=q_e_y[rows]),
                    omega,
                    TransverseWavevector(qx=q_o_x[rows], qy=q_o_y[rows]),
                    -omega,
                    geom,
                    pump,
                    mode,
                )
            )
            fine[rows] = np.trapezoid(integrand, omega, axis=-1)
            magnitude[rows] = np.trapezoid(np.abs(integrand), omega, axis=-1)
            coarse[rows] = np.trapezoid(integrand[:, ::2], omega[:, ::2], axis=-1)
    return fine, coarse, magnitude


def _trace_gaussian_pump(q_e, q_o, matrix, linear, system, mode, nodes, window_sigmas):
    """Fine, coarse and |integrand| integrals over the 2-D trace at one point.

    A pulsed pump leaves both detunings free, so one point is already a
    grid of about 401^2 cells; the coarse rule reads the even fine nodes.
    """
    geom, pump = system.geometry, system.pump
    filter_e, filter_o = system.filter_e, system.filter_o
    re_m = np.real(matrix)
    center = np.linalg.solve(re_m, np.real(linear))
    sigma_product = np.sqrt(np.diag(np.linalg.inv(re_m)))
    filter_sigmas = np.array(
        [math.sqrt(2.0) * filter_e.sigma, math.sqrt(2.0) * filter_o.sigma]
    )
    lo = np.minimum(-window_sigmas * filter_sigmas, center - window_sigmas * sigma_product)
    hi = np.maximum(window_sigmas * filter_sigmas, center + window_sigmas * sigma_product)
    phase_rates = np.abs(np.imag(linear))
    counts = [
        int(_node_count(hi[i] - lo[i], sigma_product[i], phase_rates[i], nodes))
        for i in (0, 1)
    ]
    axes = [np.linspace(lo[i], hi[i], 2 * counts[i] - 1) for i in (0, 1)]
    o_e, o_o = np.meshgrid(axes[0], axes[1], indexing="ij")
    integrand = (
        filter_e.amplitude(o_e)
        * filter_o.amplitude(o_o)
        * mode_function(q_e, o_e, q_o, o_o, geom, pump, mode)
    )

    def integrate(values, axis_e, axis_o):
        return np.trapezoid(np.trapezoid(values, axis_o, axis=1), axis_e)

    fine = integrate(integrand, axes[0], axes[1])
    magnitude = integrate(np.abs(integrand), axes[0], axes[1])
    coarse = integrate(integrand[::2, ::2], axes[0][::2], axes[1][::2])
    return fine, coarse, magnitude


def integrate_quadrature(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    *,
    nodes: int = DEFAULT_QUADRATURE_NODES,
    window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    check_convergence: bool = True,
    mode: str | None = None,
):
    """Direct trapezoid evaluation of the frequency trace at momentum pairs.

    This is ``spatial_biphoton(..., method="quadrature")``, the independent
    oracle for both closed forms. Valid for either mode-function flavor and
    broadcast over momentum arrays: a scalar pair returns a complex scalar,
    arrays return an array of their broadcast shape. Each point's
    integration window is sized from its Gaussian-approximated form
    (covering both the full filter support and the shifted product
    Gaussian) and its node count n is raised above ``nodes`` whenever the
    window demands finer resolution. The integral is taken on 2n-1 nodes
    per axis; the even nodes give the rule with the step doubled. When
    ``check_convergence`` is set, one QuadratureAccuracyWarning per call
    reports how many points changed by more than QUADRATURE_RTOL relative
    between the two, the worst ratio and the largest change relative to the
    grid peak; degraded accuracy is reported, never raised. The window
    follows the Gaussian form, not the sinc^2 tails, so at pump waists of
    hundreds of um the exact-sinc trapezoid under-resolves tail points and
    warns; the depth closed form does not need a window.

    With a CW pump the points are grouped by node count and integrated in
    chunks of QUADRATURE_CHUNK_CELLS integrand cells; the result is
    bit-identical to integrating each point alone. A pulsed pump integrates
    one point at a time.
    """
    mode = system.mode if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q_e, q_o = resolve_pair(q_A, q_B, assignment)
    form = build_quadratic_form(
        q_A, q_B, assignment, system.geometry, system.pump,
        system.filter_e, system.filter_o,
    )
    shape = np.shape(form.constant)

    if system.pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        fine, coarse, magnitude = _trace_monochromatic(
            q_e, q_o, form, system, mode, nodes, window_sigmas
        )
    else:
        fine = np.empty(shape, dtype=complex)
        coarse = np.empty(shape, dtype=complex)
        magnitude = np.empty(shape)
        components = np.broadcast_arrays(q_e.qx, q_e.qy, q_o.qx, q_o.qy)
        for index in np.ndindex(shape):
            qex, qey, qox, qoy = (float(c[index]) for c in components)
            fine[index], coarse[index], magnitude[index] = _trace_gaussian_pump(
                TransverseWavevector(qx=qex, qy=qey),
                TransverseWavevector(qx=qox, qy=qoy),
                form.matrix,
                form.linear[index],
                system,
                mode,
                nodes,
                window_sigmas,
            )

    if check_convergence:
        denom = np.maximum(np.abs(fine), 1e-9 * magnitude)
        _warn_unconverged(fine, coarse, denom, 1.0, "halving the step")
    return fine.reshape(shape)[()]


def spatial_biphoton(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    method: str = "closed_form",
):
    """Joint spatial amplitude at a detector-momentum pair, frequency traced out.

    ``method`` is ``"closed_form"`` (the default, for either mode) or
    ``"quadrature"``, one batched ``integrate_quadrature`` call that serves
    as the independent oracle; both broadcast over momentum arrays. The
    Gaussian mode's closed form is exact. The exact-sinc mode's is the
    crystal-depth average of ``_trace_exact_sinc``, whose Gauss-Legendre sum
    is checked against half its nodes (see ``depth_average``).
    """
    if method == "closed_form":
        if system.mode != MODE_GAUSSIAN_APPROX:
            return _trace_exact_sinc(q_A, q_B, system, assignment)
        form = build_quadratic_form(
            q_A, q_B, assignment, system.geometry, system.pump,
            system.filter_e, system.filter_o,
        )
        if system.pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
            return integrate_gaussian_antidiagonal(form)
        return integrate_gaussian(form)
    if method == "quadrature":
        return integrate_quadrature(q_A, q_B, system, assignment)
    raise ValueError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def coincidence_rate(
    x_A,
    x_B,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    method: str = "closed_form",
):
    """|spatial biphoton|^2 at detector positions x_A, x_B (2-vectors, m).

    Positions map to momenta through the Fourier-plane relation of each arm,
    using the central wavelength of the photon that arm detects under the
    given assignment. Always non-negative.
    """
    lam_a = system.fourier.wavelength_at("A", assignment)
    lam_b = system.fourier.wavelength_at("B", assignment)
    q_A = TransverseWavevector(
        qx=system.fourier.position_to_momentum(x_A[0], lam_a),
        qy=system.fourier.position_to_momentum(x_A[1], lam_a),
    )
    q_B = TransverseWavevector(
        qx=system.fourier.position_to_momentum(x_B[0], lam_b),
        qy=system.fourier.position_to_momentum(x_B[1], lam_b),
    )
    q_A.check_paraxial(lam_a)
    q_B.check_paraxial(lam_b)
    amplitude = spatial_biphoton(q_A, q_B, system, assignment, method=method)
    return np.abs(amplitude) ** 2


def pinhole_smooth(values: np.ndarray, steps, diameter: float) -> np.ndarray:
    """Smooth a scan grid with a normalized top-hat of the pinhole diameter.

    The model is a 1-D box per detector along the scan axis: grid axis 0
    is detector A, axis 1 detector B. A real pinhole is a disk; its extent
    orthogonal to the scan axis is ignored.

    ``steps`` holds the position increment (m) along each grid axis; each
    axis is convolved circularly with a uniform kernel spanning the taps
    within +-diameter/2, so the grid total is conserved and the maximum can
    only decrease. The circular convolution wraps mass near one edge of the
    window onto the opposite edge. That is a known defect, kept bit for bit
    here (ROADMAP.md, open item 2). ``diameter = 0`` returns an unsmoothed
    copy.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("expected a 2-D scan grid")
    if diameter < 0.0:
        raise ValueError("pinhole diameter must be non-negative")
    out = grid.copy()
    if diameter == 0.0:
        return out
    for axis, step in enumerate(steps):
        span = abs(step) * (grid.shape[axis] - 1)
        if diameter > span:
            raise ValueError(
                f"pinhole diameter {diameter} m exceeds the scan span {span} m "
                f"along axis {axis}"
            )
        taps = int(math.floor(diameter / (2.0 * abs(step)) + 1e-12))
        if taps == 0:
            continue
        weight = 1.0 / (2 * taps + 1)
        n = grid.shape[axis]
        padded = np.take(out, np.arange(-taps, n + taps) % n, axis=axis)
        smoothed = np.zeros_like(out)
        for offset in range(-taps, taps + 1):
            # np.roll(out, offset, axis) is this window of the wrap-padded grid
            start = taps - offset
            smoothed += padded[(slice(None),) * axis + (slice(start, start + n),)]
        out = smoothed * weight
    return out
