"""Frequency trace of the mode function and Fourier-plane coincidence rates.

The joint spatial amplitude at a detector-momentum pair is the double
integral of the mode function against the two filter amplitudes over the
frequency detunings. For the Gaussian-approximated mode the integrand is
exp(-1/2 w^T M w + b^T w + c) over w = (omega_e, omega_o) and the integral
has a closed form; a trapezoid quadrature path covers the exact-sinc mode
and doubles as an independent oracle. A CW (monochromatic) pump pins
omega_o = -omega_e and reduces the trace to one dimension.
"""

from __future__ import annotations

import enum
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
        + SINC_GAUSSIAN_GAMMA * half_l**2 * np.outer(ak, ak)
    ).astype(complex)
    if pump.spectral_mode == SPECTRAL_GAUSSIAN:
        matrix += np.ones((2, 2)) / (2.0 * pump.spectral_sigma**2)

    d0 = np.asarray(mismatch_transverse_x(q_e, q_o), dtype=float)
    d1 = np.asarray(mismatch_transverse_y(q_e, 0.0, q_o, 0.0, geom), dtype=float)
    dk = np.asarray(mismatch_longitudinal(q_e, 0.0, q_o, 0.0, geom), dtype=float)

    linear = (
        -(pump.waist_y**2 / 2.0) * d1[..., np.newaxis] * a1
        - 2.0 * SINC_GAUSSIAN_GAMMA * half_l**2 * dk[..., np.newaxis] * ak
        + 1j * half_l * ak
    )
    constant = (
        -(pump.waist_x**2 / 4.0) * d0**2
        - (pump.waist_y**2 / 4.0) * d1**2
        - SINC_GAUSSIAN_GAMMA * (half_l * dk) ** 2
        + 1j * half_l * dk
    )
    form = ComplexQuadraticForm(matrix=matrix, linear=linear, constant=constant)
    form.require_convergent()
    return form


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


def _node_count(span: float, feature_scale: float, phase_rate: float, floor: int) -> int:
    n = floor
    if feature_scale > 0.0:
        n = max(n, int(math.ceil(2.5 * span / feature_scale)) + 1)
    if phase_rate > 0.0:
        n = max(n, int(math.ceil(4.0 * span * phase_rate / math.pi)) + 1)
    return n


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
    """Direct trapezoid evaluation of the frequency trace at one momentum pair.

    Valid for either mode-function flavor; the integration window is sized
    from the Gaussian-approximated form (covering both the full filter
    support and the shifted product Gaussian) and the node count is raised
    above ``nodes`` whenever the window demands finer resolution. When
    ``check_convergence`` is set the integral is recomputed with the step
    halved and a QuadratureAccuracyWarning reports any relative change
    above 1e-8; degraded accuracy is reported, never raised.
    """
    mode = system.mode if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    geom, pump = system.geometry, system.pump
    filter_e, filter_o = system.filter_e, system.filter_o
    q_e, q_o = resolve_pair(q_A, q_B, assignment)
    form = build_quadratic_form(q_A, q_B, assignment, geom, pump, filter_e, filter_o)
    if np.shape(form.constant) != ():
        raise ValueError("quadrature path is pointwise; pass scalar momenta")

    if pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        m_line = float(
            np.real(
                form.matrix[0, 0] - form.matrix[0, 1] - form.matrix[1, 0] + form.matrix[1, 1]
            )
        )
        b_line = complex(form.linear[0] - form.linear[1])
        center = b_line.real / m_line
        product_sigma = 1.0 / math.sqrt(m_line)
        pair_sigma = 1.0 / math.sqrt(
            2.0 * (1.0 / (4.0 * filter_e.sigma**2) + 1.0 / (4.0 * filter_o.sigma**2))
        )
        lo = min(-window_sigmas * pair_sigma, center - window_sigmas * product_sigma)
        hi = max(window_sigmas * pair_sigma, center + window_sigmas * product_sigma)
        n = _node_count(hi - lo, product_sigma, abs(b_line.imag), nodes)

        def evaluate(num):
            omega = np.linspace(lo, hi, num)
            integrand = (
                filter_e.amplitude(omega)
                * filter_o.amplitude(-omega)
                * mode_function(q_e, omega, q_o, -omega, geom, pump, mode)
            )
            return np.trapezoid(integrand, omega), np.trapezoid(np.abs(integrand), omega)

    else:
        re_m = np.real(form.matrix)
        center = np.linalg.solve(re_m, np.real(form.linear))
        sigma_product = np.sqrt(np.diag(np.linalg.inv(re_m)))
        filter_sigmas = np.array(
            [math.sqrt(2.0) * filter_e.sigma, math.sqrt(2.0) * filter_o.sigma]
        )
        lo = np.minimum(-window_sigmas * filter_sigmas, center - window_sigmas * sigma_product)
        hi = np.maximum(window_sigmas * filter_sigmas, center + window_sigmas * sigma_product)
        phase_rates = np.abs(np.imag(form.linear))
        counts = [
            _node_count(hi[i] - lo[i], sigma_product[i], phase_rates[i], nodes)
            for i in (0, 1)
        ]

        def evaluate(num_scale):
            axes = [
                np.linspace(lo[i], hi[i], (counts[i] - 1) * num_scale + 1)
                for i in (0, 1)
            ]
            o_e, o_o = np.meshgrid(axes[0], axes[1], indexing="ij")
            integrand = (
                filter_e.amplitude(o_e)
                * filter_o.amplitude(o_o)
                * mode_function(q_e, o_e, q_o, o_o, geom, pump, mode)
            )
            value = np.trapezoid(np.trapezoid(integrand, axes[1], axis=1), axes[0])
            scale = np.trapezoid(np.trapezoid(np.abs(integrand), axes[1], axis=1), axes[0])
            return value, scale

    if pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        coarse, _ = evaluate(n)
        fine, magnitude = evaluate(2 * n - 1)
    else:
        coarse, _ = evaluate(1)
        fine, magnitude = evaluate(2)

    if check_convergence:
        denom = max(abs(fine), 1e-9 * magnitude)
        if denom > 0.0 and abs(fine - coarse) / denom > QUADRATURE_RTOL:
            warnings.warn(
                f"quadrature changed by {abs(fine - coarse) / denom:.2e} relative "
                "when halving the step; result may be inaccurate",
                QuadratureAccuracyWarning,
                stacklevel=2,
            )
    return fine


def spatial_biphoton(
    q_A: TransverseWavevector,
    q_B: TransverseWavevector,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    method: str | None = None,
):
    """Joint spatial amplitude at a detector-momentum pair, frequency traced out.

    ``method`` is ``"closed_form"`` (Gaussian-approximated mode only) or
    ``"quadrature"``, which evaluates ``integrate_quadrature`` point by
    point; both broadcast over momentum arrays. By default the Gaussian mode
    takes the closed form and the exact-sinc mode the quadrature.
    """
    if method is None:
        method = "closed_form" if system.mode == MODE_GAUSSIAN_APPROX else "quadrature"
    if method == "closed_form":
        if system.mode != MODE_GAUSSIAN_APPROX:
            raise ValueError("closed-form trace requires the gaussian_approx mode")
        form = build_quadratic_form(
            q_A, q_B, assignment, system.geometry, system.pump,
            system.filter_e, system.filter_o,
        )
        if system.pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
            return integrate_gaussian_antidiagonal(form)
        return integrate_gaussian(form)
    if method == "quadrature":
        qx_a, qy_a, qx_b, qy_b = np.broadcast_arrays(q_A.qx, q_A.qy, q_B.qx, q_B.qy)
        amplitude = np.empty(qx_a.shape, dtype=complex)
        for index in np.ndindex(amplitude.shape):
            amplitude[index] = integrate_quadrature(
                TransverseWavevector(qx=float(qx_a[index]), qy=float(qy_a[index])),
                TransverseWavevector(qx=float(qx_b[index]), qy=float(qy_b[index])),
                system,
                assignment,
            )
        return amplitude[()]
    raise ValueError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def coincidence_rate(
    x_A,
    x_B,
    system: OpticalSystem,
    assignment: DetectionAssignment,
    method: str | None = None,
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

    ``steps`` holds the position increment (m) along each grid axis; each
    axis is convolved circularly with a uniform kernel spanning the taps
    within +-diameter/2, so the grid total is conserved and the maximum can
    only decrease. ``diameter = 0`` returns an unsmoothed copy.
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
        smoothed = np.zeros_like(out)
        for offset in range(-taps, taps + 1):
            smoothed += np.roll(out, offset, axis=axis)
        out = smoothed * weight
    return out
