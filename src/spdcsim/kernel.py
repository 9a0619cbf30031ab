"""Phase-matching functions and the two-photon mode function.

All quantities are SI: transverse wavevectors in rad/m, frequency detunings
in rad/s (plain floats or numpy arrays), lengths in m, inverse group
velocities in s/m. Functions broadcast over numpy arrays, so a whole scan
grid can be evaluated in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dispersion import C_LIGHT

# Width parameter of the Gaussian stand-in for sinc: sinc(x) ~ exp(-gamma x^2),
# matched at 1/e^2 of the maximum.
SINC_GAUSSIAN_GAMMA = 0.193

MODE_EXACT_SINC = "exact_sinc"
MODE_GAUSSIAN_APPROX = "gaussian_approx"
MODES = (MODE_EXACT_SINC, MODE_GAUSSIAN_APPROX)

SPECTRAL_MONOCHROMATIC = "monochromatic"
SPECTRAL_GAUSSIAN = "gaussian"

# Fraction of 2*pi/lambda beyond which the paraxial treatment is suspect.
PARAXIAL_FRACTION = 0.1


class ParaxialWarning(UserWarning):
    """Transverse momentum too large for the paraxial expansion."""


def _all_finite(component) -> bool:
    """Whether a scalar, or every entry of an array, is finite.

    ``math.isfinite`` takes Python and numpy scalars in well under a
    microsecond, a numpy ufunc call several.
    """
    if isinstance(component, (float, int, np.floating, np.integer)):
        return math.isfinite(component)
    return bool(np.isfinite(component).all())


def _require_finite(instance, *labels) -> None:
    """Raise ValueError naming the first of the fields ``labels`` that is not finite."""
    for label in labels:
        value = getattr(instance, label)
        if not _all_finite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class TransverseWavevector:
    """Transverse wavevector components (rad/m); scalar or array valued."""

    qx: float
    qy: float

    def __post_init__(self):
        if not (_all_finite(self.qx) and _all_finite(self.qy)):
            raise ValueError("transverse wavevector components must be finite")

    def magnitude(self):
        return np.hypot(self.qx, self.qy)

    def check_paraxial(self, wavelength: float) -> None:
        """Warn when |q| exceeds PARAXIAL_FRACTION of the carrier 2*pi/lambda."""
        limit = PARAXIAL_FRACTION * 2.0 * np.pi / wavelength
        if np.any(self.magnitude() > limit):
            warnings.warn(
                f"|q| exceeds {PARAXIAL_FRACTION:.0%} of 2*pi/lambda; "
                "paraxial model accuracy degrades",
                ParaxialWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SpdcGeometry:
    """Crystal-frame constants consumed by the phase-matching functions.

    Emission angles are internal angles between each down-converted central
    wavevector and the pump axis; walk-off tilts the pump and the
    extraordinary photon within the x-z plane; slownesses are inverse group
    velocities evaluated at the central frequencies.
    """

    emission_angle_e: float  # rad
    emission_angle_o: float  # rad
    walkoff_pump: float  # rad
    walkoff_e: float  # rad
    group_slowness_pump: float  # s/m
    group_slowness_e: float  # s/m
    group_slowness_o: float  # s/m
    crystal_length: float  # m

    def __post_init__(self):
        _require_finite(
            self, "walkoff_pump", "walkoff_e", "group_slowness_pump",
            "group_slowness_e", "group_slowness_o", "crystal_length",
        )
        if self.crystal_length <= 0.0:
            raise ValueError("crystal_length must be positive")
        for label in ("emission_angle_e", "emission_angle_o"):
            angle = getattr(self, label)
            if not (0.0 <= angle < np.pi / 2):
                raise ValueError(f"{label} must lie in [0, pi/2), got {angle}")
        for label in ("group_slowness_pump", "group_slowness_e", "group_slowness_o"):
            if getattr(self, label) <= 1.0 / C_LIGHT:
                raise ValueError(f"{label} must exceed 1/c")


@dataclass(frozen=True)
class PumpEnvelope:
    """Pump transverse waists and spectral envelope.

    ``waist_x`` multiplies the x-direction mismatch and ``waist_y`` the
    y-direction one; set them equal to recover an isotropic pump. The
    spectral envelope is either ``monochromatic`` (a CW pump, which pins
    the detunings to omega_e = -omega_o when tracing over frequency) or
    ``gaussian`` with amplitude width ``spectral_sigma`` (rad/s).
    """

    waist_x: float  # m
    waist_y: float  # m
    spectral_mode: str = SPECTRAL_MONOCHROMATIC
    spectral_sigma: float | None = None

    def __post_init__(self):
        _require_finite(self, "waist_x", "waist_y")
        if self.spectral_sigma is not None:
            _require_finite(self, "spectral_sigma")
        if self.waist_x <= 0.0 or self.waist_y <= 0.0:
            raise ValueError("pump waists must be positive")
        if self.spectral_mode not in (SPECTRAL_MONOCHROMATIC, SPECTRAL_GAUSSIAN):
            raise ValueError(f"unknown spectral_mode {self.spectral_mode!r}")
        if self.spectral_mode == SPECTRAL_GAUSSIAN:
            if self.spectral_sigma is None or self.spectral_sigma <= 0.0:
                raise ValueError("gaussian spectral mode needs spectral_sigma > 0")


def mismatch_transverse_x(q_e: TransverseWavevector, q_o: TransverseWavevector):
    """Transverse phase mismatch along the walk-off (x) axis: q_e^x + q_o^x."""
    return q_e.qx + q_o.qx


def mismatch_transverse_y(
    q_e: TransverseWavevector,
    omega_e,
    q_o: TransverseWavevector,
    omega_o,
    geom: SpdcGeometry,
):
    """Transverse phase mismatch along the emission-plane (y) axis."""
    return (
        q_e.qy * np.cos(geom.emission_angle_e)
        + q_o.qy * np.cos(geom.emission_angle_o)
        - geom.group_slowness_e * omega_e * np.sin(geom.emission_angle_e)
        + geom.group_slowness_o * omega_o * np.sin(geom.emission_angle_o)
        - geom.walkoff_e * q_e.qx * np.sin(geom.emission_angle_e)
    )


def mismatch_longitudinal(
    q_e: TransverseWavevector,
    omega_e,
    q_o: TransverseWavevector,
    omega_o,
    geom: SpdcGeometry,
):
    """Longitudinal phase mismatch along the pump axis."""
    return (
        geom.group_slowness_pump * (omega_e + omega_o)
        - geom.group_slowness_e * omega_e * np.cos(geom.emission_angle_e)
        - geom.group_slowness_o * omega_o * np.cos(geom.emission_angle_o)
        - q_e.qy * np.sin(geom.emission_angle_e)
        + q_o.qy * np.sin(geom.emission_angle_o)
        + geom.walkoff_pump * mismatch_transverse_x(q_e, q_o)
        - geom.walkoff_e * q_e.qx * np.cos(geom.emission_angle_e)
    )


def pump_envelope(mismatch_x, mismatch_y, pump: PumpEnvelope):
    """Transverse pump amplitude exp[-(w_x^2 dx^2 + w_y^2 dy^2)/4], peak 1."""
    return np.exp(
        -(pump.waist_x**2 * np.asarray(mismatch_x) ** 2
          + pump.waist_y**2 * np.asarray(mismatch_y) ** 2) / 4.0
    )


def spectral_envelope(omega_e, omega_o, pump: PumpEnvelope):
    """Pump spectral amplitude at the summed detuning, peak 1.

    Monochromatic pumps return 1; the detuning constraint they impose is
    applied by the frequency-trace integrators, not here.
    """
    if pump.spectral_mode == SPECTRAL_MONOCHROMATIC:
        return 1.0
    total = np.asarray(omega_e) + np.asarray(omega_o)
    return np.exp(-(total**2) / (4.0 * pump.spectral_sigma**2))


def sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def mode_function(
    q_e: TransverseWavevector,
    omega_e,
    q_o: TransverseWavevector,
    omega_o,
    geom: SpdcGeometry,
    pump: PumpEnvelope,
    mode: str = MODE_GAUSSIAN_APPROX,
):
    """Two-photon joint amplitude at one point of (q_e, omega_e, q_o, omega_o).

    Returns the complex amplitude normalized to 1 at the all-zero argument:
    the product of the pump envelopes, the longitudinal acceptance
    sinc(dk L/2) (or its Gaussian stand-in exp(-gamma (dk L/2)^2)) and the
    accumulated phase exp(i dk L/2). Detection-order swaps are expressed by
    exchanging which detector momentum feeds q_e and q_o.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    d0 = mismatch_transverse_x(q_e, q_o)
    d1 = mismatch_transverse_y(q_e, omega_e, q_o, omega_o, geom)
    dk = mismatch_longitudinal(q_e, omega_e, q_o, omega_o, geom)
    half_phase = dk * geom.crystal_length / 2.0
    if mode == MODE_GAUSSIAN_APPROX:
        acceptance = np.exp(-SINC_GAUSSIAN_GAMMA * half_phase**2)
    else:
        acceptance = sinc(half_phase)
    return (
        pump_envelope(d0, d1, pump)
        * spectral_envelope(omega_e, omega_o, pump)
        * acceptance
        * np.exp(1j * half_phase)
    )
