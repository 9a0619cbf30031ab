"""Refractive-index model for uniaxial birefringent crystals.

Provides the ordinary and angle-dependent extraordinary index, the
Poynting-vector walk-off angle and the inverse group velocity, all from a
Sellmeier coefficient set loaded from a versioned material data file. Each
Sellmeier formula comes with its exact derivative, so the group velocity
needs no finite difference.
Wavelengths at the API are in meters; the coefficient formulas use
micrometers internally, which is how the data files are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

C_LIGHT = 299792458.0  # m/s

# libyaml's safe loader where PyYAML was built with it, the pure-Python one
# otherwise; both build the same values from the shipped config and data files
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _is_finite_number(value) -> bool:
    # YAML true/false load as bool, which Python counts as int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


class WavelengthRangeError(ValueError):
    """Wavelength outside the validity range of the dispersion data."""


class MaterialFileError(ValueError):
    """Material data file is missing, malformed or inconsistent."""


# formula_id -> (coefficient count, n^2 and d(n^2)/d(lambda^2) as functions
# of coeffs and lambda^2 in um^2)
_FORMULAS = {
    "sqrt-abcd": (
        4,
        lambda c, l2: c[0] + c[1] / (l2 - c[2]) - c[3] * l2,
        lambda c, l2: -c[1] / (l2 - c[2]) ** 2 - c[3],
    ),
}

_REQUIRED_KEYS = {
    "name",
    "provenance",
    "formula_id",
    "valid_range_um",
    "ordinary_coeffs",
    "extraordinary_coeffs",
}


@dataclass(frozen=True)
class SellmeierModel:
    """Index curves n_o(lambda) and principal n_e(lambda) of one material."""

    name: str
    provenance: str
    formula_id: str
    valid_range_um: tuple[float, float]
    ordinary_coeffs: tuple[float, ...]
    extraordinary_coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.formula_id not in _FORMULAS:
            raise MaterialFileError(
                f"unknown formula_id {self.formula_id!r}; known: {sorted(_FORMULAS)}"
            )
        count = _FORMULAS[self.formula_id][0]
        for label, coeffs in (
            ("ordinary_coeffs", self.ordinary_coeffs),
            ("extraordinary_coeffs", self.extraordinary_coeffs),
        ):
            if len(coeffs) != count:
                raise MaterialFileError(
                    f"{label}: expected {count} coefficients for "
                    f"{self.formula_id!r}, got {len(coeffs)}"
                )
        lo, hi = self.valid_range_um
        if not (0.0 < lo < hi):
            raise MaterialFileError(f"invalid valid_range_um {self.valid_range_um}")

    def _index_and_slope(self, coeffs, wavelength: float) -> tuple[float, float]:
        """n and its log-slope (lambda / n) dn/dlambda = lambda^2 d(n^2)/d(lambda^2) / n^2."""
        lam_um = wavelength * 1e6
        lo, hi = self.valid_range_um
        # a few ulp of slack at each edge: an edge written in metres comes back
        # rounded, as 0.22 * 1e-6 m does to 0.21999999999999997 um
        if not (lo - 4.0 * math.ulp(lo) <= lam_um <= hi + 4.0 * math.ulp(hi)):
            raise WavelengthRangeError(
                f"wavelength {lam_um!r} um outside valid range "
                f"[{lo}, {hi}] um of material {self.name!r}"
            )
        _, index_sq, index_sq_slope = _FORMULAS[self.formula_id]
        lam_sq = lam_um**2
        n_sq = index_sq(coeffs, lam_sq)
        if not (n_sq > 1.0 and math.isfinite(n_sq)):
            raise MaterialFileError(
                f"material {self.name!r} gives non-physical n^2 = {n_sq} "
                f"at {lam_um:.4f} um"
            )
        return math.sqrt(n_sq), lam_sq * index_sq_slope(coeffs, lam_sq) / n_sq

    def ordinary(self, wavelength: float) -> float:
        return self._index_and_slope(self.ordinary_coeffs, wavelength)[0]

    def principal_extraordinary(self, wavelength: float) -> float:
        return self._index_and_slope(self.extraordinary_coeffs, wavelength)[0]


@dataclass(frozen=True)
class UniaxialCrystal:
    """A Sellmeier model plus the cut angle between optic axis and pump axis."""

    sellmeier: SellmeierModel
    cut_angle: float  # rad

    def __post_init__(self):
        if not (0.0 < self.cut_angle < math.pi / 2):
            raise ValueError(
                f"cut_angle must lie in (0, pi/2) rad, got {self.cut_angle}"
            )


def builtin_material_path(name: str) -> Path:
    """Path of a material data file shipped with the package."""
    ref = resources.files("spdcsim").joinpath(f"data/{name}.yaml")
    with resources.as_file(ref) as path:
        if not path.exists():
            raise MaterialFileError(f"no builtin material named {name!r}")
        return path


def load_material(source) -> SellmeierModel:
    """Parse a material data file (strict: unknown keys or formulas rejected).

    ``source`` is a filesystem path, or the bare name of a builtin data file
    such as ``"bbo"``.
    """
    path = Path(source)
    if not path.exists() and path.suffix == "" and path.name == str(source):
        path = builtin_material_path(str(source))
    if not path.exists():
        raise MaterialFileError(f"material file {str(source)!r} not found")
    try:
        raw = yaml.load(path.read_text(), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise MaterialFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise MaterialFileError(f"{path}: expected a mapping at top level")
    unknown = set(raw) - _REQUIRED_KEYS
    if unknown:
        raise MaterialFileError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise MaterialFileError(f"{path}: missing keys {sorted(missing)}")
    numbers = {}
    for key in ("valid_range_um", "ordinary_coeffs", "extraordinary_coeffs"):
        values = raw[key]
        if not (isinstance(values, list) and all(map(_is_finite_number, values))):
            raise MaterialFileError(
                f"{path}: {key} must be a sequence of finite numbers, got {values!r}"
            )
        numbers[key] = tuple(float(v) for v in values)
    try:
        return SellmeierModel(
            name=str(raw["name"]),
            provenance=str(raw["provenance"]),
            formula_id=str(raw["formula_id"]),
            **numbers,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, MaterialFileError):
            raise
        raise MaterialFileError(f"{path}: {exc}") from exc


def index_ordinary(crystal: UniaxialCrystal, wavelength: float) -> float:
    """Ordinary refractive index n_o at the given vacuum wavelength (m)."""
    return crystal.sellmeier.ordinary(wavelength)


def index_extraordinary(crystal: UniaxialCrystal, wavelength: float, theta: float) -> float:
    """Effective extraordinary index for propagation at angle theta to the optic axis.

    n(theta) = [cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2]^(-1/2), which runs
    monotonically from n_o at theta = 0 to the principal n_e at theta = pi/2.
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2] rad, got {theta}")
    n_o = crystal.sellmeier.ordinary(wavelength)
    n_e = crystal.sellmeier.principal_extraordinary(wavelength)
    return 1.0 / math.sqrt(
        math.cos(theta) ** 2 / n_o**2 + math.sin(theta) ** 2 / n_e**2
    )


def walkoff_angle(crystal: UniaxialCrystal, wavelength: float, theta: float) -> float:
    """Walk-off angle rho = -(1/n) dn/dtheta of the extraordinary wave.

    Evaluated analytically from the effective-index closed form; positive for
    negative uniaxial crystals at 0 < theta < pi/2. Vanishes at theta = 0 and
    theta = pi/2 where the index is stationary.
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2] rad, got {theta}")
    n_o = crystal.sellmeier.ordinary(wavelength)
    n_e = crystal.sellmeier.principal_extraordinary(wavelength)
    n = index_extraordinary(crystal, wavelength, theta)
    return 0.5 * n**2 * math.sin(2.0 * theta) * (1.0 / n_e**2 - 1.0 / n_o**2)


def group_slowness(crystal: UniaxialCrystal, wavelength: float, polarization: str) -> float:
    """Inverse group velocity N = (n - lambda dn/dlambda) / c in s/m.

    ``polarization`` is ``"ordinary"`` or ``"extraordinary"``; the
    extraordinary wave is evaluated at the fixed crystal cut angle theta.
    The derivative is exact: each Sellmeier formula gives d(n^2)/d(lambda^2)
    beside n^2, and 1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2 gives
    dn/dlambda = n^3 (cos^2(theta) n_o'/n_o^3 + sin^2(theta) n_e'/n_e^3).
    Every wavelength of the valid range works, its edges included; a
    constant-index material returns exactly n/c.
    """
    if polarization not in ("ordinary", "extraordinary"):
        raise ValueError(
            f"polarization must be 'ordinary' or 'extraordinary', got {polarization!r}"
        )
    sellmeier = crystal.sellmeier
    n, slope = sellmeier._index_and_slope(sellmeier.ordinary_coeffs, wavelength)
    if polarization == "extraordinary":
        n_o, slope_o = n, slope
        n_e, slope_e = sellmeier._index_and_slope(sellmeier.extraordinary_coeffs, wavelength)
        n = index_extraordinary(crystal, wavelength, crystal.cut_angle)
        slope = n**2 * (
            math.cos(crystal.cut_angle) ** 2 * slope_o / n_o**2
            + math.sin(crystal.cut_angle) ** 2 * slope_e / n_e**2
        )
    return n * (1.0 - slope) / C_LIGHT
