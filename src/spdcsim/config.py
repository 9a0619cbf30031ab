"""Run configuration: YAML loading, validation and resolution to SI physics.

Config files use lab units (nm, um, mm, deg); everything is converted to SI
exactly once here. Missing optional keys fall back to the default
experimental configuration: a 407 nm pump focused to 42 um x 31 um
(vertical x horizontal) on a 4 mm type-II BBO crystal cut at 42 deg,
photon pairs at a 6 deg external half-open angle, 5 nm filters centered at
814 nm, 750 mm Fourier lenses and 2.0 mm pinholes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from . import __version__, dispersion
from .dispersion import UniaxialCrystal, _is_finite_number, load_material
from .kernel import (
    MODE_EXACT_SINC,
    MODE_GAUSSIAN_APPROX,
    SPECTRAL_GAUSSIAN,
    SPECTRAL_MONOCHROMATIC,
    PumpEnvelope,
    SpdcGeometry,
)
from .trace import FourierPlaneMap, OpticalSystem, SpectralFilter


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


@dataclass(frozen=True)
class PumpConfig:
    wavelength_nm: float = 407.0
    waist_x_um: float = 42.0
    waist_y_um: float = 31.0
    spectral_mode: str = SPECTRAL_MONOCHROMATIC
    spectral_fwhm_nm: float | None = None


@dataclass(frozen=True)
class CrystalConfig:
    material_file: str = "bbo"
    length_mm: float = 4.0
    cut_angle_deg: float = 42.0


@dataclass(frozen=True)
class GeometryConfig:
    half_open_angle_ext_deg: float | None = 6.0
    phi_e_deg: float | None = None
    phi_o_deg: float | None = None
    per_polarization_refraction: bool = False


@dataclass(frozen=True)
class FilterConfig:
    center_nm: float = 814.0
    fwhm_nm: float = 5.0


@dataclass(frozen=True)
class OpticsConfig:
    focal_mm: float = 750.0
    pinhole_mm: float = 2.0


@dataclass(frozen=True)
class ScanConfig:
    axis: str = "y"
    assignment: str = "ea"
    points: int = 64
    range_mm: tuple[float, float] | None = None  # None means auto
    orthogonal_mm: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    pump: PumpConfig = PumpConfig()
    crystal: CrystalConfig = CrystalConfig()
    geometry: GeometryConfig = GeometryConfig()
    filters: FilterConfig = FilterConfig()
    optics: OpticsConfig = OpticsConfig()
    scan: ScanConfig = ScanConfig()
    mode: str = MODE_GAUSSIAN_APPROX


_SECTIONS = {
    "pump": PumpConfig,
    "crystal": CrystalConfig,
    "geometry": GeometryConfig,
    "filters": FilterConfig,
    "optics": OpticsConfig,
    "scan": ScanConfig,
}


def _require_positive(value, name: str):
    if not (_is_finite_number(value) and value > 0):
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    return float(value)


def _build_section(name: str, cls, raw: dict):
    defaults = cls()
    known = set(defaults.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown key {min(unknown, key=str)!r} in section {name!r}")
    merged = {**asdict(defaults), **raw}
    if name == "scan" and merged["range_mm"] == "auto":
        merged["range_mm"] = None
    return cls(**merged)


def validate(config: RunConfig) -> RunConfig:
    """Check every invariant, naming the offending field on failure.

    Returns the config, with ``scan.range_mm`` as a pair of floats, so a
    range written as ints or as a list gets the digest of its float pair.
    """
    p = config.pump
    _require_positive(p.wavelength_nm, "pump.wavelength_nm")
    _require_positive(p.waist_x_um, "pump.waist_x_um")
    _require_positive(p.waist_y_um, "pump.waist_y_um")
    if p.spectral_mode not in (SPECTRAL_MONOCHROMATIC, SPECTRAL_GAUSSIAN):
        raise ConfigError(
            f"pump.spectral_mode must be 'monochromatic' or 'gaussian', "
            f"got {p.spectral_mode!r}"
        )
    if p.spectral_mode == SPECTRAL_GAUSSIAN:
        if p.spectral_fwhm_nm is None:
            raise ConfigError(
                "pump.spectral_fwhm_nm is required when spectral_mode is 'gaussian'"
            )
        _require_positive(p.spectral_fwhm_nm, "pump.spectral_fwhm_nm")

    c = config.crystal
    if not (isinstance(c.material_file, str) and c.material_file):
        raise ConfigError(
            f"crystal.material_file must be a non-empty string, got {c.material_file!r}"
        )
    _require_positive(c.length_mm, "crystal.length_mm")
    if not (_is_finite_number(c.cut_angle_deg) and 0.0 < c.cut_angle_deg < 90.0):
        raise ConfigError(
            f"crystal.cut_angle_deg must lie in (0, 90), got {c.cut_angle_deg!r}"
        )

    g = config.geometry
    if not isinstance(g.per_polarization_refraction, bool):
        raise ConfigError(
            "geometry.per_polarization_refraction must be true or false, "
            f"got {g.per_polarization_refraction!r}"
        )
    explicit = g.phi_e_deg is not None or g.phi_o_deg is not None
    if explicit and g.half_open_angle_ext_deg is not None:
        raise ConfigError(
            "geometry: give either half_open_angle_ext_deg or the explicit "
            "phi_e_deg/phi_o_deg pair, not both"
        )
    if explicit:
        if g.phi_e_deg is None or g.phi_o_deg is None:
            raise ConfigError("geometry: phi_e_deg and phi_o_deg must be given together")
        for label, value in (("phi_e_deg", g.phi_e_deg), ("phi_o_deg", g.phi_o_deg)):
            if not (_is_finite_number(value) and 0.0 <= value < 90.0):
                raise ConfigError(f"geometry.{label} must lie in [0, 90), got {value!r}")
    elif g.half_open_angle_ext_deg is None:
        raise ConfigError(
            "geometry: one of half_open_angle_ext_deg or phi_e_deg/phi_o_deg is required"
        )
    else:
        _require_positive(g.half_open_angle_ext_deg, "geometry.half_open_angle_ext_deg")

    f = config.filters
    _require_positive(f.center_nm, "filters.center_nm")
    _require_positive(f.fwhm_nm, "filters.fwhm_nm")

    o = config.optics
    _require_positive(o.focal_mm, "optics.focal_mm")
    if not (_is_finite_number(o.pinhole_mm) and o.pinhole_mm >= 0):
        raise ConfigError(f"optics.pinhole_mm must be a finite number >= 0, got {o.pinhole_mm!r}")

    s = config.scan
    if s.axis not in ("x", "y"):
        raise ConfigError(f"scan.axis must be 'x' or 'y', got {s.axis!r}")
    if s.assignment not in ("ea", "oa"):
        raise ConfigError(f"scan.assignment must be 'ea' or 'oa', got {s.assignment!r}")
    if not (isinstance(s.points, int) and s.points >= 8):
        raise ConfigError(f"scan.points must be an integer >= 8, got {s.points!r}")
    if not _is_finite_number(s.orthogonal_mm):
        raise ConfigError(f"scan.orthogonal_mm must be a finite number, got {s.orthogonal_mm!r}")
    rng = s.range_mm
    if rng is not None:
        pair = isinstance(rng, (list, tuple)) and len(rng) == 2
        if not (pair and all(map(_is_finite_number, rng)) and rng[0] < rng[1]):
            raise ConfigError(
                "scan.range_mm must be 'auto' or a [min, max] pair of finite numbers "
                f"with min < max, got {rng!r}"
            )
        config = replace(config, scan=replace(s, range_mm=(float(rng[0]), float(rng[1]))))

    if config.mode not in (MODE_GAUSSIAN_APPROX, MODE_EXACT_SINC):
        raise ConfigError(
            f"mode must be 'gaussian_approx' or 'exact_sinc', got {config.mode!r}"
        )
    return config


def load_config(path) -> RunConfig:
    """Load and validate a YAML run configuration; absent keys get defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        raw = yaml.load(path.read_text(), Loader=dispersion.YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"cannot parse {path}{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    unknown = set(raw) - (set(_SECTIONS) | {"mode"})
    if unknown:
        raise ConfigError(f"unknown top-level key {min(unknown, key=str)!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        body = raw.get(name)
        if body is None:  # an empty section means its defaults
            body = {}
        if not isinstance(body, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        sections[name] = _build_section(name, cls, body)
    # explicit emission angles displace the default half-open angle
    geom_cfg = sections["geometry"]
    if (geom_cfg.phi_e_deg is not None or geom_cfg.phi_o_deg is not None) and (
        "half_open_angle_ext_deg" not in (raw.get("geometry") or {})
    ):
        sections["geometry"] = replace(geom_cfg, half_open_angle_ext_deg=None)
    config = RunConfig(mode=raw.get("mode", MODE_GAUSSIAN_APPROX), **sections)
    return validate(config)


def default_config() -> RunConfig:
    return validate(RunConfig())


def _internal_angles(config: RunConfig, crystal: UniaxialCrystal, lam_down: float):
    """Internal emission angles, from refraction of the external half-open angle.

    Snell at the output face, sin(theta_ext) = n sin(phi), with the ordinary
    index at the down-converted wavelength for both arms by default; the
    per-polarization flag refracts the extraordinary arm with its own
    effective index at the cut angle instead.
    """
    g = config.geometry
    if g.phi_e_deg is not None:
        return math.radians(g.phi_e_deg), math.radians(g.phi_o_deg)
    sin_ext = math.sin(math.radians(g.half_open_angle_ext_deg))
    n_o = dispersion.index_ordinary(crystal, lam_down)
    if g.per_polarization_refraction:
        n_e = dispersion.index_extraordinary(crystal, lam_down, crystal.cut_angle)
        return math.asin(sin_ext / n_e), math.asin(sin_ext / n_o)
    phi = math.asin(sin_ext / n_o)
    return phi, phi


@dataclass(frozen=True)
class ResolvedRun:
    """SI-resolved physics plus the scan defaults and reproducibility digest."""

    config: RunConfig
    system: OpticalSystem
    pinhole_diameter: float  # m
    scan_range: tuple[float, float] | None  # m, None means auto
    digest: str


def load_crystal(config: RunConfig, base_dir: Path | None = None) -> UniaxialCrystal:
    """The config's crystal: its material file at ``cut_angle_deg``.

    A ``material_file`` with a suffix that names an existing file relative
    to ``base_dir`` (the config file's directory) is read from there;
    otherwise it is a path or the bare name of a builtin material.
    """
    material = config.crystal.material_file
    path = Path(material)
    if base_dir is not None and not path.is_absolute() and path.suffix:
        candidate = base_dir / path
        if candidate.exists():
            material = candidate
    return UniaxialCrystal(
        sellmeier=load_material(material),
        cut_angle=math.radians(config.crystal.cut_angle_deg),
    )


def resolve(config: RunConfig, *, base_dir: Path | None = None) -> ResolvedRun:
    """Convert a validated config into an OpticalSystem ready for scanning."""
    crystal = load_crystal(config, base_dir)
    lam_pump = config.pump.wavelength_nm * 1e-9
    lam_down = config.filters.center_nm * 1e-9
    phi_e, phi_o = _internal_angles(config, crystal, lam_down)
    geometry = SpdcGeometry(
        emission_angle_e=phi_e,
        emission_angle_o=phi_o,
        walkoff_pump=dispersion.walkoff_angle(crystal, lam_pump, crystal.cut_angle),
        walkoff_e=dispersion.walkoff_angle(crystal, lam_down, crystal.cut_angle),
        group_slowness_pump=dispersion.group_slowness(crystal, lam_pump, "extraordinary"),
        group_slowness_e=dispersion.group_slowness(crystal, lam_down, "extraordinary"),
        group_slowness_o=dispersion.group_slowness(crystal, lam_down, "ordinary"),
        crystal_length=config.crystal.length_mm * 1e-3,
    )
    sigma_p = None
    if config.pump.spectral_mode == SPECTRAL_GAUSSIAN:
        # same nm-FWHM to amplitude-sigma conversion as the detection filters
        sigma_p = SpectralFilter.from_fwhm_nm(
            config.pump.wavelength_nm, config.pump.spectral_fwhm_nm
        ).sigma
    pump = PumpEnvelope(
        waist_x=config.pump.waist_x_um * 1e-6,
        waist_y=config.pump.waist_y_um * 1e-6,
        spectral_mode=config.pump.spectral_mode,
        spectral_sigma=sigma_p,
    )
    narrow_filter = SpectralFilter.from_fwhm_nm(
        config.filters.center_nm, config.filters.fwhm_nm
    )
    fourier = FourierPlaneMap(
        focal_length=config.optics.focal_mm * 1e-3,
        wavelength_e=lam_down,
        wavelength_o=lam_down,
    )
    system = OpticalSystem(
        geometry=geometry,
        pump=pump,
        filter_e=narrow_filter,
        filter_o=narrow_filter,
        fourier=fourier,
        mode=config.mode,
    )
    # the digest covers the material data and the version, not only the config
    payload = json.dumps(
        {"config": asdict(config), "material": asdict(crystal.sellmeier), "version": __version__},
        sort_keys=True,
        default=str,
    )
    scan_range = None
    if config.scan.range_mm is not None:
        scan_range = (config.scan.range_mm[0] * 1e-3, config.scan.range_mm[1] * 1e-3)
    return ResolvedRun(
        config=config,
        system=system,
        pinhole_diameter=config.optics.pinhole_mm * 1e-3,
        scan_range=scan_range,
        digest=hashlib.sha256(payload.encode()).hexdigest()[:16],
    )

