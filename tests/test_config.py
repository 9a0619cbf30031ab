import math
from pathlib import Path

import pytest
import yaml

from spdcsim import dispersion
from spdcsim.config import (
    ConfigError,
    RunConfig,
    ScanConfig,
    default_config,
    load_config,
    resolve,
    validate,
)

BBO_O = (2.7359, 0.01878, 0.01822, 0.01354)
BBO_E = (2.3753, 0.01224, 0.01667, 0.01516)


def hand_index(coeffs, lam_um):
    a, b, c, d = coeffs
    return math.sqrt(a + b / (lam_um**2 - c) - d * lam_um**2)


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_empty_config_fills_experiment_defaults(tmp_path):
    config = load_config(write(tmp_path, "{}"))
    assert config.pump.wavelength_nm == 407.0
    assert config.pump.waist_x_um == 42.0
    assert config.pump.waist_y_um == 31.0
    assert config.pump.spectral_mode == "monochromatic"
    assert config.crystal.length_mm == 4.0
    assert config.geometry.half_open_angle_ext_deg == 6.0
    assert config.filters.center_nm == 814.0
    assert config.filters.fwhm_nm == 5.0
    assert config.optics.focal_mm == 750.0
    assert config.optics.pinhole_mm == 2.0
    assert config.mode == "gaussian_approx"
    assert config == default_config()


def test_negative_length_names_field(tmp_path):
    path = write(tmp_path, "crystal:\n  length_mm: -4\n")
    with pytest.raises(ConfigError, match="crystal.length_mm"):
        load_config(path)


def test_both_angle_conventions_rejected(tmp_path):
    path = write(
        tmp_path,
        "geometry:\n  half_open_angle_ext_deg: 6\n  phi_e_deg: 3.6\n  phi_o_deg: 3.6\n",
    )
    with pytest.raises(ConfigError, match="not both"):
        load_config(path)


def test_explicit_angles_accepted_alone(tmp_path):
    path = write(tmp_path, "geometry:\n  phi_e_deg: 3.5\n  phi_o_deg: 3.7\n")
    config = load_config(path)
    assert config.geometry.half_open_angle_ext_deg is None
    run = resolve(config)
    assert run.system.geometry.emission_angle_e == pytest.approx(math.radians(3.5))
    assert run.system.geometry.emission_angle_o == pytest.approx(math.radians(3.7))


def test_partial_explicit_angles_rejected(tmp_path):
    path = write(tmp_path, "geometry:\n  phi_e_deg: 3.5\n")
    with pytest.raises(ConfigError, match="together"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "pump:\n  wavelength_nm: 407\n  chirp_fs: 100\n")
    with pytest.raises(ConfigError, match="chirp_fs"):
        load_config(path)
    path = write(tmp_path, "laser:\n  power_mw: 30\n")
    with pytest.raises(ConfigError, match="laser"):
        load_config(path)


@pytest.mark.parametrize("text", ["pump: []\n", "pump: 0\n", "optics: false\n", "scan: y\n"])
def test_a_section_that_is_not_a_mapping_is_rejected(tmp_path, text):
    name = text.split(":")[0]
    with pytest.raises(ConfigError, match=f"section '{name}' must be a mapping"):
        load_config(write(tmp_path, text))


def test_a_null_section_means_its_defaults(tmp_path):
    config = load_config(write(tmp_path, "pump:\noptics:\n"))
    assert config == default_config()
    assert resolve(config).digest == resolve(default_config()).digest


def test_unknown_section_keys_of_mixed_types_name_a_key(tmp_path):
    path = write(tmp_path, "pump: {1: 2, foo: 3}\n")
    with pytest.raises(ConfigError, match="unknown key 1 in section 'pump'"):
        load_config(path)


def test_unknown_top_level_keys_of_mixed_types_name_a_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level key 1"):
        load_config(write(tmp_path, "{1: 2, foo: 3}\n"))


def test_parse_error_reports_line(tmp_path):
    path = write(tmp_path, "pump:\n  wavelength_nm: [407\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_gaussian_spectral_mode_requires_width(tmp_path):
    path = write(tmp_path, "pump:\n  spectral_mode: gaussian\n")
    with pytest.raises(ConfigError, match="spectral_fwhm_nm"):
        load_config(path)
    path = write(
        tmp_path, "pump:\n  spectral_mode: gaussian\n  spectral_fwhm_nm: 0.5\n"
    )
    run = resolve(load_config(path))
    assert run.system.pump.spectral_sigma > 0.0


def test_scan_range_forms(tmp_path):
    config = load_config(write(tmp_path, "scan:\n  range_mm: auto\n"))
    assert config.scan.range_mm is None
    config = load_config(write(tmp_path, "scan:\n  range_mm: [-5, 5]\n"))
    assert config.scan.range_mm == (-5.0, 5.0)
    assert resolve(config).scan_range == (-5e-3, 5e-3)
    with pytest.raises(ConfigError, match="range_mm"):
        load_config(write(tmp_path, "scan:\n  range_mm: [5, -5]\n"))
    with pytest.raises(ConfigError, match="range_mm"):
        load_config(write(tmp_path, "scan:\n  range_mm: wide\n"))
    with pytest.raises(ConfigError, match="range_mm"):
        load_config(write(tmp_path, "scan:\n  range_mm: [-5, 0, 5]\n"))


@pytest.mark.parametrize(
    "field, text",
    [
        ("crystal.length_mm", "crystal: {length_mm: true}"),
        ("crystal.cut_angle_deg", "crystal: {cut_angle_deg: true}"),
        ("geometry.phi_e_deg", "geometry: {phi_e_deg: true, phi_o_deg: 3.0}"),
        ("optics.pinhole_mm", "optics: {pinhole_mm: .nan}"),
        ("optics.pinhole_mm", "optics: {pinhole_mm: true}"),
        ("optics.pinhole_mm", "optics: {pinhole_mm: .inf}"),
        pytest.param(
            "optics.pinhole_mm",
            "optics: {pinhole_mm: %s}" % ("1" * 400),
            id="optics.pinhole_mm-400-digit-int",
        ),
        ("scan.orthogonal_mm", "scan: {orthogonal_mm: abc}"),
        ("scan.orthogonal_mm", "scan: {orthogonal_mm: .nan}"),
        ("scan.range_mm", "scan: {range_mm: [a, 6]}"),
        ("scan.range_mm", "scan: {range_mm: [-.inf, 6]}"),
    ],
)
def test_non_numeric_and_non_finite_values_name_their_field(tmp_path, field, text):
    # YAML booleans are ints to Python and NaN fails every comparison, so a
    # bare sign or range check lets either through
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(write(tmp_path, text))


def test_validate_rejects_non_finite_range_built_in_python():
    config = RunConfig(scan=ScanConfig(range_mm=(-math.inf, 6.0)))
    with pytest.raises(ConfigError, match=r"scan\.range_mm"):
        validate(config)


@pytest.mark.parametrize("rng", [[1.0], (1.0, 2.0, 3.0)], ids=["one", "three"])
def test_validate_rejects_range_built_in_python_without_two_values(rng):
    with pytest.raises(ConfigError, match=r"scan\.range_mm"):
        validate(RunConfig(scan=ScanConfig(range_mm=rng)))


def test_validate_returns_a_range_built_in_python_as_floats():
    config = validate(RunConfig(scan=ScanConfig(range_mm=[1, 2])))
    assert config.scan.range_mm == (1.0, 2.0)
    assert all(type(v) is float for v in config.scan.range_mm)
    from_floats = validate(RunConfig(scan=ScanConfig(range_mm=(1.0, 2.0))))
    assert resolve(config).digest == resolve(from_floats).digest


@pytest.mark.parametrize("label", ["zz", "EA", "Oa"])
def test_scan_assignment_is_checked_like_the_axis(tmp_path, label):
    # the CLI reads the field as a lowercase label; other spellings would
    # pass under a different config digest
    with pytest.raises(ConfigError, match=rf"scan\.assignment must be 'ea' or 'oa', got '{label}'"):
        load_config(write(tmp_path, f"scan: {{assignment: {label}}}\n"))


def test_scan_points_floor(tmp_path):
    with pytest.raises(ConfigError, match="points"):
        load_config(write(tmp_path, "scan:\n  points: 4\n"))


def test_external_angle_refraction_oracle():
    run = resolve(default_config())
    n_o = hand_index(BBO_O, 0.814)
    expected = math.asin(math.sin(math.radians(6.0)) / n_o)
    assert run.system.geometry.emission_angle_e == pytest.approx(expected, rel=1e-12)
    assert run.system.geometry.emission_angle_o == pytest.approx(expected, rel=1e-12)


def test_per_polarization_refraction_splits_angles(tmp_path):
    path = write(tmp_path, "geometry:\n  per_polarization_refraction: true\n")
    run = resolve(load_config(path))
    n_o = hand_index(BBO_O, 0.814)
    n_e_principal = hand_index(BBO_E, 0.814)
    theta = math.radians(42.0)
    n_e_eff = 1.0 / math.sqrt(
        math.cos(theta) ** 2 / n_o**2 + math.sin(theta) ** 2 / n_e_principal**2
    )
    sin_ext = math.sin(math.radians(6.0))
    assert run.system.geometry.emission_angle_o == pytest.approx(
        math.asin(sin_ext / n_o), rel=1e-12
    )
    assert run.system.geometry.emission_angle_e == pytest.approx(
        math.asin(sin_ext / n_e_eff), rel=1e-12
    )
    assert run.system.geometry.emission_angle_e > run.system.geometry.emission_angle_o


@pytest.mark.parametrize("value", ['"false"', "0.5", "1", "null"])
def test_per_polarization_refraction_must_be_a_bool(tmp_path, value):
    # a quoted "false" or a number is truthy and would switch the refraction on
    path = write(tmp_path, f"geometry:\n  per_polarization_refraction: {value}\n")
    with pytest.raises(ConfigError, match=r"geometry\.per_polarization_refraction"):
        load_config(path)


@pytest.mark.parametrize("value", ["5", "null", '""', "[bbo]"])
def test_material_file_must_be_a_non_empty_string(tmp_path, value):
    path = write(tmp_path, f"crystal:\n  material_file: {value}\n")
    with pytest.raises(ConfigError, match=r"crystal\.material_file"):
        load_config(path)


def test_digest_deterministic_and_sensitive(tmp_path):
    first = resolve(default_config()).digest
    second = resolve(default_config()).digest
    assert first == second
    tweaked = load_config(write(tmp_path, "pump:\n  waist_y_um: 32\n"))
    assert resolve(tweaked).digest != first


CUSTOM_MATERIAL = (
    "name: custom\nprovenance: test fixture\nformula_id: sqrt-abcd\n"
    "valid_range_um: [0.3, 1.05]\n"
    "ordinary_coeffs: [2.7359, 0.01878, 0.01822, 0.01354]\n"
    "extraordinary_coeffs: [2.3753, 0.01224, 0.01667, 0.01516]\n"
)


def test_material_file_relative_to_config(tmp_path):
    (tmp_path / "mat.yaml").write_text(CUSTOM_MATERIAL)
    path = write(tmp_path, "crystal:\n  material_file: mat.yaml\n")
    run = resolve(load_config(path), base_dir=path.parent)
    assert run.system.geometry.crystal_length == 4e-3


def test_digest_follows_material_file_contents(tmp_path):
    material = tmp_path / "mat.yaml"
    material.write_text(CUSTOM_MATERIAL)
    path = write(tmp_path, "crystal:\n  material_file: mat.yaml\n")
    config = load_config(path)
    first = resolve(config, base_dir=path.parent).digest
    material.write_text(CUSTOM_MATERIAL.replace("2.7359", "2.7360"))
    assert resolve(config, base_dir=path.parent).digest != first


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


REPO = Path(__file__).resolve().parents[1]
YAML_FILES = sorted((REPO / "tests").rglob("*.yaml")) + sorted(
    (REPO / "src" / "spdcsim" / "data").glob("*.yaml")
)


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda p: p.name)
def test_yaml_loader_builds_the_python_loaders_values(path):
    text = path.read_text()
    # repr tells 1 from 1.0 and keeps key order
    assert repr(yaml.load(text, Loader=dispersion.YAML_LOADER)) == repr(
        yaml.load(text, Loader=yaml.SafeLoader)
    )


def test_yaml_loader_is_libyaml_where_built_and_keeps_every_digest(monkeypatch):
    if yaml.__with_libyaml__:
        assert dispersion.YAML_LOADER is yaml.CSafeLoader
    configs = [p for p in YAML_FILES if p.parent.name == "golden"]
    assert configs

    def digests():
        runs = [resolve(load_config(p), base_dir=p.parent) for p in configs]
        return [run.digest for run in runs] + [resolve(default_config()).digest]

    fast = digests()
    monkeypatch.setattr(dispersion, "YAML_LOADER", yaml.SafeLoader)
    assert digests() == fast
