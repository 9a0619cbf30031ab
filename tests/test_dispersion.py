import math
import re

import numpy as np
import pytest
import yaml

from spdcsim.dispersion import (
    C_LIGHT,
    MaterialFileError,
    SellmeierModel,
    UniaxialCrystal,
    WavelengthRangeError,
    builtin_material_path,
    group_slowness,
    index_extraordinary,
    index_ordinary,
    load_material,
    walkoff_angle,
)

# coefficient sets mirrored from the shipped data file, re-evaluated by hand here
BBO_O = (2.7359, 0.01878, 0.01822, 0.01354)
BBO_E = (2.3753, 0.01224, 0.01667, 0.01516)


def hand_index(coeffs, lam_um):
    a, b, c, d = coeffs
    return math.sqrt(a + b / (lam_um**2 - c) - d * lam_um**2)


@pytest.fixture(scope="module")
def bbo():
    return UniaxialCrystal(sellmeier=load_material("bbo"), cut_angle=math.radians(42.0))


def test_ordinary_index_midrange_is_physical(bbo):
    lo, hi = bbo.sellmeier.valid_range_um
    n = index_ordinary(bbo, 0.5 * (lo + hi) * 1e-6)
    assert math.isfinite(n)
    assert n > 1.0


def test_ordinary_index_matches_hand_evaluation(bbo):
    n = index_ordinary(bbo, 814e-9)
    assert n == pytest.approx(hand_index(BBO_O, 0.814), rel=1e-12)


def test_out_of_range_wavelength_names_interval(bbo):
    with pytest.raises(WavelengthRangeError, match=r"\[0.22, 1.06\]"):
        index_ordinary(bbo, 0.15e-6)
    with pytest.raises(WavelengthRangeError):
        index_ordinary(bbo, 2.0e-6)


def test_extraordinary_at_zero_equals_ordinary(bbo):
    for lam in (0.3e-6, 0.407e-6, 0.814e-6, 1.0e-6):
        assert index_extraordinary(bbo, lam, 0.0) == pytest.approx(
            index_ordinary(bbo, lam), rel=1e-15
        )


def test_extraordinary_at_right_angle_equals_principal(bbo):
    lam = 814e-9
    assert index_extraordinary(bbo, lam, math.pi / 2) == pytest.approx(
        bbo.sellmeier.principal_extraordinary(lam), rel=1e-15
    )


def test_extraordinary_quarter_pi_matches_hand_evaluation(bbo):
    lam_um = 0.814
    n_o = hand_index(BBO_O, lam_um)
    n_e = hand_index(BBO_E, lam_um)
    expected = 1.0 / math.sqrt(0.5 / n_o**2 + 0.5 / n_e**2)
    assert index_extraordinary(bbo, 814e-9, math.pi / 4) == pytest.approx(
        expected, rel=1e-12
    )


def test_extraordinary_monotone_for_negative_uniaxial(bbo):
    thetas = np.linspace(0.0, math.pi / 2, 91)
    values = [index_extraordinary(bbo, 814e-9, t) for t in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_out_of_range_rejected(bbo):
    with pytest.raises(ValueError):
        index_extraordinary(bbo, 814e-9, -0.1)
    with pytest.raises(ValueError):
        walkoff_angle(bbo, 814e-9, math.pi / 2 + 0.1)


def test_walkoff_vanishes_on_symmetry_axes(bbo):
    assert walkoff_angle(bbo, 407e-9, 0.0) == 0.0
    assert walkoff_angle(bbo, 407e-9, math.pi / 2) == pytest.approx(0.0, abs=1e-16)


def test_walkoff_matches_finite_difference_oracle(bbo):
    step = 1e-6  # rad
    for lam in (407e-9, 814e-9):
        for theta_deg in range(5, 90, 5):
            theta = math.radians(theta_deg)
            n = index_extraordinary(bbo, lam, theta)
            fd = -(
                index_extraordinary(bbo, lam, theta + step)
                - index_extraordinary(bbo, lam, theta - step)
            ) / (2.0 * step) / n
            assert walkoff_angle(bbo, lam, theta) == pytest.approx(fd, abs=1e-8)


def test_walkoff_positive_at_cut_angle(bbo):
    # negative uniaxial material: index falls with theta, walk-off is positive
    assert walkoff_angle(bbo, 407e-9, bbo.cut_angle) > 0.05


def _constant_index_material(n0):
    return SellmeierModel(
        name="mock-constant",
        provenance="unit test",
        formula_id="sqrt-abcd",
        valid_range_um=(0.2, 2.0),
        ordinary_coeffs=(n0**2, 0.0, 0.01, 0.0),
        extraordinary_coeffs=(n0**2, 0.0, 0.01, 0.0),
    )


def test_group_slowness_dispersionless_is_exact():
    crystal = UniaxialCrystal(sellmeier=_constant_index_material(1.5), cut_angle=0.7)
    # constant index: d(n^2)/d(lambda^2) is exactly 0, so N = n0/c
    assert group_slowness(crystal, 814e-9, "ordinary") == 1.5 / C_LIGHT
    assert group_slowness(crystal, 814e-9, "extraordinary") == 1.5 / C_LIGHT


def test_group_slowness_matches_product_rule_oracle(bbo):
    lam = 814e-9
    omega = 2.0 * math.pi * C_LIGHT / lam
    d_omega = 1e-7 * omega
    for pol in ("ordinary", "extraordinary"):
        if pol == "ordinary":
            index = lambda w: index_ordinary(bbo, 2.0 * math.pi * C_LIGHT / w)
        else:
            index = lambda w: index_extraordinary(
                bbo, 2.0 * math.pi * C_LIGHT / w, bbo.cut_angle
            )
        oracle = (
            index(omega + d_omega) * (omega + d_omega)
            - index(omega - d_omega) * (omega - d_omega)
        ) / (2.0 * d_omega) / C_LIGHT
        assert group_slowness(bbo, lam, pol) == pytest.approx(oracle, rel=1e-6)


def test_group_slowness_exceeds_phase_slowness_for_normal_dispersion(bbo):
    # dn/domega > 0 in the normal-dispersion region, so N > n/c
    omega = 2.0 * math.pi * C_LIGHT / 814e-9
    d_omega = 1e-6 * omega
    rising = index_ordinary(bbo, 2.0 * math.pi * C_LIGHT / (omega + d_omega)) > index_ordinary(
        bbo, 2.0 * math.pi * C_LIGHT / (omega - d_omega)
    )
    assert rising
    assert group_slowness(bbo, 814e-9, "ordinary") > index_ordinary(bbo, 814e-9) / C_LIGHT


@pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
@pytest.mark.parametrize("end", [0, 1], ids=["short", "long"])
def test_group_slowness_is_finite_at_the_range_edge(bbo, end, polarization):
    edge_um = bbo.sellmeier.valid_range_um[end]
    lam = edge_um / 1e6
    assert lam * 1e6 == edge_um  # the range check sees the edge itself
    value = group_slowness(bbo, lam, polarization)
    assert math.isfinite(value)
    assert value > 1.0 / C_LIGHT


@pytest.mark.parametrize("lam", [0.22 * 1e-6, 1.06 * 1e-6], ids=["short", "long"])
def test_range_edge_passes_however_it_was_rounded(bbo, lam):
    # 0.22 * 1e-6 m maps back to 0.21999999999999997 um, an ulp below the edge
    assert math.isfinite(index_ordinary(bbo, lam))
    assert math.isfinite(index_extraordinary(bbo, lam, bbo.cut_angle))


@pytest.mark.parametrize("lam", [0.2199e-6, 0.21999e-6], ids=["0.2199um", "0.21999um"])
def test_just_outside_the_range_raises_with_the_exact_wavelength(bbo, lam):
    # four decimals would print 0.21999 um as 0.2200, inside the range
    with pytest.raises(WavelengthRangeError, match=re.escape(f"wavelength {lam * 1e6!r} um")):
        index_ordinary(bbo, lam)


@pytest.mark.parametrize("lam", [0.2e-6, 1.1e-6])
@pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
def test_group_slowness_outside_the_range_raises(bbo, lam, polarization):
    with pytest.raises(WavelengthRangeError, match="outside valid range"):
        group_slowness(bbo, lam, polarization)


def _richardson_slowness(crystal, lam, polarization, rel_step=1e-3):
    """d(n omega)/d omega / c from two central differences, steps h and h/2."""
    omega = 2.0 * math.pi * C_LIGHT / lam

    def n_omega(w):
        lam_w = 2.0 * math.pi * C_LIGHT / w
        if polarization == "ordinary":
            return index_ordinary(crystal, lam_w) * w
        return index_extraordinary(crystal, lam_w, crystal.cut_angle) * w

    def central(h):
        return (n_omega(omega + h) - n_omega(omega - h)) / (2.0 * h)

    h = rel_step * omega
    return (4.0 * central(h / 2.0) - central(h)) / 3.0 / C_LIGHT


@pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
def test_group_slowness_matches_richardson_difference(bbo, polarization):
    # the extrapolated difference leaves O(h^4) and rounding: measured at most
    # 4.7e-13 relative on 0.25-1.04 um, where the old 1e-6 central difference
    # was off by up to 5.5e-11
    for lam in np.linspace(0.25e-6, 1.04e-6, 17):
        value = group_slowness(bbo, lam, polarization)
        oracle = _richardson_slowness(bbo, lam, polarization)
        assert abs(value - oracle) <= 2e-12 * oracle


def test_group_slowness_unknown_polarization(bbo):
    with pytest.raises(ValueError, match="polarization"):
        group_slowness(bbo, 814e-9, "diagonal")


def test_index_curves_smooth_across_range(bbo):
    lo, hi = bbo.sellmeier.valid_range_um
    grid = np.linspace(lo * 1.01, hi * 0.99, 200)
    step = (hi - lo) * 1e-5
    for lam_um in grid:
        fd = (
            bbo.sellmeier.ordinary((lam_um + step) * 1e-6)
            - bbo.sellmeier.ordinary((lam_um - step) * 1e-6)
        ) / (2 * step)
        assert math.isfinite(fd)


def test_cut_angle_bounds():
    model = load_material("bbo")
    with pytest.raises(ValueError):
        UniaxialCrystal(sellmeier=model, cut_angle=0.0)
    with pytest.raises(ValueError):
        UniaxialCrystal(sellmeier=model, cut_angle=math.pi / 2)


def test_builtin_material_carries_provenance():
    model = load_material("bbo")
    assert model.name == "beta-BBO"
    assert "Sellmeier" in model.provenance
    assert model.formula_id == "sqrt-abcd"


def test_material_file_unknown_formula(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "name: bad\nprovenance: test\nformula_id: cauchy-5\n"
        "valid_range_um: [0.3, 1.0]\nordinary_coeffs: [2.3, 0, 0.01, 0]\n"
        "extraordinary_coeffs: [2.2, 0, 0.01, 0]\n"
    )
    with pytest.raises(MaterialFileError, match="formula_id"):
        load_material(path)


def test_material_file_unknown_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "name: bad\nprovenance: test\nformula_id: sqrt-abcd\n"
        "valid_range_um: [0.3, 1.0]\nordinary_coeffs: [2.3, 0, 0.01, 0]\n"
        "extraordinary_coeffs: [2.2, 0, 0.01, 0]\ntemperature_C: 20\n"
    )
    with pytest.raises(MaterialFileError, match="unknown keys"):
        load_material(path)


def test_material_file_unknown_keys_of_mixed_types_name_them(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "name: bad\nprovenance: test\nformula_id: sqrt-abcd\n"
        "valid_range_um: [0.3, 1.0]\nordinary_coeffs: [2.3, 0, 0.01, 0]\n"
        "extraordinary_coeffs: [2.2, 0, 0.01, 0]\ntemperature_C: 20\n1: 2\n"
    )
    with pytest.raises(MaterialFileError, match=r"unknown keys \[1, 'temperature_C'\]"):
        load_material(path)


def test_material_file_missing_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: bad\nprovenance: test\nformula_id: sqrt-abcd\n")
    with pytest.raises(MaterialFileError, match="missing keys"):
        load_material(path)


def test_material_file_wrong_coefficient_count(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "name: bad\nprovenance: test\nformula_id: sqrt-abcd\n"
        "valid_range_um: [0.3, 1.0]\nordinary_coeffs: [2.3, 0, 0.01]\n"
        "extraordinary_coeffs: [2.2, 0, 0.01, 0]\n"
    )
    with pytest.raises(MaterialFileError, match="coefficients"):
        load_material(path)


def _bbo_copy(tmp_path, key, value):
    """A copy of the shipped BBO data file with ``key`` set to ``value``."""
    raw = yaml.safe_load(builtin_material_path("bbo").read_text())
    raw[key] = value
    path = tmp_path / "bbo.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.mark.parametrize(
    "key, value",
    [
        ("valid_range_um", "12"),
        ("ordinary_coeffs", "2746"),
        ("valid_range_um", [True, 3]),
        ("extraordinary_coeffs", [BBO_E[0], math.inf, *BBO_E[2:]]),
        ("valid_range_um", [0.2, int("1" * 400)]),
    ],
    ids=["range-string", "coeffs-string", "range-bool", "coeff-inf", "range-huge-int"],
)
def test_material_numbers_must_be_sequences_of_finite_numbers(tmp_path, key, value):
    with pytest.raises(MaterialFileError, match=key):
        load_material(_bbo_copy(tmp_path, key, value))


def test_material_numbers_accept_ints(tmp_path):
    model = load_material(_bbo_copy(tmp_path, "valid_range_um", [1, 2]))
    assert model.valid_range_um == (1.0, 2.0)
    assert model.ordinary_coeffs == BBO_O


def test_missing_material_file(tmp_path):
    with pytest.raises(MaterialFileError, match="not found|no builtin"):
        load_material("unobtainium")
    # a name with a suffix is a path, never a builtin
    with pytest.raises(MaterialFileError, match="material file .*absent.yaml' not found"):
        load_material(tmp_path / "absent.yaml")


@pytest.mark.parametrize(
    "text, message",
    [
        ("name: [bbo\n", "cannot parse"),
        ("- 2.7359\n- 2.3753\n", "expected a mapping at top level"),
    ],
    ids=["unparsable", "top-level-list"],
)
def test_material_file_that_does_not_parse_to_a_mapping_is_rejected(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(MaterialFileError, match=message):
        load_material(path)


def test_material_range_with_min_above_max_is_rejected(tmp_path):
    with pytest.raises(MaterialFileError, match="invalid valid_range_um"):
        load_material(_bbo_copy(tmp_path, "valid_range_um", [1.0, 0.5]))


@pytest.mark.parametrize("n0", [1.0, 0.5])
def test_index_with_n_squared_at_most_one_is_rejected_on_evaluation(n0):
    model = _constant_index_material(n0)
    with pytest.raises(MaterialFileError, match=r"non-physical n\^2"):
        model.ordinary(814e-9)
