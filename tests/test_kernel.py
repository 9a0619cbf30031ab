import math

import numpy as np
import pytest

from spdcsim.dispersion import C_LIGHT
from spdcsim.kernel import (
    MODE_EXACT_SINC,
    MODE_GAUSSIAN_APPROX,
    SINC_GAUSSIAN_GAMMA,
    ParaxialWarning,
    PumpEnvelope,
    SpdcGeometry,
    TransverseWavevector,
    mismatch_longitudinal,
    mismatch_transverse_x,
    mismatch_transverse_y,
    mode_function,
    pump_envelope,
)


def make_geometry(**overrides):
    base = dict(
        emission_angle_e=0.063,
        emission_angle_o=0.063,
        walkoff_pump=0.0766,
        walkoff_e=0.0725,
        group_slowness_pump=1.705 / C_LIGHT,
        group_slowness_e=1.626 / C_LIGHT,
        group_slowness_o=1.684 / C_LIGHT,
        crystal_length=4e-3,
    )
    base.update(overrides)
    return SpdcGeometry(**base)


PUMP = PumpEnvelope(waist_x=42e-6, waist_y=31e-6)


def qvec(qx=0.0, qy=0.0):
    return TransverseWavevector(qx=qx, qy=qy)


def test_mismatch_x_zero_inputs():
    assert mismatch_transverse_x(qvec(), qvec()) == 0.0


def test_mismatch_x_antisymmetric_cancellation():
    assert mismatch_transverse_x(qvec(qx=2.5e4), qvec(qx=-2.5e4)) == 0.0


def test_mismatch_x_direct_sum():
    assert mismatch_transverse_x(qvec(qx=1000.0), qvec(qx=500.0)) == 1500.0


def test_mismatch_y_zero_inputs():
    assert mismatch_transverse_y(qvec(), 0.0, qvec(), 0.0, make_geometry()) == 0.0


def test_mismatch_y_reduces_to_cosine_sum():
    geom = make_geometry(walkoff_e=0.0)
    qe, qo = 1.3e4, -0.4e4
    expected = (qe + qo) * math.cos(geom.emission_angle_e)
    value = mismatch_transverse_y(qvec(qy=qe), 0.0, qvec(qy=qo), 0.0, geom)
    assert value == pytest.approx(expected, rel=1e-15)


def test_mismatch_y_term_by_term_oracle():
    geom = make_geometry(emission_angle_o=0.052)
    rng = np.random.default_rng(11)
    for _ in range(50):
        qex, qey, qox, qoy = rng.uniform(-8e4, 8e4, 4)
        oe, oo = rng.uniform(-2e13, 2e13, 2)
        expected = (
            qey * math.cos(geom.emission_angle_e)
            + qoy * math.cos(geom.emission_angle_o)
            - geom.group_slowness_e * oe * math.sin(geom.emission_angle_e)
            + geom.group_slowness_o * oo * math.sin(geom.emission_angle_o)
            - geom.walkoff_e * qex * math.sin(geom.emission_angle_e)
        )
        value = mismatch_transverse_y(
            qvec(qx=qex, qy=qey), oe, qvec(qx=qox, qy=qoy), oo, geom
        )
        assert value == pytest.approx(expected, rel=1e-12)


def test_mismatch_longitudinal_zero_inputs():
    assert mismatch_longitudinal(qvec(), 0.0, qvec(), 0.0, make_geometry()) == 0.0


def test_mismatch_longitudinal_reduces_to_sine_difference():
    geom = make_geometry(walkoff_pump=0.0, walkoff_e=0.0)
    qe, qo = 2.2e4, 0.7e4
    expected = (qo - qe) * math.sin(geom.emission_angle_e)
    value = mismatch_longitudinal(qvec(qy=qe), 0.0, qvec(qy=qo), 0.0, geom)
    assert value == pytest.approx(expected, rel=1e-14)


def test_mismatch_longitudinal_term_by_term_oracle():
    geom = make_geometry(emission_angle_o=0.058)
    rng = np.random.default_rng(12)
    for _ in range(50):
        qex, qey, qox, qoy = rng.uniform(-8e4, 8e4, 4)
        oe, oo = rng.uniform(-2e13, 2e13, 2)
        expected = (
            geom.group_slowness_pump * (oe + oo)
            - geom.group_slowness_e * oe * math.cos(geom.emission_angle_e)
            - geom.group_slowness_o * oo * math.cos(geom.emission_angle_o)
            - qey * math.sin(geom.emission_angle_e)
            + qoy * math.sin(geom.emission_angle_o)
            + geom.walkoff_pump * (qex + qox)
            - geom.walkoff_e * qex * math.cos(geom.emission_angle_e)
        )
        value = mismatch_longitudinal(
            qvec(qx=qex, qy=qey), oe, qvec(qx=qox, qy=qoy), oo, geom
        )
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("func", [mismatch_transverse_y, mismatch_longitudinal])
def test_mismatch_functions_are_linear(func):
    geom = make_geometry(emission_angle_o=0.049)
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = rng.uniform(-5e4, 5e4, 4)
        v = rng.uniform(-5e4, 5e4, 4)
        ou = rng.uniform(-1e13, 1e13, 2)
        ov = rng.uniform(-1e13, 1e13, 2)
        scale = rng.uniform(-3.0, 3.0)

        def f(q, o):
            return func(qvec(qx=q[0], qy=q[1]), o[0], qvec(qx=q[2], qy=q[3]), o[1], geom)

        assert f(scale * u, scale * ou) == pytest.approx(scale * f(u, ou), rel=1e-12)
        assert f(u + v, ou + ov) == pytest.approx(f(u, ou) + f(v, ov), rel=1e-12)


def test_pump_envelope_peak_is_one():
    assert pump_envelope(0.0, 0.0, PUMP) == 1.0


def test_pump_envelope_isotropic_analytic_point():
    w = 35e-6
    pump = PumpEnvelope(waist_x=w, waist_y=w)
    # along mismatch_x alone: value e^-1 when d^2 = 4/w^2
    d = 2.0 / w
    assert pump_envelope(d, 0.0, pump) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_pump_envelope_anisotropic_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d0, d1 = rng.uniform(-6e4, 6e4, 2)
        expected = math.exp(-((42e-6) ** 2 * d0**2 + (31e-6) ** 2 * d1**2) / 4.0)
        assert pump_envelope(d0, d1, PUMP) == pytest.approx(expected, rel=1e-12)


def test_mode_function_peak_normalization():
    value = mode_function(qvec(), 0.0, qvec(), 0.0, make_geometry(), PUMP)
    assert value == 1.0 + 0.0j


def test_mode_function_modulus_bounded_by_one():
    geom = make_geometry()
    rng = np.random.default_rng(15)
    for mode in (MODE_GAUSSIAN_APPROX, MODE_EXACT_SINC):
        for _ in range(100):
            qe = qvec(*rng.uniform(-6e4, 6e4, 2))
            qo = qvec(*rng.uniform(-6e4, 6e4, 2))
            oe, oo = rng.uniform(-2e13, 2e13, 2)
            assert abs(mode_function(qe, oe, qo, oo, geom, PUMP, mode)) <= 1.0 + 1e-12


def test_gamma_constant_is_fixed():
    assert SINC_GAUSSIAN_GAMMA == 0.193


def test_modes_agree_within_small_mismatch_window():
    # relative modulus difference < 1% wherever |dk L / 2| < 0.3
    geom = make_geometry()
    qy = np.linspace(-6e4, 6e4, 4001)
    qe = qvec(qy=qy)
    qo = qvec(qy=0.0)
    half_phase = (
        mismatch_longitudinal(qe, 0.0, qo, 0.0, geom) * geom.crystal_length / 2.0
    )
    inside = np.abs(half_phase) < 0.3
    assert inside.sum() > 100
    exact = mode_function(qe, 0.0, qo, 0.0, geom, PUMP, MODE_EXACT_SINC)
    approx = mode_function(qe, 0.0, qo, 0.0, geom, PUMP, MODE_GAUSSIAN_APPROX)
    rel = np.abs(approx[inside] - exact[inside]) / np.abs(exact[inside])
    assert rel.max() < 0.01


def test_modes_identical_at_zero_longitudinal_mismatch():
    geom = make_geometry(walkoff_pump=0.0, walkoff_e=0.0)
    q = 1.7e4  # equal transverse momenta cancel in the longitudinal mismatch
    qe, qo = qvec(qy=q), qvec(qy=q)
    assert mismatch_longitudinal(qe, 0.0, qo, 0.0, geom) == 0.0
    exact = mode_function(qe, 0.0, qo, 0.0, geom, PUMP, MODE_EXACT_SINC)
    approx = mode_function(qe, 0.0, qo, 0.0, geom, PUMP, MODE_GAUSSIAN_APPROX)
    assert exact == approx


def test_modulus_invariant_under_global_sign_flip_in_symmetric_setup():
    geom = make_geometry(
        walkoff_pump=0.0,
        walkoff_e=0.0,
        group_slowness_e=1.65 / C_LIGHT,
        group_slowness_o=1.65 / C_LIGHT,
    )
    rng = np.random.default_rng(16)
    for _ in range(50):
        q = rng.uniform(-6e4, 6e4, 4)
        oe, oo = rng.uniform(-2e13, 2e13, 2)
        forward = mode_function(
            qvec(q[0], q[1]), oe, qvec(q[2], q[3]), oo, geom, PUMP
        )
        flipped = mode_function(
            qvec(-q[0], -q[1]), -oe, qvec(-q[2], -q[3]), -oo, geom, PUMP
        )
        assert abs(flipped) == pytest.approx(abs(forward), rel=1e-12)


def test_mode_function_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        mode_function(qvec(), 0.0, qvec(), 0.0, make_geometry(), PUMP, "parabolic")


def test_spectral_envelope_gaussian_pump():
    pump = PumpEnvelope(
        waist_x=42e-6, waist_y=31e-6, spectral_mode="gaussian", spectral_sigma=2e12
    )
    value = mode_function(qvec(), 1e12, qvec(), -1e12, make_geometry(), pump)
    # the summed detuning vanishes, so the spectral factor is 1
    lone = mode_function(qvec(), 1e12, qvec(), 0.0, make_geometry(), pump)
    assert abs(value) > abs(lone)


def test_transverse_wavevector_rejects_nonfinite():
    with pytest.raises(ValueError):
        TransverseWavevector(qx=math.nan, qy=0.0)
    with pytest.raises(ValueError):
        TransverseWavevector(qx=0.0, qy=math.inf)


# each form of a component holding v: scalars take math.isfinite, arrays np.isfinite
COMPONENT_FORMS = {
    "python_float": float,
    "numpy_float64": np.float64,
    "numpy_float32": np.float32,
    "zero_d_array": np.array,
    "nd_array": lambda v: np.array([[0.0, 1.0, -2.0], [3.0, v, 4.0]]),
}


@pytest.mark.parametrize("form", list(COMPONENT_FORMS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component", ["qx", "qy"])
def test_transverse_wavevector_rejects_nonfinite_in_every_form(component, bad, form):
    make = COMPONENT_FORMS[form]
    fields = {"qx": make(1.0), "qy": make(1.0)}
    TransverseWavevector(**fields)
    fields[component] = make(bad)
    with pytest.raises(ValueError, match="must be finite"):
        TransverseWavevector(**fields)


def test_paraxial_warning_fires_beyond_tenth_of_carrier():
    q = TransverseWavevector(qx=1e6, qy=0.0)
    with pytest.warns(ParaxialWarning):
        q.check_paraxial(814e-9)


def test_paraxial_silent_in_normal_regime(recwarn):
    TransverseWavevector(qx=5e4, qy=5e4).check_paraxial(814e-9)
    assert not [w for w in recwarn.list if issubclass(w.category, ParaxialWarning)]


def test_geometry_validation():
    with pytest.raises(ValueError, match="crystal_length"):
        make_geometry(crystal_length=0.0)
    with pytest.raises(ValueError, match="emission_angle_e"):
        make_geometry(emission_angle_e=-0.01)
    with pytest.raises(ValueError, match="group_slowness_o"):
        make_geometry(group_slowness_o=0.5 / C_LIGHT)


def test_pump_envelope_validation():
    with pytest.raises(ValueError, match="waists"):
        PumpEnvelope(waist_x=0.0, waist_y=31e-6)
    with pytest.raises(ValueError, match="spectral_mode"):
        PumpEnvelope(waist_x=42e-6, waist_y=31e-6, spectral_mode="chirped")
    with pytest.raises(ValueError, match="spectral_sigma"):
        PumpEnvelope(waist_x=42e-6, waist_y=31e-6, spectral_mode="gaussian")
