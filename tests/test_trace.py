import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import spdcsim.trace as trace_module
from spdcsim import default_config, resolve
from spdcsim.analysis import ScanPlan, _momentum_pair, auto_plan, run_scan
from spdcsim.dispersion import C_LIGHT
from spdcsim.kernel import (
    MODE_GAUSSIAN_APPROX,
    SINC_GAUSSIAN_GAMMA,
    PumpEnvelope,
    SpdcGeometry,
    TransverseWavevector,
    mismatch_longitudinal,
    mismatch_transverse_y,
    mode_function,
)
from spdcsim.trace import (
    DetectionAssignment,
    DivergingIntegralError,
    FourierPlaneMap,
    OpticalSystem,
    QuadratureAccuracyWarning,
    SpectralFilter,
    biphoton_intensity,
    integrate_quadrature,
    pinhole_smooth,
    resolve_pair,
    spatial_biphoton,
)

from test_analysis import asymmetric, relabel_system

EA = DetectionAssignment.E_AT_A
OA = DetectionAssignment.O_AT_A


def qvec(qx=0.0, qy=0.0):
    return TransverseWavevector(qx=qx, qy=qy)


@pytest.fixture(scope="module")
def gaussian_pump_system(system):
    pump = replace(
        system.pump, spectral_mode="gaussian", spectral_sigma=2.4e12
    )
    return replace(system, pump=pump)


# ---------------------------------------------------------------- filters

def test_filter_sigma_follows_stated_conversion():
    filt = SpectralFilter.from_fwhm_nm(814.0, 5.0)
    delta_omega = 2.0 * math.pi * C_LIGHT * 5e-9 / (814e-9) ** 2
    sigma = delta_omega / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    assert filt.sigma == pytest.approx(sigma, rel=1e-12)


def test_filter_roundtrip_is_exact():
    filt = SpectralFilter.from_fwhm_nm(814.0, 5.0)
    assert filt.fwhm_nm == pytest.approx(5.0, rel=1e-12)


def test_filter_validation():
    with pytest.raises(ValueError):
        SpectralFilter(center_wavelength=814e-9, sigma=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "part, field",
    [
        ("pump", "waist_x"),
        ("pump", "waist_y"),
        ("pump", "spectral_sigma"),
        ("filter_e", "sigma"),
        ("filter_o", "center_wavelength"),
        ("fourier", "focal_length"),
        ("fourier", "wavelength_e"),
        ("fourier", "wavelength_o"),
        ("geometry", "crystal_length"),
        ("geometry", "group_slowness_pump"),
        ("geometry", "group_slowness_e"),
        ("geometry", "group_slowness_o"),
        ("geometry", "walkoff_pump"),
        ("geometry", "walkoff_e"),
    ],
)
def test_physics_parameters_that_are_not_finite_are_rejected_by_name(system, part, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value!r}$"):
        replace(getattr(system, part), **{field: value})


@pytest.mark.parametrize(
    "part, field, value, message",
    [
        ("filter_e", "center_wavelength", 0.0, "filter center wavelength must be positive"),
        ("filter_o", "center_wavelength", -814e-9, "filter center wavelength must be positive"),
        ("fourier", "focal_length", 0.0, "focal length must be positive"),
        ("fourier", "focal_length", -0.75, "focal length must be positive"),
        ("fourier", "wavelength_e", 0.0, "central wavelengths must be positive"),
        ("fourier", "wavelength_o", -814e-9, "central wavelengths must be positive"),
    ],
)
def test_physics_parameters_that_are_not_positive_are_rejected(system, part, field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(getattr(system, part), **{field: value})


def test_optical_system_rejects_an_unknown_mode(system):
    with pytest.raises(ValueError, match="mode must be one of .*got 'sinc'"):
        replace(system, mode="sinc")


def test_assignment_parse():
    assert DetectionAssignment.parse("ea") is EA
    assert DetectionAssignment.parse("OA") is OA
    with pytest.raises(ValueError, match="assignment"):
        DetectionAssignment.parse("both")


# ---------------------------------------------------------------- Fourier map

def test_fourier_map_matches_direct_arithmetic():
    fmap = FourierPlaneMap(focal_length=0.75, wavelength_e=814e-9, wavelength_o=814e-9)
    expected = 2.0 * math.pi * 1e-3 / (814e-9 * 0.75)
    assert fmap.position_to_momentum(1e-3, 814e-9) == pytest.approx(expected, rel=1e-15)
    assert fmap.momentum_to_position(expected, 814e-9) == pytest.approx(1e-3, rel=1e-15)


def test_fourier_map_origin_maps_to_zero():
    fmap = FourierPlaneMap(focal_length=0.75, wavelength_e=814e-9, wavelength_o=814e-9)
    assert fmap.position_to_momentum(0.0, fmap.wavelength_e) == 0.0
    assert fmap.position_to_momentum(0.0, fmap.wavelength_o) == 0.0


def test_resolve_pair_routes_wavelengths_by_assignment():
    # the relabel of detector momenta to photons is its own inverse, so it
    # also takes the photons' wavelengths to the detectors
    fmap = FourierPlaneMap(focal_length=0.75, wavelength_e=810e-9, wavelength_o=818e-9)
    assert resolve_pair(fmap.wavelength_e, fmap.wavelength_o, EA) == (810e-9, 818e-9)
    assert resolve_pair(fmap.wavelength_e, fmap.wavelength_o, OA) == (818e-9, 810e-9)


# ---------------------------------------------------------------- quadratic form

def gaussian_integrand(q_A, q_B, system, assignment):
    """exp(-1/2 w^T M w + b^T w + c) at w = (omega_e, omega_o), from the oracle's M and b."""
    matrix, linear = trace_module._window_form(q_A, q_B, system, assignment)
    d0, d1, dk = trace_module._mismatches(q_A, q_B, assignment, system.geometry)
    pump, half_l = system.pump, system.geometry.crystal_length / 2.0
    constant = (
        -(pump.waist_x**2 / 4.0) * d0**2
        - (pump.waist_y**2 / 4.0) * d1**2
        - SINC_GAUSSIAN_GAMMA * (half_l * dk) ** 2
        + 1j * half_l * dk
    )

    def evaluate(omega_e, omega_o):
        w = np.array([omega_e, omega_o])
        return np.exp(-0.5 * (w @ matrix @ w) + linear @ w + constant)

    return evaluate


def test_form_reproduces_integrand_pointwise(system):
    rng = np.random.default_rng(21)
    for assignment in (EA, OA):
        q_A = qvec(*rng.uniform(-3e4, 3e4, 2))
        q_B = qvec(*rng.uniform(-3e4, 3e4, 2))
        integrand = gaussian_integrand(q_A, q_B, system, assignment)
        q_e, q_o = (q_A, q_B) if assignment is EA else (q_B, q_A)
        for _ in range(25):
            oe, oo = rng.uniform(-1.5e13, 1.5e13, 2)
            direct = (
                system.filter_e.amplitude(oe)
                * system.filter_o.amplitude(oo)
                * mode_function(
                    q_e, oe, q_o, oo, system.geometry, system.pump,
                    MODE_GAUSSIAN_APPROX,
                )
            )
            value = integrand(oe, oo)
            assert abs(value - direct) <= 1e-12 * abs(direct)


def test_form_reproduces_integrand_with_gaussian_pump(gaussian_pump_system):
    system = gaussian_pump_system
    rng = np.random.default_rng(22)
    q_A = qvec(qy=1.2e4)
    q_B = qvec(qy=-0.7e4)
    integrand = gaussian_integrand(q_A, q_B, system, EA)
    for _ in range(25):
        oe, oo = rng.uniform(-1.0e13, 1.0e13, 2)
        direct = (
            system.filter_e.amplitude(oe)
            * system.filter_o.amplitude(oo)
            * mode_function(
                q_A, oe, q_B, oo, system.geometry, system.pump, MODE_GAUSSIAN_APPROX
            )
        )
        assert abs(integrand(oe, oo) - direct) <= 1e-12 * abs(direct)


def test_form_real_linear_term_vanishes_at_zero_momenta(system):
    # at q = 0 the surviving linear term is the purely imaginary phase
    # contribution, so only its real part can be required to vanish
    _, linear = trace_module._window_form(qvec(), qvec(), system, EA)
    assert np.allclose(np.real(linear), 0.0, atol=1e-30)
    assert np.all(np.imag(linear) != 0.0)


def test_form_real_part_positive_definite_at_defaults(system):
    matrix, _ = trace_module._window_form(qvec(qy=1e4), qvec(qy=1e4), system, EA)
    assert np.all(np.linalg.eigvalsh(matrix) > 0.0)
    assert matrix[0, 0] > 0.0 and np.linalg.det(matrix) > 0.0


def test_form_batched_momenta_share_one_matrix(system):
    qy = np.linspace(-2e4, 2e4, 7)
    matrix, linear = trace_module._window_form(qvec(qy=qy), qvec(qy=0.5 * qy), system, EA)
    assert matrix.shape == (2, 2)
    assert linear.shape == (7, 2)


def test_frequency_rows_are_read_once_per_geometry(system):
    # a1 and ak, the mismatches at zero momentum and unit detuning, hold no
    # pump term: every waist of a sweep shares the rows of its geometry
    geom = system.geometry
    a1, ak = trace_module._frequency_rows(geom)
    assert trace_module._frequency_rows(replace(geom))[0] is a1  # an equal geometry hits
    assert not (a1.flags.writeable or ak.flags.writeable)
    zero, (unit_e, unit_o) = qvec(), np.eye(2)
    assert np.array_equal(a1, mismatch_transverse_y(zero, unit_e, zero, unit_o, geom))
    assert np.array_equal(ak, mismatch_longitudinal(zero, unit_e, zero, unit_o, geom))
    swept = system.with_isotropic_waist(2e-4)
    rows = trace_module._form_constants(swept, SINC_GAUSSIAN_GAMMA)[0]
    assert np.array_equal(rows[0], -(swept.pump.waist_y**2 / 2.0) * a1)


# ---------------------------------------------------------------- closed forms

def test_closed_form_matches_quadrature_on_sample_grid(system):
    offsets = np.linspace(-2e4, 2e4, 5)
    for qa in offsets:
        for qb in offsets:
            q_A, q_B = qvec(qy=float(qa)), qvec(qy=float(qb))
            closed = spatial_biphoton(q_A, q_B, system, EA)
            quad = integrate_quadrature(q_A, q_B, system, EA, check_convergence=False)
            assert abs(closed - quad) <= 1e-6 * abs(closed)


def test_closed_form_matches_quadrature_with_gaussian_pump(gaussian_pump_system):
    system = gaussian_pump_system
    for qa, qb in ((0.0, 0.0), (1.5e4, 1.1e4), (-2e4, 0.6e4)):
        q_A, q_B = qvec(qy=qa), qvec(qy=qb)
        closed = spatial_biphoton(q_A, q_B, system, EA)
        quad = integrate_quadrature(q_A, q_B, system, EA, check_convergence=False)
        assert abs(closed - quad) <= 1e-6 * abs(closed)


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode", ["gaussian_approx", "exact_sinc"])
def test_narrow_pulsed_pump_approaches_the_cw_trace(system, mode, axis):
    # the pump factor exp(-(omega_e + omega_o)^2 / 4 sigma_p^2) integrates to
    # 2 sqrt(pi) sigma_p across the CW line omega_o = -omega_e, with an error
    # of order (sigma_p / sigma_filter)^2
    cw = replace(system, mode=mode)
    offsets = np.linspace(-2e4, 2e4, 5)
    if axis == "y":
        q_A, q_B = qvec(qy=offsets[:, np.newaxis]), qvec(qy=offsets[np.newaxis, :])
    else:
        q_A, q_B = qvec(qx=offsets[:, np.newaxis]), qvec(qx=offsets[np.newaxis, :])
    amplitude = spatial_biphoton(q_A, q_B, cw, EA)
    intensity = biphoton_intensity(q_A, q_B, cw, EA)
    gaps = []
    for ratio in (1e-2, 1e-3):
        sigma_p = ratio * cw.filter_e.sigma
        pulsed = replace(
            cw, pump=replace(cw.pump, spectral_mode="gaussian", spectral_sigma=sigma_p)
        )
        scaled_amplitude = spatial_biphoton(q_A, q_B, pulsed, EA) / (
            2.0 * math.sqrt(math.pi) * sigma_p
        )
        scaled_intensity = biphoton_intensity(q_A, q_B, pulsed, EA) / (
            4.0 * math.pi * sigma_p**2
        )
        gaps.append(
            (
                np.max(np.abs(scaled_amplitude / amplitude - 1.0)),
                np.max(np.abs(scaled_intensity / intensity - 1.0)),
            )
        )
    # measured: at most 2.7e-4 at 1e-2 and 2.7e-6 at 1e-3, a ratio of 100.0
    for coarse, fine in zip(*gaps):
        assert fine <= 4e-6
        assert 90.0 <= coarse / fine <= 110.0


def test_tiny_filter_bandwidth_recovers_central_mode_values(system):
    narrow = SpectralFilter(center_wavelength=814e-9, sigma=5e8)
    pinched = replace(system, filter_e=narrow, filter_o=narrow)
    q_ref = qvec(qy=0.4e4)
    ref_amp = spatial_biphoton(q_ref, q_ref, pinched, EA)
    ref_mode = mode_function(
        q_ref, 0.0, q_ref, 0.0, system.geometry, system.pump, MODE_GAUSSIAN_APPROX
    )
    for q in (0.8e4, 1.5e4, -1.1e4):
        q_t = qvec(qy=q)
        amp_ratio = spatial_biphoton(q_t, q_t, pinched, EA) / ref_amp
        mode_ratio = (
            mode_function(
                q_t, 0.0, q_t, 0.0, system.geometry, system.pump, MODE_GAUSSIAN_APPROX
            )
            / ref_mode
        )
        assert amp_ratio == pytest.approx(mode_ratio, rel=1e-6)


def test_quadrature_is_silent_at_defaults(system, recwarn):
    integrate_quadrature(qvec(qy=1e4), qvec(qy=0.8e4), system, EA)
    assert not [w for w in recwarn.list if issubclass(w.category, QuadratureAccuracyWarning)]


def test_quadrature_warns_when_underresolved(system, monkeypatch):
    monkeypatch.setattr(trace_module, "_node_count", lambda *args: 5)
    with pytest.warns(QuadratureAccuracyWarning):
        integrate_quadrature(qvec(qy=1e4), qvec(qy=0.8e4), system, EA)


def test_exact_sinc_default_is_the_depth_closed_form(system):
    sinc_system = replace(system, mode="exact_sinc")
    q_A = qvec(qx=2e3, qy=np.linspace(-2e4, 2e4, 5)[:, np.newaxis])
    q_B = qvec(qy=np.linspace(-2e4, 2e4, 5)[np.newaxis, :])
    default = spatial_biphoton(q_A, q_B, sinc_system, EA)
    closed = trace_module._trace_exact_sinc(q_A, q_B, sinc_system, EA)
    quad = integrate_quadrature(q_A, q_B, sinc_system, EA)
    assert np.array_equal(default, closed)
    assert np.all(np.abs(closed - quad) <= 1e-8 * np.abs(quad))


# ---------------------------------------------------------------- quadrature oracle

def _reference_node_count(span, feature_scale, phase_rate, floor):
    n = floor
    if feature_scale > 0.0:
        n = max(n, int(math.ceil(2.5 * span / feature_scale)) + 1)
    if phase_rate > 0.0:
        n = max(n, int(math.ceil(4.0 * span * phase_rate / math.pi)) + 1)
    return n


def _reference_point(q_A, q_B, system, assignment, nodes):
    """One point's integral, step-halving change and node counts, by the oracle's rule.

    The window on each axis of the pump's support comes from the product
    Gaussian and the filters alone (``_on_support``); the grid maps to the
    detunings through the oracle's ``_SUPPORT_BASIS`` and the coarse rule
    is a separate grid on n nodes per axis.
    """
    geom, pump, mode = system.geometry, system.pump, system.mode
    filter_e, filter_o = system.filter_e, system.filter_o
    q_e, q_o = (q_A, q_B) if assignment is EA else (q_B, q_A)
    m, linear = trace_module._window_form(q_A, q_B, system, assignment)
    m_inv, _, b = trace_module._on_support(pump, m, linear)
    filters = np.diag([1.0 / (2.0 * filter_e.sigma**2), 1.0 / (2.0 * filter_o.sigma**2)])
    filter_inv = trace_module._on_support(pump, filters)[0]
    basis = trace_module._SUPPORT_BASIS[pump.spectral_mode]
    window = trace_module.QUADRATURE_WINDOW_SIGMAS
    center = (b.real * m_inv).sum(axis=-1)
    lo, hi, counts = [], [], []
    for i in range(len(basis)):
        sigma = math.sqrt(m_inv[i, i])
        half_filter = window * math.sqrt(filter_inv[i, i])
        lo.append(min(-half_filter, center[i] - window * sigma))
        hi.append(max(half_filter, center[i] + window * sigma))
        counts.append(_reference_node_count(hi[i] - lo[i], sigma, abs(b[i].imag), nodes))

    def evaluate(num_scale):
        axes = [
            np.linspace(lo[i], hi[i], (counts[i] - 1) * num_scale + 1) for i in range(len(basis))
        ]
        grid = np.meshgrid(*axes, indexing="ij")
        omega_e, omega_o = (
            functools.reduce(np.add, [t * row[c] for t, row in zip(grid, basis)]) for c in (0, 1)
        )
        integrand = (
            filter_e.amplitude(omega_e)
            * filter_o.amplitude(omega_o)
            * mode_function(q_e, omega_e, q_o, omega_o, geom, pump, mode)
        )
        value, scale = integrand, np.abs(integrand)
        for axis in reversed(axes):
            value = np.trapezoid(value, axis, axis=-1)
            scale = np.trapezoid(scale, axis, axis=-1)
        return value, scale

    coarse, _ = evaluate(1)
    fine, magnitude = evaluate(2)
    return fine, _reference_change(fine, coarse, magnitude), tuple(counts)


def _reference_change(fine, coarse, magnitude):
    denom = max(abs(fine), 1e-9 * magnitude)
    return abs(fine - coarse) / denom if denom > 0.0 else 0.0


def reference_quadrature(q_A, q_B, system, assignment, nodes=201):
    """The quadrature trace one point at a time, for either pump.

    Returns the amplitudes, the relative change when the step is halved and
    the list of per-point node-count tuples, one entry per support axis.
    """
    qx_a, qy_a, qx_b, qy_b = np.broadcast_arrays(q_A.qx, q_A.qy, q_B.qx, q_B.qy)
    amplitude = np.empty(qx_a.shape, dtype=complex)
    change = np.empty(qx_a.shape)
    counts = []
    for index in np.ndindex(amplitude.shape):
        amplitude[index], change[index], n = _reference_point(
            TransverseWavevector(qx=float(qx_a[index]), qy=float(qy_a[index])),
            TransverseWavevector(qx=float(qx_b[index]), qy=float(qy_b[index])),
            system, assignment, nodes,
        )
        counts.append(n)
    return amplitude, change, counts


@pytest.fixture(scope="module")
def sinc_system(system):
    return replace(system, mode="exact_sinc")


@pytest.fixture(scope="module")
def pulsed_sinc_system():
    """Default config in exact-sinc mode with a 0.5 nm Gaussian-spectrum pump."""
    config = default_config()
    pump = replace(config.pump, spectral_mode="gaussian", spectral_fwhm_nm=0.5)
    return resolve(replace(config, mode="exact_sinc", pump=pump)).system


def scan_momenta(system, axis, assignment, points, orthogonal=0.0):
    """Detector momenta of an auto-window scan, as ``run_scan`` builds them."""
    plan = auto_plan(axis, assignment, system, points, orthogonal=orthogonal)
    lam_a, lam_b = resolve_pair(
        system.fourier.wavelength_e, system.fourier.wavelength_o, assignment
    )
    grid_a, grid_b = np.meshgrid(
        system.fourier.position_to_momentum(np.linspace(*plan.range_a, points), lam_a),
        system.fourier.position_to_momentum(np.linspace(*plan.range_b, points), lam_b),
        indexing="ij",
    )
    return _momentum_pair(axis, assignment, orthogonal, system, grid_a, grid_b)


@pytest.mark.parametrize("spectral_mode", ["monochromatic", "gaussian"])
def test_oracle_support_basis_agrees_with_on_support(system, spectral_mode):
    # the oracle states its grid's support apart from _on_support, which every
    # closed form reads; the two statements must describe one support
    pump = replace(system.pump, spectral_mode=spectral_mode, spectral_sigma=2.4e12)
    basis = np.array(trace_module._SUPPORT_BASIS[spectral_mode])
    rng = np.random.default_rng(31)
    for _ in range(50):
        root = rng.normal(size=(2, 2))
        matrix = root @ root.T + np.eye(2)
        vectors = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        m_inv, det, on_support = trace_module._on_support(pump, matrix, vectors)
        restricted = basis @ matrix @ basis.T
        np.testing.assert_allclose(m_inv, np.linalg.inv(restricted), rtol=1e-15, atol=0.0)
        assert det == pytest.approx(np.linalg.det(restricted), rel=1e-15, abs=0.0)
        np.testing.assert_allclose(on_support, vectors @ basis.T, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_quadrature_matches_pointwise_reference(sinc_system, axis, assignment):
    q_A, q_B = scan_momenta(sinc_system, axis, assignment, 16)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, assignment)
    actual = integrate_quadrature(q_A, q_B, sinc_system, assignment)
    assert actual.shape == (16, 16)
    assert np.array_equal(actual, expected)


def test_quadrature_with_orthogonal_offset(sinc_system):
    q_A, q_B = scan_momenta(sinc_system, "x", OA, 10, orthogonal=1e-3)
    assert np.all(q_A.qy != 0.0)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, OA)
    actual = integrate_quadrature(q_A, q_B, sinc_system, OA)
    assert np.array_equal(actual, expected)


def test_quadrature_mixes_node_counts(sinc_system):
    q_A, q_B = scan_momenta(sinc_system, "y", EA, 12)
    expected, _, counts = reference_quadrature(q_A, q_B, sinc_system, EA, nodes=9)
    assert len(set(counts)) > 1
    actual = integrate_quadrature(
        q_A, q_B, sinc_system, EA, nodes=9, check_convergence=False
    )
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("nodes", [trace_module.DEFAULT_QUADRATURE_NODES, 9])
def test_quadrature_pulsed_grid(gaussian_pump_system, nodes):
    pulsed = replace(gaussian_pump_system, mode="exact_sinc")
    qy = np.linspace(-2e4, 2e4, 4)
    q_A = TransverseWavevector(qx=3e3, qy=qy[:, np.newaxis])
    q_B = TransverseWavevector(qx=-1e3, qy=0.9 * qy[np.newaxis, :])
    expected, _, _ = reference_quadrature(q_A, q_B, pulsed, OA, nodes=nodes)
    actual = integrate_quadrature(q_A, q_B, pulsed, OA, nodes=nodes, check_convergence=False)
    assert actual.shape == (4, 4)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize(
    "q_A, q_B, shape",
    [
        (qvec(qx=2e3, qy=1e4), qvec(qy=0.8e4), ()),
        (qvec(qy=np.linspace(-1e4, 1e4, 5)), qvec(qx=2e3, qy=0.8e4), (5,)),
        (
            qvec(qx=2e3, qy=np.linspace(-1e4, 1e4, 3)[:, np.newaxis]),
            qvec(qx=-1e3, qy=np.linspace(-0.8e4, 0.8e4, 4)[np.newaxis, :]),
            (3, 4),
        ),
        (qvec(qy=np.empty(0)), qvec(qy=0.8e4), (0,)),
    ],
    ids=["scalar", "vector-scalar", "column-row", "empty"],
)
def test_quadrature_returns_the_broadcast_shape(sinc_system, q_A, q_B, shape):
    value = integrate_quadrature(q_A, q_B, sinc_system, EA)
    assert np.shape(value) == shape
    if not shape:
        assert isinstance(value, complex)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, EA)
    assert np.array_equal(value, expected)


def _quadrature_warnings(record):
    return [w for w in record if issubclass(w.category, QuadratureAccuracyWarning)]


def test_quadrature_warns_once_per_call_with_the_count(sinc_system):
    wide = sinc_system.with_isotropic_waist(500e-6)
    lam = wide.fourier.wavelength_e
    q = wide.fourier.position_to_momentum(np.linspace(-6e-3, 6e-3, 6), lam)
    q_A = TransverseWavevector(qx=0.0, qy=q[:, np.newaxis])
    q_B = TransverseWavevector(qx=0.0, qy=q[np.newaxis, :])
    _, change, _ = reference_quadrature(q_A, q_B, wide, EA)
    missed = int(np.sum(change > trace_module.QUADRATURE_RTOL))
    assert 0 < missed < 36
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        integrate_quadrature(q_A, q_B, wide, EA)
    (warning,) = _quadrature_warnings(record)
    assert f"at {missed} of 36 points" in str(warning.message)
    assert f"(worst {change.max():.2e})" in str(warning.message)


def _wide_waist_scan(sinc_system):
    """A fixed +-6 mm, 12^2 exact-sinc y scan at a 500 um waist, and its warnings."""
    wide = sinc_system.with_isotropic_waist(500e-6)
    window = (-6e-3, 6e-3)
    plan = ScanPlan(axis="y", assignment=EA, range_a=window, range_b=window, points=12)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        run_scan(plan, wide)
    return _quadrature_warnings(record)


def test_wide_waist_exact_sinc_scan_converges(sinc_system):
    assert not _wide_waist_scan(sinc_system)


def test_wide_waist_scan_warns_once_with_too_few_depth_nodes(sinc_system, monkeypatch):
    monkeypatch.setattr(trace_module, "_depth_node_count", lambda *args: 24)
    (warning,) = _wide_waist_scan(sinc_system)
    message = str(warning.message)
    assert "doubling the 24 crystal-depth nodes" in message
    assert " of 144 points (worst " in message
    missed = int(message.split(" of 144 points")[0].rsplit(" ", 1)[1])
    assert 0 < missed < 144  # tail points only: the bulk converges at 24 nodes
    assert "of the grid peak" in message


# ---------------------------------------------------------------- crystal-depth closed form

def test_depth_average_is_sinc():
    # (1/2) integral of exp(i x s) over [-1, 1] is sinc x; exp(i x) is the caller's
    x = np.linspace(-20.0, 20.0, 801)
    assert np.all(np.abs(trace_module.depth_average(1j * x, 0.0) - np.sinc(x / np.pi)) <= 1e-13)


def test_depth_average_returns_the_doubled_rule(monkeypatch):
    # 12 nodes miss sinc(20) by far, 24 nodes meet it: the value is the 2n-node
    # sum and the n-node sum only checks it
    monkeypatch.setattr(trace_module, "_depth_node_count", lambda *args: 12)
    with pytest.warns(QuadratureAccuracyWarning, match="at 1 of 1 points"):
        value = trace_module.depth_average(20j, 0.0)
    assert abs(value - np.sinc(20.0 / np.pi)) <= 1e-13


@pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_depth_closed_form_matches_fine_trapezoid(sinc_system, axis, assignment, kind):
    system = sinc_system if kind == "symmetric" else asymmetric(sinc_system)
    q_A, q_B = scan_momenta(system, axis, assignment, 16)
    trapezoid = integrate_quadrature(q_A, q_B, system, assignment, nodes=402)
    depth = spatial_biphoton(q_A, q_B, system, assignment)
    # measured: at most 5.1e-14 at 201 and 402 nodes
    assert np.all(np.abs(depth - trapezoid) <= 1e-12 * np.abs(trapezoid))


@pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_depth_closed_form_matches_pulsed_trapezoid(pulsed_sinc_system, assignment, kind):
    system = pulsed_sinc_system if kind == "symmetric" else asymmetric(pulsed_sinc_system)
    qy = np.linspace(-2e4, 2e4, 4)
    q_A = TransverseWavevector(qx=3e3, qy=qy[:, np.newaxis])
    q_B = TransverseWavevector(qx=-1e3, qy=0.9 * qy[np.newaxis, :])
    trapezoid = integrate_quadrature(q_A, q_B, system, assignment)
    depth = spatial_biphoton(q_A, q_B, system, assignment)
    # measured: at most 1.7e-14 on either system
    assert np.all(np.abs(depth - trapezoid) <= 1e-12 * np.abs(trapezoid))


# ---------------------------------------------------------------- rates

@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode", [MODE_GAUSSIAN_APPROX, "exact_sinc"])
def test_run_scan_grid_is_nonnegative_with_a_positive_peak(system, mode, axis):
    moded = replace(system, mode=mode)
    plan = ScanPlan(
        axis=axis, assignment=EA, range_a=(-3e-3, 3e-3), range_b=(-3e-3, 3e-3),
        points=16, orthogonal=0.5e-3,
    )
    values = run_scan(plan, moded, normalize=False).values
    assert np.all(values >= 0.0)
    assert values.max() > 0.0


@pytest.mark.parametrize("mode", [MODE_GAUSSIAN_APPROX, "exact_sinc"])
def test_rate_invariant_under_consistent_unit_rescaling(system, mode):
    # express every length in km instead of m, scan ranges included; the
    # normalized grid is dimensionless
    system = replace(system, mode=mode)
    scale = 1e-3
    geom = system.geometry
    geom_scaled = SpdcGeometry(
        emission_angle_e=geom.emission_angle_e,
        emission_angle_o=geom.emission_angle_o,
        walkoff_pump=geom.walkoff_pump,
        walkoff_e=geom.walkoff_e,
        group_slowness_pump=geom.group_slowness_pump / scale,
        group_slowness_e=geom.group_slowness_e / scale,
        group_slowness_o=geom.group_slowness_o / scale,
        crystal_length=geom.crystal_length * scale,
    )
    pump_scaled = PumpEnvelope(
        waist_x=system.pump.waist_x * scale,
        waist_y=system.pump.waist_y * scale,
        spectral_mode=system.pump.spectral_mode,
        spectral_sigma=system.pump.spectral_sigma,
    )
    fourier_scaled = FourierPlaneMap(
        focal_length=system.fourier.focal_length * scale,
        wavelength_e=system.fourier.wavelength_e * scale,
        wavelength_o=system.fourier.wavelength_o * scale,
    )
    scaled = OpticalSystem(
        geometry=geom_scaled,
        pump=pump_scaled,
        filter_e=SpectralFilter(
            center_wavelength=system.filter_e.center_wavelength * scale,
            sigma=system.filter_e.sigma,
        ),
        filter_o=SpectralFilter(
            center_wavelength=system.filter_o.center_wavelength * scale,
            sigma=system.filter_o.sigma,
        ),
        fourier=fourier_scaled,
        mode=system.mode,
    )
    for axis, orthogonal in (("y", 0.0), ("x", 0.5e-3)):
        plan = ScanPlan(
            axis=axis, assignment=EA, range_a=(-2e-3, 2e-3), range_b=(-1.5e-3, 2.5e-3),
            points=8, orthogonal=orthogonal,
        )
        plan_km = replace(
            plan,
            range_a=tuple(v * scale for v in plan.range_a),
            range_b=tuple(v * scale for v in plan.range_b),
            orthogonal=orthogonal * scale,
        )
        si = run_scan(plan, system).values
        km = run_scan(plan_km, scaled).values
        np.testing.assert_allclose(km, si, rtol=1e-12, atol=0.0)


def window_momenta(system, axis, assignment, range_a, range_b, points, orthogonal=0.0):
    """Detector momenta of a scan window on broadcast axes, as ``run_scan`` builds them."""
    fourier = system.fourier
    wavelengths = resolve_pair(fourier.wavelength_e, fourier.wavelength_o, assignment)
    momenta = [
        fourier.position_to_momentum(np.linspace(*rng, points), lam)
        for lam, rng in zip(wavelengths, (range_a, range_b))
    ]
    return _momentum_pair(
        axis, assignment, orthogonal, system,
        momenta[0][:, np.newaxis], momenta[1][np.newaxis, :],
    )


def amplitude_squared(q_A, q_B, system, assignment):
    return np.abs(spatial_biphoton(q_A, q_B, system, assignment)) ** 2


@pytest.mark.parametrize("orthogonal", [0.0, 1e-3])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric"])
def test_intensity_matches_amplitude_squared_on_auto_windows(kind, assignment, axis, orthogonal):
    system = relabel_system(kind, MODE_GAUSSIAN_APPROX)
    plan = auto_plan(axis, assignment, system, 48, orthogonal=orthogonal)
    q_A, q_B = window_momenta(
        system, axis, assignment, plan.range_a, plan.range_b, plan.points, orthogonal
    )
    expected = amplitude_squared(q_A, q_B, system, assignment)
    got = biphoton_intensity(q_A, q_B, system, assignment)
    assert got.shape == expected.shape == (48, 48)
    assert np.max(np.abs(got - expected) / expected) <= 1e-12


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("waist", [31e-6, 148e-6, 500e-6])
def test_intensity_keeps_the_zero_cells_of_wide_windows(system, waist, axis):
    # +-12 mm spans 35 to 333 decades; with log|pref|^2 outside the
    # exponent, exp alone underflows in cells whose rate is still normal
    wide = system.with_isotropic_waist(waist)
    window = (-12e-3, 12e-3)
    q_A, q_B = window_momenta(wide, axis, EA, window, window, 128)
    expected = amplitude_squared(q_A, q_B, wide, EA)
    got = biphoton_intensity(q_A, q_B, wide, EA)
    assert np.array_equal(got == 0.0, expected == 0.0)
    normal = expected >= np.finfo(float).tiny
    assert np.max(np.abs(got[normal] - expected[normal]) / expected[normal]) <= 1e-12


def test_exact_sinc_intensity_is_amplitude_squared(sinc_system):
    q_A, q_B = qvec(qy=np.array([[-1e4], [1.2e4]])), qvec(qy=np.array([[0.9e4, 2e3]]))
    expected = np.abs(spatial_biphoton(q_A, q_B, sinc_system, EA)) ** 2
    assert np.array_equal(biphoton_intensity(q_A, q_B, sinc_system, EA), expected)


def divergent_gamma(system, defect):
    """An acceptance exp(-gamma x^2), gamma < 0, whose M has the named defect.

    M(gamma) = M(0) + gamma s ak ak^T with s = 2 (L/2)^2, so M_00 vanishes
    at gamma_00 = -M_00 / (s ak_0^2) and det M at
    gamma_det = -1 / (s ak^T M(0)^-1 ak), which lies above gamma_00.
    """
    half_l = system.geometry.crystal_length / 2.0
    (_, _, w), matrix = trace_module._form_constants(system, 0.0)
    ak = w / half_l
    s = 2.0 * half_l**2
    gamma_00 = -matrix[0, 0] / (s * ak[0] ** 2)
    gamma_det = -1.0 / (s * (ak @ np.linalg.solve(matrix, ak)))
    gamma = {"negative-entry": 2.0 * gamma_00, "indefinite": 0.5 * (gamma_00 + gamma_det)}[defect]
    shifted = matrix + gamma * s * np.outer(ak, ak)
    if defect == "negative-entry":
        assert shifted[0, 0] < 0.0
    else:
        assert shifted[0, 0] > 0.0 and np.linalg.det(shifted) < 0.0
    return gamma


@pytest.mark.parametrize("defect", ["physical", "negative-entry", "indefinite"])
@pytest.mark.parametrize("kind", ["cw", "pulsed"])
def test_intensity_diverges_where_the_amplitude_does(monkeypatch, kind, defect):
    system = relabel_system(kind, MODE_GAUSSIAN_APPROX)
    if defect != "physical":
        monkeypatch.setattr(trace_module, "SINC_GAUSSIAN_GAMMA", divergent_gamma(system, defect))
    q_A, q_B = qvec(qy=np.linspace(-1e4, 1e4, 3)), qvec(qy=2e3)
    outcomes = []
    for rate in (amplitude_squared, biphoton_intensity):
        try:
            rate(q_A, q_B, system, EA)
            outcomes.append(None)
        except DivergingIntegralError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (defect == "physical")


# ---------------------------------------------------------------- pinhole

def test_pinhole_zero_diameter_is_identity():
    rng = np.random.default_rng(25)
    grid = rng.uniform(0.0, 1.0, (16, 16))
    out = pinhole_smooth(grid, (1e-4, 1e-4), 0.0)
    assert np.array_equal(out, grid)


def test_pinhole_preserves_total_and_peak_bound():
    rng = np.random.default_rng(26)
    for _ in range(10):
        grid = rng.uniform(0.0, 1.0, (32, 32))
        out = pinhole_smooth(grid, (1e-4, 1e-4), 7.5e-4)
        assert out.sum() == pytest.approx(grid.sum(), rel=1e-9)
        assert out.max() <= grid.max() * (1.0 + 1e-12)


def test_pinhole_larger_than_window_rejected():
    grid = np.ones((16, 16))
    with pytest.raises(ValueError, match="exceeds the scan span"):
        pinhole_smooth(grid, (1e-4, 1e-4), 1.0)


@pytest.mark.parametrize("diameter", [math.nan, math.inf, -math.inf, -1e-4])
def test_pinhole_rejects_a_diameter_that_is_not_finite_and_non_negative(system, diameter):
    with pytest.raises(ValueError, match=rf"pinhole diameter .*got {diameter!r}"):
        pinhole_smooth(np.ones((16, 16)), (1e-4, 1e-4), diameter)
    plan = auto_plan("y", EA, system, 8)
    with pytest.raises(ValueError, match="pinhole diameter"):
        run_scan(plan, system, pinhole_diameter=diameter)


@pytest.mark.parametrize(
    "steps",
    [(1e-4,), (1e-4, 1e-4, 1e-4), (1e-4, math.nan), (math.inf, 1e-4), (0.0, 1e-4)],
)
def test_pinhole_rejects_steps_that_are_not_one_finite_non_zero_step_per_axis(steps):
    with pytest.raises(ValueError, match="steps must hold one finite, non-zero step"):
        pinhole_smooth(np.ones((16, 16)), steps, 7.5e-4)


def test_pinhole_rejects_a_grid_that_is_not_2d():
    with pytest.raises(ValueError, match="expected a 2-D scan grid"):
        pinhole_smooth(np.ones(16), (1e-4, 1e-4), 7.5e-4)


def rolled_pinhole_reference(values, steps, diameter):
    """The circular top-hat as a sum of np.roll shifts, in ascending offset order."""
    out = np.array(values, dtype=float)
    for axis, step in enumerate(steps):
        taps = int(math.floor(diameter / (2.0 * abs(step)) + 1e-12))
        if taps == 0:
            continue
        smoothed = np.zeros_like(out)
        for offset in range(-taps, taps + 1):
            smoothed += np.roll(out, offset, axis=axis)
        out = smoothed * (1.0 / (2 * taps + 1))
    return out


SINGLE_AXIS_CASES = [
    ((17, 9), (1e-4, 1e-3), 9e-4),  # taps == 0 along axis 1
    ((9, 33), (1e-3, 1e-4), 9e-4),  # taps == 0 along axis 0
]
PINHOLE_CASES = [
    ((32, 32), (1e-4, 1e-4), 7.5e-4),  # both axes, square
    ((24, 41), (1e-4, 3e-5), 1.1e-3),  # non-square, unequal steps
    *SINGLE_AXIS_CASES,
    ((15, 15), (1e-4, 1e-4), 1.4e-3),  # widest aperture the span allows
    ((16, 16), (1e-4, 1e-4), 1.5e-3),  # 15-node window: the band wraps past the corners
    ((13, 20), (1e-4, 1e-4), 1.2e-3),  # 13-node window covers all of axis 0
]


@pytest.mark.parametrize("shape, steps, diameter", PINHOLE_CASES)
def test_pinhole_matches_rolled_reference(shape, steps, diameter):
    grid = np.random.default_rng(27).uniform(0.0, 1.0, shape)
    grid[0, 0] = -0.0
    expected = rolled_pinhole_reference(grid, steps, diameter)
    actual = pinhole_smooth(grid, steps, diameter)
    np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "shape, steps, diameter",
    [
        *SINGLE_AXIS_CASES,
        ((80, 8), (1e-5, 1e-3), 7.1e-4),  # 71-node window, most of the 80-node axis 0
    ],
)
def test_pinhole_single_axis_integer_grid_is_exact(shape, steps, diameter):
    # integer window sums are exact in any order of addition, and the one
    # weight multiplication rounds the same, so the result is bitwise fixed
    grid = np.random.default_rng(28).integers(0, 1000, shape).astype(float)
    grid[0, 0] = -0.0
    expected = rolled_pinhole_reference(grid, steps, diameter)
    assert np.array_equal(pinhole_smooth(grid, steps, diameter), expected)


def test_pinhole_keeps_relative_accuracy_across_300_decades():
    # a running-sum filter would leave the 1e-300 tails with errors near
    # 1e-16 of the peak, far beyond their size, and some of them negative
    profile_a = 10.0 ** (-150.0 * np.linspace(-1.0, 1.0, 65) ** 2)
    profile_b = 10.0 ** (-150.0 * np.linspace(-1.0, 1.0, 49) ** 2)
    grid = np.outer(profile_a, profile_b)
    assert grid.min() < 1e-299 and grid.max() == 1.0
    steps, diameter = (1e-4, 1e-4), 1.5e-3
    out = pinhole_smooth(grid, steps, diameter)
    assert np.all(out > 0.0)
    expected = rolled_pinhole_reference(grid, steps, diameter)
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0.0)
