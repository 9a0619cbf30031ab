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
    PumpEnvelope,
    SpdcGeometry,
    TransverseWavevector,
    mode_function,
)
from spdcsim.trace import (
    ComplexQuadraticForm,
    DetectionAssignment,
    DivergingIntegralError,
    FourierPlaneMap,
    OpticalSystem,
    QuadratureAccuracyWarning,
    SpectralFilter,
    build_quadratic_form,
    coincidence_rate,
    integrate_gaussian,
    integrate_gaussian_antidiagonal,
    integrate_quadrature,
    pinhole_smooth,
    spatial_biphoton,
)

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
    for assignment in (EA, OA):
        for detector in ("A", "B"):
            lam = fmap.wavelength_at(detector, assignment)
            assert fmap.position_to_momentum(0.0, lam) == 0.0


def test_fourier_map_routes_wavelengths_by_assignment():
    fmap = FourierPlaneMap(focal_length=0.75, wavelength_e=810e-9, wavelength_o=818e-9)
    assert fmap.wavelength_at("A", EA) == 810e-9
    assert fmap.wavelength_at("B", EA) == 818e-9
    assert fmap.wavelength_at("A", OA) == 818e-9
    assert fmap.wavelength_at("B", OA) == 810e-9


# ---------------------------------------------------------------- quadratic form

def test_form_reproduces_integrand_pointwise(system):
    rng = np.random.default_rng(21)
    for assignment in (EA, OA):
        q_A = qvec(*rng.uniform(-3e4, 3e4, 2))
        q_B = qvec(*rng.uniform(-3e4, 3e4, 2))
        form = build_quadratic_form(
            q_A, q_B, assignment, system.geometry, system.pump,
            system.filter_e, system.filter_o,
        )
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
            value = form.evaluate(oe, oo)
            assert abs(value - direct) <= 1e-12 * abs(direct)


def test_form_reproduces_integrand_with_gaussian_pump(gaussian_pump_system):
    system = gaussian_pump_system
    rng = np.random.default_rng(22)
    q_A = qvec(qy=1.2e4)
    q_B = qvec(qy=-0.7e4)
    form = build_quadratic_form(
        q_A, q_B, EA, system.geometry, system.pump, system.filter_e, system.filter_o
    )
    for _ in range(25):
        oe, oo = rng.uniform(-1.0e13, 1.0e13, 2)
        direct = (
            system.filter_e.amplitude(oe)
            * system.filter_o.amplitude(oo)
            * mode_function(
                q_A, oe, q_B, oo, system.geometry, system.pump, MODE_GAUSSIAN_APPROX
            )
        )
        assert abs(form.evaluate(oe, oo) - direct) <= 1e-12 * abs(direct)


def test_form_real_linear_term_vanishes_at_zero_momenta(system):
    # at q = 0 the surviving linear term is the purely imaginary phase
    # contribution, so only its real part can be required to vanish
    form = build_quadratic_form(
        qvec(), qvec(), EA, system.geometry, system.pump,
        system.filter_e, system.filter_o,
    )
    assert np.allclose(np.real(form.linear), 0.0, atol=1e-30)
    assert np.all(np.imag(form.linear) != 0.0)


def test_form_real_part_positive_definite_at_defaults(system):
    form = build_quadratic_form(
        qvec(qy=1e4), qvec(qy=1e4), EA, system.geometry, system.pump,
        system.filter_e, system.filter_o,
    )
    eigenvalues = np.linalg.eigvalsh(np.real(form.matrix))
    assert np.all(eigenvalues > 0.0)
    re_m = np.real(form.matrix)
    assert re_m[0, 0] > 0.0 and np.linalg.det(re_m) > 0.0


def test_form_batched_momenta_share_one_matrix(system):
    qy = np.linspace(-2e4, 2e4, 7)
    form = build_quadratic_form(
        qvec(qy=qy), qvec(qy=0.5 * qy), EA, system.geometry, system.pump,
        system.filter_e, system.filter_o,
    )
    assert form.matrix.shape == (2, 2)
    assert form.linear.shape == (7, 2)
    assert form.constant.shape == (7,)


# ---------------------------------------------------------------- closed forms

def test_separable_integral_value():
    a = 3.7e-26
    form = ComplexQuadraticForm(
        matrix=np.diag([2.0 * a, 2.0 * a]).astype(complex),
        linear=np.zeros(2, dtype=complex),
        constant=np.array(0.0, dtype=complex),
    )
    assert integrate_gaussian(form) == pytest.approx(math.pi / a, rel=1e-12)


def test_integral_scaling_law():
    rng = np.random.default_rng(23)
    base = np.array([[4.0, 1.0], [1.0, 3.0]], dtype=complex) * 1e-26
    form = ComplexQuadraticForm(
        matrix=base, linear=np.zeros(2, dtype=complex), constant=np.array(0.0, dtype=complex)
    )
    for scale in rng.uniform(0.5, 4.0, 5):
        scaled = ComplexQuadraticForm(
            matrix=scale * base,
            linear=np.zeros(2, dtype=complex),
            constant=np.array(0.0, dtype=complex),
        )
        assert integrate_gaussian(scaled) == pytest.approx(
            integrate_gaussian(form) / scale, rel=1e-12
        )


def test_non_positive_definite_form_raises():
    form = ComplexQuadraticForm(
        matrix=np.diag([-1.0, 1.0]).astype(complex),
        linear=np.zeros(2, dtype=complex),
        constant=np.array(0.0, dtype=complex),
    )
    with pytest.raises(DivergingIntegralError):
        integrate_gaussian(form)
    with pytest.raises(DivergingIntegralError):
        integrate_gaussian_antidiagonal(
            ComplexQuadraticForm(
                matrix=np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
                linear=np.zeros(2, dtype=complex),
                constant=np.array(0.0, dtype=complex),
            )
        )


def test_closed_form_matches_quadrature_on_sample_grid(system):
    offsets = np.linspace(-2e4, 2e4, 5)
    for qa in offsets:
        for qb in offsets:
            q_A, q_B = qvec(qy=float(qa)), qvec(qy=float(qb))
            closed = spatial_biphoton(q_A, q_B, system, EA, method="closed_form")
            quad = integrate_quadrature(q_A, q_B, system, EA, check_convergence=False)
            assert abs(closed - quad) <= 1e-6 * abs(closed)


def test_closed_form_matches_quadrature_with_gaussian_pump(gaussian_pump_system):
    system = gaussian_pump_system
    for qa, qb in ((0.0, 0.0), (1.5e4, 1.1e4), (-2e4, 0.6e4)):
        q_A, q_B = qvec(qy=qa), qvec(qy=qb)
        closed = spatial_biphoton(q_A, q_B, system, EA, method="closed_form")
        quad = integrate_quadrature(q_A, q_B, system, EA, check_convergence=False)
        assert abs(closed - quad) <= 1e-6 * abs(closed)


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
    closed = spatial_biphoton(q_A, q_B, sinc_system, EA, method="closed_form")
    quad = spatial_biphoton(q_A, q_B, sinc_system, EA, method="quadrature")
    assert np.array_equal(default, closed)
    assert np.all(np.abs(closed - quad) <= 1e-8 * np.abs(quad))


# ---------------------------------------------------------------- batched quadrature

def _reference_node_count(span, feature_scale, phase_rate, floor):
    n = floor
    if feature_scale > 0.0:
        n = max(n, int(math.ceil(2.5 * span / feature_scale)) + 1)
    if phase_rate > 0.0:
        n = max(n, int(math.ceil(4.0 * span * phase_rate / math.pi)) + 1)
    return n


def _reference_point(q_A, q_B, system, assignment, nodes, window_sigmas):
    """One point's integral, step-halving change and node count(s), as the unbatched rule."""
    geom, pump, mode = system.geometry, system.pump, system.mode
    filter_e, filter_o = system.filter_e, system.filter_o
    q_e, q_o = (q_A, q_B) if assignment is EA else (q_B, q_A)
    form = build_quadratic_form(q_A, q_B, assignment, geom, pump, filter_e, filter_o)
    if pump.spectral_mode == "monochromatic":
        m = form.matrix
        m_line = float(np.real(m[0, 0] - m[0, 1] - m[1, 0] + m[1, 1]))
        b_line = complex(form.linear[0] - form.linear[1])
        center = b_line.real / m_line
        product_sigma = 1.0 / math.sqrt(m_line)
        pair_sigma = 1.0 / math.sqrt(
            2.0 * (1.0 / (4.0 * filter_e.sigma**2) + 1.0 / (4.0 * filter_o.sigma**2))
        )
        lo = min(-window_sigmas * pair_sigma, center - window_sigmas * product_sigma)
        hi = max(window_sigmas * pair_sigma, center + window_sigmas * product_sigma)
        n = _reference_node_count(hi - lo, product_sigma, abs(b_line.imag), nodes)

        def evaluate(num):
            omega = np.linspace(lo, hi, num)
            integrand = (
                filter_e.amplitude(omega)
                * filter_o.amplitude(-omega)
                * mode_function(q_e, omega, q_o, -omega, geom, pump, mode)
            )
            return np.trapezoid(integrand, omega), np.trapezoid(np.abs(integrand), omega)

        coarse, _ = evaluate(n)
        fine, magnitude = evaluate(2 * n - 1)
        return fine, _reference_change(fine, coarse, magnitude), n
    re_m = np.real(form.matrix)
    center = np.linalg.solve(re_m, np.real(form.linear))
    sigma_product = np.sqrt(np.diag(np.linalg.inv(re_m)))
    filter_sigmas = np.array([math.sqrt(2.0) * filter_e.sigma, math.sqrt(2.0) * filter_o.sigma])
    lo = np.minimum(-window_sigmas * filter_sigmas, center - window_sigmas * sigma_product)
    hi = np.maximum(window_sigmas * filter_sigmas, center + window_sigmas * sigma_product)
    phase_rates = np.abs(np.imag(form.linear))
    counts = tuple(
        _reference_node_count(hi[i] - lo[i], sigma_product[i], phase_rates[i], nodes)
        for i in (0, 1)
    )

    def evaluate(num_scale):
        axes = [np.linspace(lo[i], hi[i], (counts[i] - 1) * num_scale + 1) for i in (0, 1)]
        o_e, o_o = np.meshgrid(axes[0], axes[1], indexing="ij")
        integrand = (
            filter_e.amplitude(o_e)
            * filter_o.amplitude(o_o)
            * mode_function(q_e, o_e, q_o, o_o, geom, pump, mode)
        )
        value = np.trapezoid(np.trapezoid(integrand, axes[1], axis=1), axes[0])
        scale = np.trapezoid(np.trapezoid(np.abs(integrand), axes[1], axis=1), axes[0])
        return value, scale

    coarse, _ = evaluate(1)
    fine, magnitude = evaluate(2)
    return fine, _reference_change(fine, coarse, magnitude), counts


def _reference_change(fine, coarse, magnitude):
    denom = max(abs(fine), 1e-9 * magnitude)
    return abs(fine - coarse) / denom if denom > 0.0 else 0.0


def reference_quadrature(q_A, q_B, system, assignment, nodes=201, window_sigmas=6.0):
    """The quadrature trace one point at a time: the loop the batched path replaced.

    Returns the amplitudes, the relative change when the step is halved and
    the list of per-point node counts.
    """
    qx_a, qy_a, qx_b, qy_b = np.broadcast_arrays(q_A.qx, q_A.qy, q_B.qx, q_B.qy)
    amplitude = np.empty(qx_a.shape, dtype=complex)
    change = np.empty(qx_a.shape)
    counts = []
    for index in np.ndindex(amplitude.shape):
        amplitude[index], change[index], n = _reference_point(
            TransverseWavevector(qx=float(qx_a[index]), qy=float(qy_a[index])),
            TransverseWavevector(qx=float(qx_b[index]), qy=float(qy_b[index])),
            system, assignment, nodes, window_sigmas,
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
    lam_a = system.fourier.wavelength_at("A", assignment)
    lam_b = system.fourier.wavelength_at("B", assignment)
    grid_a, grid_b = np.meshgrid(
        system.fourier.position_to_momentum(np.linspace(*plan.range_a, points), lam_a),
        system.fourier.position_to_momentum(np.linspace(*plan.range_b, points), lam_b),
        indexing="ij",
    )
    return _momentum_pair(axis, assignment, orthogonal, system, grid_a, grid_b)


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_batched_quadrature_matches_pointwise_reference(sinc_system, axis, assignment):
    q_A, q_B = scan_momenta(sinc_system, axis, assignment, 16)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, assignment)
    actual = spatial_biphoton(q_A, q_B, sinc_system, assignment, method="quadrature")
    assert actual.shape == (16, 16)
    assert np.array_equal(actual, expected)


def test_batched_quadrature_with_orthogonal_offset(sinc_system):
    q_A, q_B = scan_momenta(sinc_system, "x", OA, 10, orthogonal=1e-3)
    assert np.all(q_A.qy != 0.0)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, OA)
    actual = spatial_biphoton(q_A, q_B, sinc_system, OA, method="quadrature")
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("chunk_cells", [trace_module.QUADRATURE_CHUNK_CELLS, 1500])
def test_batched_quadrature_chunk_remainders(sinc_system, monkeypatch, chunk_cells):
    q_A, q_B = scan_momenta(sinc_system, "y", EA, 8)
    q_A = TransverseWavevector(qx=q_A.qx, qy=q_A.qy[:7, :])  # 7 x 8 = 56 points
    q_B = TransverseWavevector(qx=q_B.qx, qy=q_B.qy[:7, :])
    expected, _, counts = reference_quadrature(q_A, q_B, sinc_system, EA)
    rows = {n: max(1, chunk_cells // (2 * n - 1)) for n in counts}
    assert any(counts.count(n) % rows[n] for n in rows)  # some chunk is partial
    monkeypatch.setattr(trace_module, "QUADRATURE_CHUNK_CELLS", chunk_cells)
    actual = spatial_biphoton(q_A, q_B, sinc_system, EA, method="quadrature")
    assert np.array_equal(actual, expected)


def test_batched_quadrature_mixes_node_count_groups(sinc_system):
    q_A, q_B = scan_momenta(sinc_system, "y", EA, 12)
    expected, _, counts = reference_quadrature(q_A, q_B, sinc_system, EA, nodes=9)
    assert len(set(counts)) > 1
    actual = integrate_quadrature(
        q_A, q_B, sinc_system, EA, nodes=9, check_convergence=False
    )
    assert np.array_equal(actual, expected)


def test_batched_quadrature_pulsed_grid(gaussian_pump_system):
    pulsed = replace(gaussian_pump_system, mode="exact_sinc")
    qy = np.linspace(-2e4, 2e4, 4)
    q_A = TransverseWavevector(qx=3e3, qy=qy[:, np.newaxis])
    q_B = TransverseWavevector(qx=-1e3, qy=0.9 * qy[np.newaxis, :])
    expected, _, _ = reference_quadrature(q_A, q_B, pulsed, OA)
    actual = spatial_biphoton(q_A, q_B, pulsed, OA, method="quadrature")
    assert actual.shape == (4, 4)
    assert np.array_equal(actual, expected)


def test_quadrature_scalar_input_returns_scalar(sinc_system):
    q_A, q_B = qvec(qx=2e3, qy=1e4), qvec(qy=0.8e4)
    value = integrate_quadrature(q_A, q_B, sinc_system, EA)
    assert np.ndim(value) == 0 and isinstance(value, complex)
    expected, _, _ = reference_quadrature(q_A, q_B, sinc_system, EA)
    assert value == expected[()]


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
        spatial_biphoton(q_A, q_B, wide, EA, method="quadrature")
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


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_depth_closed_form_matches_fine_trapezoid(sinc_system, axis, assignment):
    q_A, q_B = scan_momenta(sinc_system, axis, assignment, 16)
    trapezoid = integrate_quadrature(q_A, q_B, sinc_system, assignment, nodes=402)
    depth = spatial_biphoton(q_A, q_B, sinc_system, assignment)
    assert np.all(np.abs(depth - trapezoid) <= 1e-8 * np.abs(trapezoid))


@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
def test_depth_closed_form_matches_pulsed_trapezoid(pulsed_sinc_system, assignment):
    qy = np.linspace(-2e4, 2e4, 4)
    q_A = TransverseWavevector(qx=3e3, qy=qy[:, np.newaxis])
    q_B = TransverseWavevector(qx=-1e3, qy=0.9 * qy[np.newaxis, :])
    trapezoid = integrate_quadrature(q_A, q_B, pulsed_sinc_system, assignment)
    depth = spatial_biphoton(q_A, q_B, pulsed_sinc_system, assignment)
    assert np.all(np.abs(depth - trapezoid) <= 1e-12 * np.abs(trapezoid))


# ---------------------------------------------------------------- rates

def test_coincidence_rate_nonnegative_and_origin_peak(system):
    rate0 = coincidence_rate((0.0, 0.0), (0.0, 0.0), system, EA)
    assert rate0 > 0.0
    rng = np.random.default_rng(24)
    for _ in range(10):
        x_a = rng.uniform(-3e-3, 3e-3, 2)
        x_b = rng.uniform(-3e-3, 3e-3, 2)
        assert coincidence_rate(x_a, x_b, system, EA) >= 0.0


def test_rate_invariant_under_consistent_unit_rescaling(system):
    # express every length in km instead of m; the rate is dimensionless
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
    for x_a, x_b in (((0.0, 1e-3), (0.0, 0.8e-3)), ((0.5e-3, -0.2e-3), (0.0, 0.0))):
        si = coincidence_rate(x_a, x_b, system, EA)
        km = coincidence_rate(
            tuple(v * scale for v in x_a), tuple(v * scale for v in x_b), scaled, EA
        )
        assert km == pytest.approx(si, rel=1e-12)


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


@pytest.mark.parametrize(
    "shape, steps, diameter",
    [
        ((32, 32), (1e-4, 1e-4), 7.5e-4),  # both axes, square
        ((24, 41), (1e-4, 3e-5), 1.1e-3),  # non-square, unequal steps
        ((17, 9), (1e-4, 1e-3), 9e-4),  # taps == 0 along axis 1
        ((9, 33), (1e-3, 1e-4), 9e-4),  # taps == 0 along axis 0
        ((15, 15), (1e-4, 1e-4), 1.4e-3),  # widest aperture the span allows
    ],
)
def test_pinhole_matches_rolled_reference_bitwise(shape, steps, diameter):
    grid = np.random.default_rng(27).uniform(0.0, 1.0, shape)
    grid[0, 0] = -0.0
    expected = rolled_pinhole_reference(grid, steps, diameter)
    assert np.array_equal(pinhole_smooth(grid, steps, diameter), expected)
