import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spdcsim import analysis, trace
from spdcsim.analysis import (
    BracketError,
    CorrelationSummary,
    DegenerateDistributionError,
    JointDistribution,
    ScanPlan,
    _momentum_pair,
    assignment_sensitivity,
    auto_plan,
    find_sign_transition,
    run_scan,
    summarize,
    waist_sweep,
    _VARIANCE_RATIO_CAP,
    _gaussian_model_moments,
)
from spdcsim.config import default_config, resolve
from spdcsim.kernel import MODE_GAUSSIAN_APPROX, ParaxialWarning
from spdcsim.trace import (
    DetectionAssignment,
    SpectralFilter,
    _pinhole_boxes,
    biphoton_intensity,
    integrate_quadrature,
    pinhole_smooth,
    resolve_pair,
    spatial_biphoton,
)

EA = DetectionAssignment.E_AT_A
OA = DetectionAssignment.O_AT_A
PINHOLE = 2e-3  # m, the default config's pinhole


def synthetic_distribution(values, momenta_a, momenta_b):
    return JointDistribution(
        axis="y",
        assignment=EA,
        positions_a=momenta_a * 1e-7,
        positions_b=momenta_b * 1e-7,
        momenta_a=momenta_a,
        momenta_b=momenta_b,
        values=values,
    )


# ---------------------------------------------------------------- run_scan

def test_small_scan_is_nonnegative(system):
    plan = ScanPlan(
        axis="y", assignment=EA, range_a=(-4e-3, 4e-3), range_b=(-4e-3, 4e-3), points=8
    )
    dist = run_scan(plan, system)
    assert dist.values.shape == (8, 8)
    assert np.all(dist.values >= 0.0)
    assert dist.values.max() == 1.0


def test_scan_peak_sits_on_grid_maximum(system):
    plan = auto_plan("y", EA, system, 32)
    dist = run_scan(plan, system)
    summary = summarize(dist)
    i, j = np.unravel_index(np.argmax(dist.values), dist.values.shape)
    assert summary.peak == (dist.momenta_a[i], dist.momenta_b[j])
    # auto window centers on the beam axis, so the peak sits within a cell of q = 0
    cell = dist.momenta_a[1] - dist.momenta_a[0]
    assert abs(summary.peak[0]) <= 1.5 * cell
    assert abs(summary.peak[1]) <= 1.5 * cell


def test_default_y_scan_shows_elongated_positive_ridge(system):
    plan = auto_plan("y", EA, system, 64)
    summary = summarize(run_scan(plan, system))
    assert summary.pearson > 0.2
    eigenvalues = np.linalg.eigvalsh(summary.covariance)
    assert eigenvalues[1] / eigenvalues[0] > 2.0
    assert math.radians(30.0) < summary.principal_angle < math.radians(60.0)


def test_default_x_scan_is_anticorrelated(system):
    plan = auto_plan("x", EA, system, 64)
    summary = summarize(run_scan(plan, system))
    assert summary.pearson < -0.2


def test_exact_sinc_quadrature_scan_runs(system):
    sinc_system = replace(system, mode="exact_sinc")
    plan = auto_plan("y", EA, sinc_system, 8)
    dist = run_scan(plan, sinc_system)
    assert np.all(dist.values >= 0.0)
    assert summarize(dist).pearson > 0.0


# The default config's ea auto windows at 64^2 (half-widths in m of the
# centred ranges of detectors A and B), as the SkylakeX kernel gives them.
# auto_plan's eigh moves them by an ulp on some BLAS kernels, so the rates
# are pinned on these fixed plans.
PINNED_WINDOWS = {
    "y": (0.005412172728792198, 0.005101786256980501),
    "x": (0.008357658579624661, 0.004008014264519482),
}
# sha256 of run_scan(...).values.tobytes() on those plans with no pinhole:
# the Gaussian-mode rates to the bit. The CSV goldens print 12 significant
# digits, so they do not pin the last bits.
RATE_DIGESTS = {
    "y": "30b8bc6dcc04721523242757409d350dbde89afe053e49eb56a08f164d14d06c",
    "x": "5e22cbbdc98813cda7d4a021bd8dc2acecb6c5683624394a1ea1a17a9dfc8957",
}
RATE_DIGEST_SCRIPT = f"""\
import hashlib, spdcsim
system = spdcsim.resolve(spdcsim.default_config()).system
for axis, (half_a, half_b) in {PINNED_WINDOWS!r}.items():
    plan = spdcsim.ScanPlan(axis, spdcsim.DetectionAssignment.E_AT_A,
                            (-half_a, half_a), (-half_b, half_b), 64)
    print(axis, hashlib.sha256(spdcsim.run_scan(plan, system).values.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", [None, "Sandybridge"])
def test_gaussian_scan_rates_are_pinned_to_the_bit(coretype):
    # OpenBLAS reads OPENBLAS_CORETYPE once, when numpy is imported, so each
    # run is a fresh process: on the kernel picked for this CPU, and on the
    # Sandybridge kernel. Where OpenBLAS has no run-time dispatch, or numpy
    # uses another BLAS, the variable is ignored.
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = {
        **{k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"},
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", RATE_DIGEST_SCRIPT], env=env, check=True,
                          capture_output=True, text=True)
    assert dict(line.split() for line in proc.stdout.splitlines()) == RATE_DIGESTS


# ---------------------------------------------------------------- auto window

def test_auto_window_follows_orthogonal_offset(system):
    # the model's covariance does not depend on the offset and the window
    # moves with its mean, so the sampled shape and its statistic are unchanged
    pearson = [
        summarize(
            run_scan(
                auto_plan("y", EA, system, 64, orthogonal=offset),
                system,
                pinhole_diameter=2e-3,
            )
        ).pearson
        for offset in (0.0, 1e-3)
    ]
    assert pearson[1] == pytest.approx(pearson[0], abs=1e-9)


@pytest.mark.parametrize("axis", ["y", "x"])
def test_model_moments_match_wide_fine_scan(system, axis):
    _, covariance = _gaussian_model_moments(axis, EA, system)
    model_pearson = covariance[0, 1] / math.sqrt(covariance[0, 0] * covariance[1, 1])
    auto = auto_plan(axis, EA, system, 256)
    # twice the auto window about its centre: truncation then costs < 1e-4
    wide = replace(
        auto,
        range_a=tuple(2.0 * np.asarray(auto.range_a) - np.mean(auto.range_a)),
        range_b=tuple(2.0 * np.asarray(auto.range_b) - np.mean(auto.range_b)),
    )
    grid_pearson = summarize(run_scan(wide, system)).pearson
    assert grid_pearson == pytest.approx(model_pearson, abs=1e-4)


def six_point_model_moments(axis, assignment, system, orthogonal=0.0):
    """Gaussian-model moments from central differences of the traced log-intensity.

    2 log|A| of the Gaussian mode's closed-form amplitude is sampled at six
    detector-momentum pairs, and a step h recovers the gradient and Hessian
    of that exact quadratic, with the library's cap on ridge variances.
    """
    h = 1.0e4  # rad/m; any value works on an exact quadratic, this one conditions well
    q_a = np.array([0.0, h, -h, 0.0, 0.0, h])
    q_b = np.array([0.0, 0.0, 0.0, h, -h, h])
    q_A, q_B = _momentum_pair(axis, assignment, orthogonal, system, q_a, q_b)
    model = replace(system, mode=MODE_GAUSSIAN_APPROX)
    amplitude = spatial_biphoton(q_A, q_B, model, assignment)
    e00, ep0, em0, e0p, e0m, epp = 2.0 * np.log(np.abs(amplitude))
    gradient = np.array([ep0 - em0, e0p - e0m]) / (2.0 * h)
    cross = -(epp - ep0 - e0p + e00)
    precision = np.array(
        [[-(ep0 + em0 - 2.0 * e00), cross], [cross, -(e0p + e0m - 2.0 * e00)]]
    ) / h**2
    eigenvalues, vectors = np.linalg.eigh(precision)
    eigenvalues = np.maximum(eigenvalues, eigenvalues.max() / _VARIANCE_RATIO_CAP)
    covariance = vectors @ np.diag(1.0 / eigenvalues) @ vectors.T
    return covariance @ gradient, covariance


def model_system(kind):
    """A ``relabel_system`` kind, a 500 um pump waist or a collinear geometry.

    The 500 um waist makes the ridge cap fire on both axes; the collinear
    geometry (phi_e = phi_o = 0) leaves the y scan a pure ridge.
    """
    if kind in ("cw", "pulsed", "asymmetric"):
        return relabel_system(kind, MODE_GAUSSIAN_APPROX)
    system = relabel_system("cw", MODE_GAUSSIAN_APPROX)
    if kind == "waist_500um":
        return system.with_isotropic_waist(500e-6)
    collinear = replace(system.geometry, emission_angle_e=0.0, emission_angle_o=0.0)
    return replace(system, geometry=collinear)


@pytest.mark.parametrize("orthogonal", [0.0, 1e-3])
@pytest.mark.parametrize("assignment", [EA, OA])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric", "waist_500um", "collinear"])
def test_model_moments_match_six_point_difference(kind, axis, assignment, orthogonal):
    system = model_system(kind)
    mean, covariance = _gaussian_model_moments(axis, assignment, system, orthogonal)
    ref_mean, ref_covariance = six_point_model_moments(axis, assignment, system, orthogonal)
    # measured worst cases: 3.2e-13 of the largest entry, 2.2e-14 of a model width
    assert np.max(np.abs(covariance - ref_covariance)) <= 1e-12 * np.max(np.abs(ref_covariance))
    assert np.all(np.abs(mean - ref_mean) <= 1e-13 * np.sqrt(np.diag(ref_covariance)))


# ---------------------------------------------------------------- summarize

def test_peak_is_first_near_maximal_cell_in_c_order():
    # a point-symmetric grid whose two mirror maxima differ by one ulp, the
    # later cell in C order being the larger: the earlier one is the peak
    u = np.linspace(-2.0, 2.0, 21)
    bump = np.exp(-((u[:, None] - 1.0) ** 2 + (u[None, :] - 0.6) ** 2))
    grid = bump + bump[::-1, ::-1]
    first, later = np.flatnonzero(grid == grid.max())
    grid.flat[later] = np.nextafter(grid.flat[later], np.inf)
    assert np.argmax(grid) == later
    i, j = np.unravel_index(first, grid.shape)
    assert summarize(synthetic_distribution(grid, u, u)).peak == (u[i], u[j])


def test_separable_gaussian_has_zero_correlation():
    u = np.linspace(-5.0, 5.0, 101)
    grid = np.exp(-(u[:, None] ** 2 + u[None, :] ** 2))
    summary = summarize(synthetic_distribution(grid, u, u))
    assert abs(summary.pearson) < 1e-10


def test_known_gaussian_correlation_recovered_to_micro_precision():
    # exp[-(u-v)^2/(2 eps) - (u+v)^2/(2 lam)] has pearson (lam-eps)/(lam+eps)
    eps, lam = 1.0, 9.0
    sigma = math.sqrt((lam + eps) / 4.0)
    u = np.linspace(-8.0 * sigma, 8.0 * sigma, 512)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    grid = np.exp(-((uu - vv) ** 2) / (2.0 * eps) - (uu + vv) ** 2 / (2.0 * lam))
    summary = summarize(synthetic_distribution(grid, u, u))
    assert summary.pearson == pytest.approx(0.8, abs=1e-6)


def test_pearson_bounded_on_random_grids():
    rng = np.random.default_rng(31)
    u = np.linspace(-1.0, 1.0, 33)
    for _ in range(25):
        grid = rng.uniform(0.0, 1.0, (33, 33))
        summary = summarize(synthetic_distribution(grid, u, u))
        assert -1.0 <= summary.pearson <= 1.0
        assert -math.pi / 2 < summary.principal_angle <= math.pi / 2


@pytest.mark.parametrize("seed", range(10))
def test_transpose_maps_pearson_within_rounding_and_reflects_angle(seed):
    # the transposed copy adds the same cells in another order, so the two
    # Pearson values may differ in the last bits: up to 7.4e-16 relative on
    # 200 such grids
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 80))
    u = np.linspace(-2.0, 2.0, n)
    grid = rng.uniform(0.0, 1.0, (n, n))
    grid += 3.0 * np.exp(-((u[:, None] - 0.6 * u[None, :]) ** 2))
    original = summarize(synthetic_distribution(grid, u, u))
    flipped = summarize(synthetic_distribution(grid.T.copy(), u, u))
    assert flipped.pearson == pytest.approx(original.pearson, rel=1e-15, abs=0.0)
    reflected = math.pi / 2 - original.principal_angle
    if reflected > math.pi / 2:
        reflected -= math.pi
    assert flipped.principal_angle == pytest.approx(reflected, abs=1e-12)


def test_single_row_support_is_degenerate():
    u = np.linspace(-1.0, 1.0, 16)
    grid = np.zeros((16, 16))
    grid[7, :] = 1.0
    with pytest.raises(DegenerateDistributionError):
        summarize(synthetic_distribution(grid, u, u))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("line", ["row", "column"])
def test_support_on_one_line_is_degenerate_for_any_weights(line, seed):
    # unequal weights on unevenly spaced nodes: the marginal over its own sum
    # is exactly 1 on the line, so the variance across it is exactly 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    u = np.sort(rng.uniform(-3.0, 3.0, n))
    grid = np.zeros((n, n))
    k = int(rng.integers(n))
    if line == "row":
        grid[k, :] = rng.uniform(0.0, 1.0, n)
    else:
        grid[:, k] = rng.uniform(0.0, 1.0, n)
    with pytest.raises(DegenerateDistributionError, match="zero variance"):
        summarize(synthetic_distribution(grid, u, u))


def test_pearson_survives_variances_whose_product_underflows():
    # var_a = var_b = 8e-250, so var_a * var_b underflows to 0
    grid = np.full((2, 2), 1e-250)
    grid[0, 0] += 1.0
    u = np.array([-1.0, 1.0])
    summary = summarize(synthetic_distribution(grid, u, u))
    assert summary.pearson == pytest.approx(0.5, rel=1e-12)


def reference_summarize(dist):
    """Second moments summed over the whole normalized grid, cell by cell.

    The oracle for ``summarize``, which reads the same moments from the
    marginals and one matrix-vector product.
    """
    weights = np.asarray(dist.values, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("distribution has zero total weight")
    weights = weights / total
    qa = np.asarray(dist.momenta_a)[:, np.newaxis]
    qb = np.asarray(dist.momenta_b)[np.newaxis, :]
    mean_a = float((weights * qa).sum())
    mean_b = float((weights * qb).sum())
    var_a = float((weights * (qa - mean_a) ** 2).sum())
    var_b = float((weights * (qb - mean_b) ** 2).sum())
    cov_ab = float((weights * (qa - mean_a) * (qb - mean_b)).sum())
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateDistributionError(
            "zero variance along a scan axis; correlation is undefined"
        )
    pearson = cov_ab / math.sqrt(var_a * var_b)
    angle = 0.5 * math.atan2(2.0 * cov_ab, var_a - var_b)
    peak_cells = dist.values >= (1.0 - 1e-12) * dist.values.max()
    i_peak, j_peak = np.unravel_index(np.argmax(peak_cells), dist.values.shape)
    return CorrelationSummary(
        pearson=pearson,
        covariance=np.array([[var_a, cov_ab], [cov_ab, var_b]]),
        principal_angle=angle,
        peak=(float(dist.momenta_a[i_peak]), float(dist.momenta_b[j_peak])),
    )


def assert_summaries_agree(got, want, rel=1e-13):
    """Pearson to rel, each variance to rel of itself, the covariance to rel
    of sqrt(var_a var_b), the angle to the error those allow, the peak exactly."""
    (var_a, cov_ab), (_, var_b) = want.covariance
    assert got.covariance[0, 0] == pytest.approx(var_a, rel=rel, abs=0.0)
    assert got.covariance[1, 1] == pytest.approx(var_b, rel=rel, abs=0.0)
    assert got.covariance[0, 1] == got.covariance[1, 0]
    assert abs(got.covariance[0, 1] - cov_ab) <= rel * math.sqrt(var_a * var_b)
    assert abs(got.pearson - want.pearson) <= rel  # |pearson| <= 1
    # the axis is set to within rel (var_a + var_b) / eigenvalue gap, modulo pi
    gap = math.hypot(var_a - var_b, 2.0 * cov_ab)
    turn = (got.principal_angle - want.principal_angle + math.pi / 2) % math.pi - math.pi / 2
    assert gap == 0.0 or abs(turn) <= rel * (var_a + var_b) / gap
    assert got.peak == want.peak


# cells: zeros, tiny values, unit-scale values and cells up to 1e6; no
# value lies below 1e-100, so that var_a * var_b cannot underflow
GRID_CELLS = st.one_of(
    st.just(0.0),
    st.floats(1e-100, 1e-80),
    st.floats(1e-3, 1.0),
    st.floats(1.0, 1e6),
)


@settings(max_examples=300, deadline=None, derandomize=True)  # the same examples every run
@given(
    grid=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=24),
        elements=GRID_CELLS,
    ),
    peak=st.one_of(st.just(0.0), st.floats(1.0, 1e8)),
    where=st.integers(0, 24 * 24 - 1),
    offset=st.floats(-5.0, 5.0),
)
def test_summarize_matches_cell_by_cell_reference(grid, peak, where, offset):
    grid.flat[where % grid.size] += peak  # a single-cell peak over the rest
    u = offset + np.linspace(-1.0, 1.0, grid.shape[0])
    v = np.linspace(-2.0, 0.5, grid.shape[1]) ** 3
    rows, columns = np.nonzero(grid)
    if rows.size == 0:
        return  # JointDistribution rejects a grid with no positive cell
    dist = synthetic_distribution(grid, u, v)
    if len(set(rows)) < 2 or len(set(columns)) < 2:
        # the reference can leave a rounding residue here instead of raising
        with pytest.raises(DegenerateDistributionError):
            summarize(dist)
        return
    want = reference_summarize(dist)
    # a mean rounded by delta ~ 1e-16 |q| adds delta^2 to a variance: below
    # 1e-16 q^2 that residue, not the grid, sets the reference's variance
    (var_a, _), (_, var_b) = want.covariance
    assume(var_a >= 1e-16 * np.max(u**2) and var_b >= 1e-16 * np.max(v**2))
    assert_summaries_agree(summarize(dist), want)


def test_summarize_is_bitwise_repeatable(system):
    # the covariance's matrix-vector product runs in BLAS, which may split
    # it across threads; the summary must not depend on how
    dist = run_scan(auto_plan("x", EA, system, 512), system, pinhole_diameter=PINHOLE)
    first, second = summarize(dist), summarize(dist)
    assert np.array_equal(first.covariance, second.covariance)
    assert (first.pearson, first.principal_angle, first.peak) == (
        second.pearson, second.principal_angle, second.peak
    )


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("axis", ["y", "x"])
def test_summarize_matches_reference_on_scans(system, axis, pinhole):
    dist = run_scan(auto_plan(axis, EA, system, 128), system, pinhole_diameter=pinhole)
    assert_summaries_agree(summarize(dist), reference_summarize(dist))


# ---------------------------------------------------------------- sensitivity

def reference_assignment_sensitivity(axis, system, points=64, *, pinhole_diameter=0.0):
    """Both assignments scanned and summarized separately: an auto window and a scan each."""
    summaries = {}
    for assignment in DetectionAssignment:
        plan = auto_plan(axis, assignment, system, points)
        dist = run_scan(plan, system, pinhole_diameter=pinhole_diameter)
        summaries[assignment] = summarize(dist)
    return (
        summaries[EA].pearson,
        summaries[OA].pearson,
        summaries[EA].principal_angle,
        summaries[OA].principal_angle,
    )


def relabel_system(kind, mode):
    """Resolved default system with a CW or 0.5 nm pump, optionally made e/o-asymmetric.

    ``asymmetric`` gives the photons different Fourier-plane wavelengths
    (812 and 816 nm) and different filters (5 and 3 nm FWHM) on top of the
    pulsed pump, so a detector-bound wavelength or filter would break the
    relabel.
    """
    config = default_config()
    if kind != "cw":
        config = replace(
            config, pump=replace(config.pump, spectral_mode="gaussian", spectral_fwhm_nm=0.5)
        )
    system = resolve(replace(config, mode=mode)).system
    return asymmetric(system) if kind == "asymmetric" else system


def asymmetric(system):
    """The system with unequal e and o wavelengths (812, 816 nm) and filters (5, 3 nm)."""
    return replace(
        system,
        fourier=replace(system.fourier, wavelength_e=812e-9, wavelength_o=816e-9),
        filter_e=SpectralFilter.from_fwhm_nm(812.0, 5.0),
        filter_o=SpectralFilter.from_fwhm_nm(816.0, 3.0),
    )


@pytest.mark.parametrize("orthogonal", [0.0, 1e-3])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode", ["gaussian_approx", "exact_sinc"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric"])
def test_oa_scan_is_the_ea_scan_with_detectors_swapped(kind, mode, axis, orthogonal):
    # assignment_sensitivity derives oa from the ea scan on this identity
    system = relabel_system(kind, mode)
    ea_plan = auto_plan(axis, EA, system, 24, orthogonal=orthogonal)
    oa_plan = auto_plan(axis, OA, system, 24, orthogonal=orthogonal)
    assert (oa_plan.range_a, oa_plan.range_b) == (ea_plan.range_b, ea_plan.range_a)
    ea = run_scan(ea_plan, system, pinhole_diameter=PINHOLE)
    oa = run_scan(oa_plan, system, pinhole_diameter=PINHOLE)
    assert np.array_equal(oa.momenta_a, ea.momenta_b)
    assert np.array_equal(oa.momenta_b, ea.momenta_a)
    assert np.max(np.abs(oa.values - ea.values.T)) <= 1e-14 * ea.values.max()


def relabelled_summary(ea):
    """Summary of the ea grid with its detectors swapped, that is of the oa grid."""
    oa = replace(
        ea,
        assignment=OA,
        positions_a=ea.positions_b,
        positions_b=ea.positions_a,
        momenta_a=ea.momenta_b,
        momenta_b=ea.momenta_a,
        values=ea.values.T,
    )
    return summarize(oa)


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode", ["gaussian_approx", "exact_sinc"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric"])
def test_oa_statistics_from_ea_covariance_match_relabelled_summary(kind, mode, axis, pinhole):
    system = relabel_system(kind, mode)
    comp = assignment_sensitivity(axis, system, 32, pinhole_diameter=pinhole)
    ea = run_scan(auto_plan(axis, EA, system, 32), system, pinhole_diameter=pinhole)
    oracle = relabelled_summary(ea)
    assert comp.pearson_oa == comp.pearson_ea
    # summing the transposed grid reorders the additions: the oracle may sit an ulp off
    assert comp.pearson_oa == pytest.approx(oracle.pearson, rel=1e-15, abs=0.0)
    assert comp.angle_oa == pytest.approx(oracle.principal_angle, rel=1e-15, abs=0.0)


def plan_axes(plan, system):
    """Detector positions and momenta along a plan's two axes, as ``run_scan`` lays them out."""
    fourier = system.fourier
    wavelengths = resolve_pair(fourier.wavelength_e, fourier.wavelength_o, plan.assignment)
    positions = [np.linspace(*rng, plan.points) for rng in (plan.range_a, plan.range_b)]
    momenta = [fourier.position_to_momentum(x, lam) for x, lam in zip(positions, wavelengths)]
    return positions, momenta


def meshgrid_scan_values(plan, system):
    """Intensities of a scan traced on full N x N meshgrids of detector momenta."""
    grid_a, grid_b = np.meshgrid(*plan_axes(plan, system)[1], indexing="ij")
    q_A, q_B = _momentum_pair(plan.axis, plan.assignment, plan.orthogonal, system, grid_a, grid_b)
    return biphoton_intensity(q_A, q_B, system, plan.assignment)


def quadrature_scan(plan, system):
    """The trapezoid oracle's scan grid, divided by its peak.

    Momenta are laid out as ``run_scan`` lays them out, on broadcast axes
    through ``_momentum_pair``, and each cell is |``integrate_quadrature``|^2.
    """
    positions, momenta = plan_axes(plan, system)
    q_A, q_B = _momentum_pair(
        plan.axis, plan.assignment, plan.orthogonal, system,
        momenta[0][:, np.newaxis], momenta[1][np.newaxis, :],
    )
    values = np.abs(integrate_quadrature(q_A, q_B, system, plan.assignment)) ** 2
    return JointDistribution(
        axis=plan.axis,
        assignment=plan.assignment,
        positions_a=positions[0],
        positions_b=positions[1],
        momenta_a=momenta[0],
        momenta_b=momenta[1],
        values=values / values.max(),
    )


@pytest.mark.parametrize("orthogonal", [0.0, 1e-3])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode", ["exact_sinc"])  # Gaussian-mode scans: the two tests below
@pytest.mark.parametrize("kind", ["cw", "pulsed"])
def test_scan_on_broadcast_axes_matches_meshgrid_trace_bitwise(kind, mode, axis, orthogonal):
    system = relabel_system(kind, mode)
    plan = auto_plan(axis, EA, system, 24, orthogonal=orthogonal)
    dist = run_scan(plan, system, normalize=False)
    assert np.array_equal(dist.values, meshgrid_scan_values(plan, system))


@pytest.mark.parametrize("orthogonal", [0.0, 1e-3])
@pytest.mark.parametrize("assignment", [EA, OA], ids=["ea", "oa"])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric"])
def test_gaussian_scan_rates_match_intensity_on_auto_windows(kind, axis, assignment, orthogonal):
    # run_scan's rank-one sum against biphoton_intensity cell by cell;
    # measured worst case 4.3e-14
    system = relabel_system(kind, MODE_GAUSSIAN_APPROX)
    plan = auto_plan(axis, assignment, system, 48, orthogonal=orthogonal)
    got = run_scan(plan, system, normalize=False).values
    expected = meshgrid_scan_values(plan, system)
    assert np.max(np.abs(got - expected) / expected) <= 1e-13


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind", ["cw", "pulsed", "asymmetric"])
def test_gaussian_scan_rates_keep_the_zero_cells_of_8x_windows(kind, axis):
    # log-rates down to about -745 meet the exponential's underflow; measured
    # worst case on normal floats 5.7e-13
    system = relabel_system(kind, MODE_GAUSSIAN_APPROX)
    auto = auto_plan(axis, EA, system, 128)
    plan = replace(
        auto,
        range_a=tuple(8.0 * np.asarray(auto.range_a) - 7.0 * np.mean(auto.range_a)),
        range_b=tuple(8.0 * np.asarray(auto.range_b) - 7.0 * np.mean(auto.range_b)),
    )
    got = run_scan(plan, system, normalize=False).values
    expected = meshgrid_scan_values(plan, system)
    assert np.any(expected == 0.0)
    assert np.array_equal(got == 0.0, expected == 0.0)
    normal = expected >= np.finfo(float).tiny
    assert np.max(np.abs(got[normal] - expected[normal]) / expected[normal]) <= 1e-12


def test_quadrature_scan_on_broadcast_axes_matches_meshgrid_trace_bitwise(system):
    system = replace(system, mode="exact_sinc")
    plan = auto_plan("x", EA, system, 10, orthogonal=1e-3)
    dist = quadrature_scan(plan, system)
    grid_a, grid_b = np.meshgrid(dist.momenta_a, dist.momenta_b, indexing="ij")
    q_A, q_B = _momentum_pair(plan.axis, EA, plan.orthogonal, system, grid_a, grid_b)
    values = np.abs(integrate_quadrature(q_A, q_B, system, EA)) ** 2
    assert np.array_equal(dist.values, values / values.max())


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("mode, points", [("gaussian_approx", 64), ("exact_sinc", 32)])
def test_assignment_sensitivity_matches_two_scan_reference(system, mode, points, axis, pinhole):
    system = replace(system, mode=mode)
    comp = assignment_sensitivity(axis, system, points, pinhole_diameter=pinhole)
    expected = reference_assignment_sensitivity(axis, system, points, pinhole_diameter=pinhole)
    got = (comp.pearson_ea, comp.pearson_oa, comp.angle_ea, comp.angle_oa)
    assert got == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_y_axis_correlation_sign_is_assignment_insensitive(system):
    comp = assignment_sensitivity("y", system, points=48)
    assert comp.pearson_ea > 0.0
    assert comp.pearson_oa > 0.0
    assert math.copysign(1.0, comp.pearson_ea) == math.copysign(1.0, comp.pearson_oa)


def test_x_axis_orientation_is_assignment_sensitive(system):
    comp = assignment_sensitivity("x", system, points=48)
    assert comp.angle_difference > math.radians(5.0)


def test_walkoff_ablation_removes_x_sensitivity(system):
    geom = replace(system.geometry, walkoff_pump=0.0, walkoff_e=0.0)
    ablated = replace(system, geometry=geom)
    assert ablated.geometry.emission_angle_e == ablated.geometry.emission_angle_o
    comp = assignment_sensitivity("x", ablated, points=48)
    assert abs(comp.pearson_ea - comp.pearson_oa) < 1e-6
    assert abs(comp.angle_ea - comp.angle_oa) < 1e-6


def test_symmetric_configuration_insensitive_on_both_axes(system):
    # with no walk-off and equal emission angles the remaining e/o asymmetry
    # is the group-velocity split, which the y statistics absorb only as a
    # sub-1e-6 orientation shift on equal windows
    geom = replace(
        system.geometry,
        walkoff_pump=0.0,
        walkoff_e=0.0,
        group_slowness_e=system.geometry.group_slowness_o,
    )
    ablated = replace(system, geometry=geom)
    for axis in ("x", "y"):
        comp = assignment_sensitivity(axis, ablated, points=48)
        assert abs(comp.pearson_ea - comp.pearson_oa) < 1e-6
        assert abs(comp.angle_ea - comp.angle_oa) < 1e-6


# ---------------------------------------------------------------- stability

def test_pearson_stable_under_grid_doubling(system):
    coarse = summarize(run_scan(auto_plan("y", EA, system, 64), system)).pearson
    fine = summarize(run_scan(auto_plan("y", EA, system, 128), system)).pearson
    assert abs(fine - coarse) < 0.01


# ---------------------------------------------------------------- sweeps

def test_waist_sweep_signs_and_determinism(system):
    plan = auto_plan("y", EA, system, 64)
    first = waist_sweep("y", [31e-6, 500e-6], system, plan=plan)
    second = waist_sweep("y", [31e-6, 500e-6], system, plan=plan)
    assert first == second  # bitwise reproducible
    (w_small, p_small), (w_large, p_large) = first
    assert p_small > 0.0
    assert p_large < 0.0


def test_waist_sweep_rejects_nonpositive_waist(system):
    with pytest.raises(ValueError, match="positive"):
        waist_sweep("y", [0.0, 1e-4], system)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waist_sweep_rejects_non_finite_waist(system, bad):
    with pytest.raises(ValueError, match="waists must be finite"):
        waist_sweep("y", [31e-6, bad], system)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["waist_lo", "waist_hi", "tol"])
def test_sign_transition_rejects_non_finite_arguments(system, name, bad):
    args = {"waist_lo": 31e-6, "waist_hi": 500e-6, "tol": 1e-6, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        find_sign_transition("y", args["waist_lo"], args["waist_hi"], args["tol"], system)


def test_sign_transition_found_inside_bracket(system):
    plan = auto_plan("y", EA, system, 64)
    waist = find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan)
    assert 31e-6 < waist < 500e-6
    tighter = find_sign_transition("y", 31e-6, 500e-6, 1e-7, system, plan=plan)
    assert abs(tighter - waist) < 1e-6


def test_sign_transition_ends_below_the_float_spacing_of_the_bracket(system):
    # past about 55 halvings the midpoint equals an endpoint and the bracket
    # stops shrinking; the bisection must end there, not loop
    plan = auto_plan("y", EA, system, 64)
    waist = find_sign_transition("y", 31e-6, 500e-6, 1e-30, system, plan=plan)
    assert 31e-6 < waist < 500e-6
    coarse = find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan)
    assert abs(waist - coarse) < 1e-6


def reference_pearson_at(plan, system, waist, pinhole_diameter):
    """One whole ``run_scan`` and summary per waist: the smoothed grid's Pearson."""
    swept = system.with_isotropic_waist(waist)
    return summarize(run_scan(plan, swept, pinhole_diameter=pinhole_diameter)).pearson


def plan_boxes(plan, pinhole_diameter):
    """The ``_pinhole_boxes`` of a plan's grid, as a list."""
    if not pinhole_diameter:
        return []
    steps = [np.diff(np.linspace(*rng, plan.points)[:2])[0] for rng in (plan.range_a, plan.range_b)]
    return list(_pinhole_boxes(pinhole_diameter, steps, (plan.points, plan.points)))


def moments_pearson_at(plan, system, waist, pinhole_diameter):
    """One whole unnormalized ``run_scan`` per waist, read by ``_moments`` with the plan's boxes."""
    dist = run_scan(plan, system.with_isotropic_waist(waist), normalize=False)
    boxes = plan_boxes(plan, pinhole_diameter)
    return analysis._moments(dist.values, dist.momenta_a, dist.momenta_b, boxes)[0]


# the sweeps trace the plan once and redo only the pump's work per waist;
# every Pearson must equal the moments of a whole scan at that waist, bit
# for bit
SWEEP_CASES = [  # pump, mode, points per axis, waists per sweep
    ("cw", "gaussian_approx", 64, 12),
    ("pulsed", "gaussian_approx", 64, 12),
    ("cw", "exact_sinc", 16, 4),
]


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind, mode, points, count", SWEEP_CASES)
def test_waist_sweep_equals_one_scan_per_waist(kind, mode, points, count, axis, pinhole):
    system = relabel_system(kind, mode)
    plan = auto_plan(axis, EA, system, points)
    waists = np.linspace(31e-6, 500e-6, count)
    swept = waist_sweep(axis, waists, system, plan=plan, pinhole_diameter=pinhole)
    assert swept == [(w, moments_pearson_at(plan, system, w, pinhole)) for w in waists]


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("kind, mode, points", [case[:3] for case in SWEEP_CASES])
def test_sign_transition_evaluates_one_scan_per_waist(monkeypatch, kind, mode, points, pinhole):
    system = relabel_system(kind, mode)
    plan = auto_plan("y", EA, system, points)
    evaluations = []
    by_waist = analysis._pearson_by_waist

    def recording(*args):
        pearson_at = by_waist(*args)

        def recorded(waist):
            pearson = pearson_at(waist)
            evaluations.append((waist, pearson))
            return pearson

        return recorded

    monkeypatch.setattr(analysis, "_pearson_by_waist", recording)
    waist = find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan,
                                 pinhole_diameter=pinhole)
    assert 31e-6 < waist < 500e-6
    assert len(evaluations) > 2  # both endpoints and at least one midpoint
    for w, pearson in evaluations:
        assert pearson == moments_pearson_at(plan, system, w, pinhole)


def one_axis_plan(system, axis, points, smoothed):
    """An auto plan and a pinhole diameter with taps on grid axis ``smoothed`` only.

    The diameter is 1.5 steps of the other detector, so that detector gets
    no tap; the smoothed detector's range shrinks about its midpoint to a
    step of half the other's, so it gets one.
    """
    plan = auto_plan(axis, EA, system, points)
    ranges = [plan.range_a, plan.range_b]
    other = ranges[1 - smoothed]
    step = (other[1] - other[0]) / (points - 1)
    mid = 0.5 * sum(ranges[smoothed])
    half = 0.25 * step * (points - 1)
    ranges[smoothed] = (mid - half, mid + half)
    return replace(plan, range_a=ranges[0], range_b=ranges[1]), 1.5 * step


# Largest |sweep - summarize(run_scan(...))| in Pearson over these cases was
# 4.4e-16 (smoothed grid normalized to its peak against moments of the
# unnormalized grid): rounding only
MOMENTS_PEARSON_TOLERANCE = 2e-15


def assert_sweep_matches_the_smoothed_grid(axis, system, plan, pinhole, count):
    waists = np.linspace(31e-6, 500e-6, count)
    swept = waist_sweep(axis, waists, system, plan=plan, pinhole_diameter=pinhole)
    expected = [reference_pearson_at(plan, system, w, pinhole) for w in waists]
    assert [p for _, p in swept] == pytest.approx(expected, rel=0.0, abs=MOMENTS_PEARSON_TOLERANCE)


@pytest.mark.parametrize("pinhole", [0.0, PINHOLE])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind, mode, points, count", SWEEP_CASES)
def test_waist_sweep_matches_the_smoothed_grid(kind, mode, points, count, axis, pinhole):
    system = relabel_system(kind, mode)
    plan = auto_plan(axis, EA, system, points)
    assert_sweep_matches_the_smoothed_grid(axis, system, plan, pinhole, count)


@pytest.mark.parametrize("smoothed", [0, 1])
@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize("kind, mode, points, count", SWEEP_CASES)
def test_waist_sweep_matches_the_smoothed_grid_with_taps_on_one_axis(
    kind, mode, points, count, axis, smoothed
):
    system = relabel_system(kind, mode)
    plan, pinhole = one_axis_plan(system, axis, points, smoothed)
    assert [box_axis for box_axis, _, _ in plan_boxes(plan, pinhole)] == [smoothed]
    assert_sweep_matches_the_smoothed_grid(axis, system, plan, pinhole, count)


def test_sweeps_never_form_the_smoothed_grid(monkeypatch, system):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep formed the N^2 smoothed grid")

    monkeypatch.setattr(analysis, "pinhole_smooth", refuse)
    monkeypatch.setattr(trace, "pinhole_smooth", refuse)
    plan = auto_plan("y", EA, system, 32)
    with pytest.raises(AssertionError, match="smoothed grid"):
        run_scan(plan, system, pinhole_diameter=PINHOLE)  # the patch is live
    assert len(waist_sweep("y", [31e-6, 500e-6], system, plan=plan,
                           pinhole_diameter=PINHOLE)) == 2
    assert 31e-6 < find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan,
                                        pinhole_diameter=PINHOLE) < 500e-6


@pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
def test_moments_match_summarize_of_the_smoothed_grid(axes):
    rng = np.random.default_rng(11)
    u = np.linspace(-3.0, 2.0, 24)
    grid = rng.random((24, 24)) ** 4
    steps = (1e-4, 1e-4)
    boxes = [box for box in _pinhole_boxes(7.5e-4, steps, grid.shape) if box[0] in axes]
    smoothed = grid
    for axis, taps, box in boxes:
        smoothed = (box @ smoothed if axis == 0 else smoothed @ box) / (2 * taps + 1)
    want = summarize(synthetic_distribution(smoothed, u, u))
    pearson, var_a, var_b, cov_ab = analysis._moments(grid, u, u, boxes)
    got = np.array([[var_a, cov_ab], [cov_ab, var_b]])
    assert pearson == pytest.approx(want.pearson, rel=1e-14)
    assert np.allclose(got, want.covariance, rtol=1e-14, atol=0.0)
    if axes == (0, 1):
        full = summarize(synthetic_distribution(pinhole_smooth(grid, steps, 7.5e-4), u, u))
        assert pearson == pytest.approx(full.pearson, rel=1e-14)


def test_moments_reject_zero_variance_left_by_one_axis_box():
    # one cell: the box on axis 0 spreads it over rows, axis 1 keeps one column
    grid = np.zeros((16, 16))
    grid[5, 9] = 1.0
    u = np.linspace(-1.0, 1.0, 16)
    boxes = [box for box in _pinhole_boxes(7.5e-4, (1e-4, 1e-4), grid.shape) if box[0] == 0]
    with pytest.raises(DegenerateDistributionError, match="zero variance"):
        analysis._moments(grid, u, u, boxes)


def paraxial_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return sum(issubclass(w.category, ParaxialWarning) for w in caught)


def test_sweeps_warn_for_a_plan_past_the_paraxial_limit_once_per_call(system):
    # detectors out to 80 mm, past 0.1 f = 75 mm; the cells near the axis
    # keep the grid non-degenerate
    plan = ScanPlan("y", EA, (-80e-3, 80e-3), (-80e-3, 80e-3), 8)
    one_scan = paraxial_warnings(lambda: run_scan(plan, system))
    assert one_scan > 0
    waists = [31e-6, 40e-6, 50e-6]
    assert paraxial_warnings(lambda: waist_sweep("y", waists, system, plan=plan)) == one_scan
    assert paraxial_warnings(
        lambda: find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan)
    ) == one_scan


@pytest.mark.filterwarnings("error::spdcsim.kernel.ParaxialWarning")
def test_waist_sweep_rejects_an_all_zero_grid(system):
    plan = ScanPlan("y", EA, (70e-3, 71e-3), (-71e-3, -70e-3), 8)  # as for run_scan below
    for pinhole in (0.0, 5e-4):
        with pytest.raises(DegenerateDistributionError, match="all-zero grid"):
            waist_sweep("y", [31e-6, 500e-6], system, plan=plan, pinhole_diameter=pinhole)
        with pytest.raises(DegenerateDistributionError, match="all-zero grid"):
            find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan,
                                 pinhole_diameter=pinhole)


@pytest.mark.parametrize("diameter, message", [
    (20e-3, "exceeds the scan span"),
    (np.nan, "pinhole diameter must be finite"),
])
def test_sweeps_reject_a_bad_pinhole(system, diameter, message):
    plan = auto_plan("y", EA, system, 16)  # spans about 11 mm
    with pytest.raises(ValueError, match=message):
        waist_sweep("y", [31e-6, 500e-6], system, plan=plan, pinhole_diameter=diameter)
    with pytest.raises(ValueError, match=message):
        find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan,
                             pinhole_diameter=diameter)


@pytest.fixture(scope="module")
def y_plan(system):
    return auto_plan("y", EA, system, 32)


def test_waist_sweep_rejects_a_plan_on_another_axis(system, y_plan):
    with pytest.raises(ValueError, match="axis 'x' differs from the plan's axis 'y'"):
        waist_sweep("x", [40e-6], system, plan=y_plan)


def test_sign_transition_rejects_a_plan_on_another_axis(system, y_plan):
    with pytest.raises(ValueError, match="axis 'x' differs from the plan's axis 'y'"):
        find_sign_transition("x", 31e-6, 500e-6, 1e-6, system, plan=y_plan)


def test_waist_sweep_rejects_points_that_differ_from_the_plan(system, y_plan):
    with pytest.raises(ValueError, match="points=512 differs from the plan's 32 points"):
        waist_sweep("y", [40e-6], system, plan=y_plan, points=512)


def test_sign_transition_rejects_points_that_differ_from_the_plan(system, y_plan):
    with pytest.raises(ValueError, match="points=512 differs from the plan's 32 points"):
        find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=y_plan, points=512)


def test_waist_sweep_takes_the_plan_with_or_without_its_own_points(system, y_plan):
    with_points = waist_sweep("y", [40e-6], system, plan=y_plan, points=32)
    assert with_points == waist_sweep("y", [40e-6], system, plan=y_plan)
    # without a plan, points (64 by default) sizes the ea auto window
    assert waist_sweep("y", [40e-6], system) == waist_sweep(
        "y", [40e-6], system, plan=auto_plan("y", EA, system, 64)
    )


def test_sign_transition_requires_straddling_bracket(system):
    plan = auto_plan("y", EA, system, 64)
    with pytest.raises(BracketError):
        find_sign_transition("y", 200e-6, 500e-6, 1e-6, system, plan=plan)


@pytest.mark.parametrize("waist_lo, waist_hi", [(500e-6, 31e-6), (100e-6, 100e-6)])
def test_sign_transition_needs_waist_lo_below_waist_hi(system, waist_lo, waist_hi):
    with pytest.raises(ValueError, match="need waist_lo < waist_hi"):
        find_sign_transition("y", waist_lo, waist_hi, 1e-6, system)


@pytest.mark.filterwarnings("error::spdcsim.kernel.ParaxialWarning")
@pytest.mark.parametrize("axis", ["y", "x"])
def test_run_scan_rejects_an_all_zero_grid(system, axis):
    # detectors 70 mm off axis on opposite sides: inside the paraxial limit,
    # 0.1 f = 75 mm for the 750 mm lenses, but every rate underflows to 0
    plan = ScanPlan(axis, EA, (70e-3, 71e-3), (-71e-3, -70e-3), 8)
    with pytest.raises(DegenerateDistributionError, match="all-zero grid"):
        run_scan(plan, system)
    with pytest.raises(DegenerateDistributionError, match="all-zero grid"):
        run_scan(plan, system, normalize=False)


# ---------------------------------------------------------------- validation

def test_scan_plan_validation(system):
    with pytest.raises(ValueError, match="points"):
        ScanPlan(axis="y", assignment=EA, range_a=(-1e-3, 1e-3), range_b=(-1e-3, 1e-3), points=4)
    with pytest.raises(ValueError, match="axis"):
        ScanPlan(axis="z", assignment=EA, range_a=(-1e-3, 1e-3), range_b=(-1e-3, 1e-3), points=8)
    with pytest.raises(ValueError, match="range_a"):
        ScanPlan(axis="y", assignment=EA, range_a=(1e-3, -1e-3), range_b=(-1e-3, 1e-3), points=8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_rejects_non_finite_cells(bad):
    u = np.linspace(-1.0, 1.0, 8)
    values = np.ones((8, 8))
    values[3, 5] = bad
    values[0, 0] = -1.0  # a negative cell too: the non-finite check comes first
    with pytest.raises(ValueError, match="non-finite"):
        synthetic_distribution(values, u, u)


def test_distribution_rejects_one_negative_cell():
    u = np.linspace(-1.0, 1.0, 8)
    values = np.ones((8, 8))
    values[7, 2] = -1e-300
    with pytest.raises(ValueError, match="negative"):
        synthetic_distribution(values, u, u)


def test_distribution_accepts_negative_zero_cells():
    u = np.linspace(-1.0, 1.0, 8)
    values = np.ones((8, 8))
    values[::3, ::2] = -0.0
    dist = synthetic_distribution(values, u, u)
    assert np.signbit(dist.values).sum() == 12
    with pytest.raises(ValueError, match="no positive"):
        synthetic_distribution(np.full((8, 8), -0.0), u, u)


def test_distribution_validation():
    u = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="negative"):
        synthetic_distribution(-np.ones((8, 8)), u, u)
    with pytest.raises(ValueError, match="positive"):
        synthetic_distribution(np.zeros((8, 8)), u, u)
    with pytest.raises(ValueError, match="shape"):
        synthetic_distribution(np.ones((8, 7)), u, u)


@pytest.mark.parametrize("name", ["momenta_a", "momenta_b"])
def test_distribution_rejects_momenta_that_miss_their_positions(name):
    # summarize pairs each momentum with its positions' row or column of values
    u = np.linspace(-1.0, 1.0, 4)
    good = synthetic_distribution(np.ones((4, 4)), u, u)
    with pytest.raises(ValueError, match=name):
        replace(good, **{name: u[:3]})
