import math
from dataclasses import replace

import numpy as np
import pytest

from spdcsim.analysis import (
    BracketError,
    DegenerateDistributionError,
    JointDistribution,
    ScanPlan,
    assignment_sensitivity,
    auto_plan,
    find_sign_transition,
    run_scan,
    summarize,
    waist_sweep,
    _gaussian_model_moments,
)
from spdcsim.config import default_config, resolve
from spdcsim.trace import DetectionAssignment, SpectralFilter

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
        normalized=False,
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
    grid_pearson = summarize(run_scan(wide, system, method="closed_form")).pearson
    assert grid_pearson == pytest.approx(model_pearson, abs=1e-4)


# ---------------------------------------------------------------- summarize

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


def test_transpose_maps_pearson_identically_and_reflects_angle():
    rng = np.random.default_rng(32)
    u = np.linspace(-2.0, 2.0, 41)
    grid = rng.uniform(0.0, 1.0, (41, 41))
    grid += 3.0 * np.exp(-((u[:, None] - 0.6 * u[None, :]) ** 2))
    original = summarize(synthetic_distribution(grid, u, u))
    flipped = summarize(synthetic_distribution(grid.T.copy(), u, u))
    assert flipped.pearson == original.pearson
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


# ---------------------------------------------------------------- sensitivity

def reference_assignment_sensitivity(
    axis, system, points=64, *, pinhole_diameter=0.0, method="closed_form"
):
    """Both assignments scanned and summarized separately: an auto window and a scan each."""
    summaries = {}
    for assignment in DetectionAssignment:
        plan = auto_plan(axis, assignment, system, points)
        dist = run_scan(plan, system, pinhole_diameter=pinhole_diameter, method=method)
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
    if kind == "asymmetric":
        system = replace(
            system,
            fourier=replace(system.fourier, wavelength_e=812e-9, wavelength_o=816e-9),
            filter_e=SpectralFilter.from_fwhm_nm(812.0, 5.0),
            filter_o=SpectralFilter.from_fwhm_nm(816.0, 3.0),
        )
    return system


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


def test_sign_transition_found_inside_bracket(system):
    plan = auto_plan("y", EA, system, 64)
    waist = find_sign_transition("y", 31e-6, 500e-6, 1e-6, system, plan=plan)
    assert 31e-6 < waist < 500e-6
    tighter = find_sign_transition("y", 31e-6, 500e-6, 1e-7, system, plan=plan)
    assert abs(tighter - waist) < 1e-6


def test_sign_transition_requires_straddling_bracket(system):
    plan = auto_plan("y", EA, system, 64)
    with pytest.raises(BracketError):
        find_sign_transition("y", 200e-6, 500e-6, 1e-6, system, plan=plan)


# ---------------------------------------------------------------- validation

def test_scan_plan_validation(system):
    with pytest.raises(ValueError, match="points"):
        ScanPlan(axis="y", assignment=EA, range_a=(-1e-3, 1e-3), range_b=(-1e-3, 1e-3), points=4)
    with pytest.raises(ValueError, match="axis"):
        ScanPlan(axis="z", assignment=EA, range_a=(-1e-3, 1e-3), range_b=(-1e-3, 1e-3), points=8)
    with pytest.raises(ValueError, match="range_a"):
        ScanPlan(axis="y", assignment=EA, range_a=(1e-3, -1e-3), range_b=(-1e-3, 1e-3), points=8)


def test_distribution_validation():
    u = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="negative"):
        synthetic_distribution(-np.ones((8, 8)), u, u)
    with pytest.raises(ValueError, match="positive"):
        synthetic_distribution(np.zeros((8, 8)), u, u)
    with pytest.raises(ValueError, match="shape"):
        synthetic_distribution(np.ones((8, 7)), u, u)
