"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. All scans use the default experimental
configuration (407 nm pump, 42 um x 31 um waists, 4 mm crystal cut at
42 deg, 6 deg external half-open angle, 814 nm / 5 nm filters, 750 mm
lenses, 2.0 mm pinholes).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spdcsim import (
    DetectionAssignment,
    TransverseWavevector,
    assignment_sensitivity,
    auto_plan,
    find_sign_transition,
    integrate_quadrature,
    mismatch_longitudinal,
    mismatch_transverse_y,
    mode_function,
    spatial_biphoton,
    summarize,
    waist_sweep,
)
from spdcsim.dispersion import index_extraordinary, walkoff_angle
from spdcsim.kernel import MODE_EXACT_SINC, MODE_GAUSSIAN_APPROX

from test_analysis import quadrature_scan

EA = DetectionAssignment.E_AT_A


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_y_scan_positive_for_both_assignments(default_run):
    start = time.perf_counter()
    comp = assignment_sensitivity(
        "y", default_run.system, points=64, pinhole_diameter=default_run.pinhole_diameter
    )
    elapsed = time.perf_counter() - start
    ok = comp.pearson_ea > 0.2 and comp.pearson_oa > 0.2 and elapsed < 60.0
    report(
        1,
        ok,
        f"y-scan pearson ea={comp.pearson_ea:+.4f}, oa={comp.pearson_oa:+.4f} "
        f"(> +0.2 required), runtime {elapsed:.2f} s (< 60 s)",
    )
    assert comp.pearson_ea > 0.2
    assert comp.pearson_oa > 0.2
    assert elapsed < 60.0


def test_criterion_2_x_scan_negative_and_orientation_sensitivity(default_run):
    x = assignment_sensitivity(
        "x", default_run.system, points=64, pinhole_diameter=default_run.pinhole_diameter
    )
    y = assignment_sensitivity(
        "y", default_run.system, points=64, pinhole_diameter=default_run.pinhole_diameter
    )
    x_diff_deg = math.degrees(x.angle_difference)
    y_diff_deg = math.degrees(y.angle_difference)
    clauses = {
        "x pearson ea < -0.2": x.pearson_ea < -0.2,
        "x pearson oa < -0.2": x.pearson_oa < -0.2,
        "x angle gap > 5 deg": x_diff_deg > 5.0,
        "y angle gap < 2 deg": y_diff_deg < 2.0,
    }
    report(
        2,
        all(clauses.values()),
        f"x pearson ea={x.pearson_ea:+.4f}, oa={x.pearson_oa:+.4f}; "
        f"x angle gap {x_diff_deg:.2f} deg (> 5 needed); "
        f"y angle gap {y_diff_deg:.2f} deg (< 2 needed)",
    )
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, f"failed clauses: {failed}"


def test_criterion_3_walkoff_ablation_removes_x_sensitivity(default_run):
    geom = replace(default_run.system.geometry, walkoff_pump=0.0, walkoff_e=0.0)
    ablated = replace(default_run.system, geometry=geom)
    assert ablated.geometry.emission_angle_e == ablated.geometry.emission_angle_o
    comp = assignment_sensitivity(
        "x", ablated, points=64, pinhole_diameter=default_run.pinhole_diameter
    )
    pearson_gap = abs(comp.pearson_ea - comp.pearson_oa)
    angle_gap = abs(comp.angle_ea - comp.angle_oa)
    ok = pearson_gap < 1e-6 and angle_gap < 1e-6
    report(
        3,
        ok,
        f"zero walk-off x-scan: |pearson gap|={pearson_gap:.2e}, "
        f"|angle gap|={angle_gap:.2e} rad (both < 1e-6)",
    )
    assert pearson_gap < 1e-6
    assert angle_gap < 1e-6


def test_criterion_4_waist_dependence_and_transition(default_run):
    system = default_run.system
    pinhole = default_run.pinhole_diameter
    plan = auto_plan("y", EA, system, 64)
    sweep = dict(
        waist_sweep("y", [31e-6, 500e-6], system, plan=plan, pinhole_diameter=pinhole)
    )
    transition = find_sign_transition(
        "y", 31e-6, 500e-6, 1e-6, system, plan=plan, pinhole_diameter=pinhole
    )
    fine_plan = auto_plan("y", EA, system, 128)
    transition_fine = find_sign_transition(
        "y", 31e-6, 500e-6, 1e-6, system, plan=fine_plan, pinhole_diameter=pinhole
    )
    drift = abs(transition_fine - transition) / transition
    ok = (
        sweep[31e-6] > 0.0
        and sweep[500e-6] < 0.0
        and 31e-6 < transition < 500e-6
        and drift < 0.05
    )
    report(
        4,
        ok,
        f"pearson(31 um)={sweep[31e-6]:+.4f} (>0), pearson(500 um)={sweep[500e-6]:+.4f} (<0); "
        f"transition {transition * 1e6:.2f} um inside [31, 500] to 1 um; "
        f"grid-doubling drift {drift * 100:.2f}% (< 5%)",
    )
    assert sweep[31e-6] > 0.0
    assert sweep[500e-6] < 0.0
    assert 31e-6 < transition < 500e-6
    assert drift < 0.05


def test_criterion_5_oracle_equivalence(default_run):
    system = default_run.system
    geom = system.geometry

    worst_integral = 0.0
    for qa in np.linspace(-2e4, 2e4, 5):
        for qb in np.linspace(-2e4, 2e4, 5):
            q_A = TransverseWavevector(qx=0.0, qy=float(qa))
            q_B = TransverseWavevector(qx=0.0, qy=float(qb))
            closed = spatial_biphoton(q_A, q_B, system, EA)
            quad = integrate_quadrature(q_A, q_B, system, EA, check_convergence=False)
            worst_integral = max(worst_integral, abs(closed - quad) / abs(closed))

    rng = np.random.default_rng(51)
    worst_mismatch = 0.0
    for _ in range(64):
        qex, qey, qox, qoy = rng.uniform(-8e4, 8e4, 4)
        oe, oo = rng.uniform(-2e13, 2e13, 2)
        q_e = TransverseWavevector(qx=qex, qy=qey)
        q_o = TransverseWavevector(qx=qox, qy=qoy)
        d1_ref = (
            qey * math.cos(geom.emission_angle_e)
            + qoy * math.cos(geom.emission_angle_o)
            - geom.group_slowness_e * oe * math.sin(geom.emission_angle_e)
            + geom.group_slowness_o * oo * math.sin(geom.emission_angle_o)
            - geom.walkoff_e * qex * math.sin(geom.emission_angle_e)
        )
        dk_ref = (
            geom.group_slowness_pump * (oe + oo)
            - geom.group_slowness_e * oe * math.cos(geom.emission_angle_e)
            - geom.group_slowness_o * oo * math.cos(geom.emission_angle_o)
            - qey * math.sin(geom.emission_angle_e)
            + qoy * math.sin(geom.emission_angle_o)
            + geom.walkoff_pump * (qex + qox)
            - geom.walkoff_e * qex * math.cos(geom.emission_angle_e)
        )
        d1 = mismatch_transverse_y(q_e, oe, q_o, oo, geom)
        dk = mismatch_longitudinal(q_e, oe, q_o, oo, geom)
        worst_mismatch = max(
            worst_mismatch,
            abs(d1 - d1_ref) / max(abs(d1_ref), 1e-300),
            abs(dk - dk_ref) / max(abs(dk_ref), 1e-300),
        )

    from spdcsim.dispersion import UniaxialCrystal, load_material

    crystal = UniaxialCrystal(sellmeier=load_material("bbo"), cut_angle=math.radians(42.0))
    step = 1e-6
    worst_walkoff = 0.0
    for theta_deg in range(5, 90, 5):
        theta = math.radians(theta_deg)
        n = index_extraordinary(crystal, 814e-9, theta)
        fd = -(
            index_extraordinary(crystal, 814e-9, theta + step)
            - index_extraordinary(crystal, 814e-9, theta - step)
        ) / (2 * step) / n
        worst_walkoff = max(worst_walkoff, abs(walkoff_angle(crystal, 814e-9, theta) - fd))

    ok = worst_integral <= 1e-6 and worst_mismatch <= 1e-12 and worst_walkoff <= 1e-8
    report(
        5,
        ok,
        f"closed-vs-quadrature {worst_integral:.2e} (<= 1e-6); "
        f"mismatch re-evaluation {worst_mismatch:.2e} (<= 1e-12); "
        f"walk-off vs finite difference {worst_walkoff:.2e} (<= 1e-8)",
    )
    assert worst_integral <= 1e-6
    assert worst_mismatch <= 1e-12
    assert worst_walkoff <= 1e-8


def test_criterion_6_sinc_approximation_contract(default_run):
    system = default_run.system
    geom = system.geometry

    qy = np.linspace(-6e4, 6e4, 4001)
    q_e = TransverseWavevector(qx=0.0, qy=qy)
    q_o = TransverseWavevector(qx=0.0, qy=0.0)
    half_phase = mismatch_longitudinal(q_e, 0.0, q_o, 0.0, geom) * geom.crystal_length / 2.0
    inside = np.abs(half_phase) < 0.3
    exact = mode_function(q_e, 0.0, q_o, 0.0, geom, system.pump, MODE_EXACT_SINC)
    approx = mode_function(q_e, 0.0, q_o, 0.0, geom, system.pump, MODE_GAUSSIAN_APPROX)
    worst_mode = float(
        np.max(np.abs(approx[inside] - exact[inside]) / np.abs(exact[inside]))
    )

    signs = {}
    for axis in ("x", "y"):
        for mode in (MODE_GAUSSIAN_APPROX, MODE_EXACT_SINC):
            moded = replace(system, mode=mode)
            plan = auto_plan(axis, EA, moded, 24)
            summary = summarize(quadrature_scan(plan, moded))
            signs[(axis, mode)] = math.copysign(1.0, summary.pearson)
    signs_agree = all(
        signs[(axis, MODE_GAUSSIAN_APPROX)] == signs[(axis, MODE_EXACT_SINC)]
        for axis in ("x", "y")
    )
    expected_orientation = signs[("y", MODE_EXACT_SINC)] > 0 > signs[("x", MODE_EXACT_SINC)]

    ok = worst_mode < 0.01 and signs_agree and expected_orientation
    report(
        6,
        ok,
        f"mode-function relative gap {worst_mode * 100:.3f}% (< 1% for |dk L/2| < 0.3); "
        f"quadrature sign pattern y:{signs[('y', MODE_EXACT_SINC)]:+.0f} "
        f"x:{signs[('x', MODE_EXACT_SINC)]:+.0f} matches gaussian mode: {signs_agree}",
    )
    assert worst_mode < 0.01
    assert signs_agree
    assert expected_orientation


def test_criterion_7_statistical_layer_recovers_known_pearson():
    eps, lam = 1.0, 9.0  # pearson (lam - eps) / (lam + eps) = 0.8
    sigma = math.sqrt((lam + eps) / 4.0)
    u = np.linspace(-5.0 * sigma, 5.0 * sigma, 256)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    grid = np.exp(-((uu - vv) ** 2) / (2.0 * eps) - (uu + vv) ** 2 / (2.0 * lam))
    from spdcsim.analysis import JointDistribution

    dist = JointDistribution(
        axis="y",
        assignment=EA,
        positions_a=u * 1e-7,
        positions_b=u * 1e-7,
        momenta_a=u,
        momenta_b=u,
        values=grid,
    )
    pearson = summarize(dist).pearson
    error = abs(pearson - 0.8)
    ok = error <= 1e-3
    report(7, ok, f"synthetic pearson {pearson:.6f}, |error| {error:.2e} (<= 1e-3)")
    assert error <= 1e-3
