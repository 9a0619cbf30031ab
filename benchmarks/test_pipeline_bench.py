"""Timing of the scan pipeline: assignment comparison, scans, the pinhole filter, waist sweeps.

Run from the repository root (about 10 s on a 2-vCPU Xeon VM), writing the
run elsewhere and then appending its rows, tagged, to the committed file
(``--benchmark-json BENCH_pipeline.json`` itself would replace its rows):

    python -m pytest benchmarks/test_pipeline_bench.py --benchmark-json /tmp/run.json
    python benchmarks/append_rows.py /tmp/run.json BENCH_pipeline.json --revision "..."

Every row uses the default config, whose 2 mm pinhole is on. The rows are:

- ``assignment_sensitivity``: y and then x at 512^2, as one timed call.
  ``one_scan`` is the library function: one ea scan and one summary per
  axis, with the oa statistics computed from the ea covariance.
  ``reference`` is the two-scan loop kept in ``tests/test_analysis.py``,
  two scans and two summaries per axis. The ``summaries_per_axis`` extra
  field records that count. Both must agree to 1e-12 on both Pearson
  values and both angles.
- ``run_scan``: one auto-window y scan (ea) in the Gaussian mode's closed
  form at 64^2, 256^2 and 1024^2, including the pinhole pass.
- ``pinhole_smooth``: the filter alone, on the unsmoothed grid of that y
  scan at 512^2 and 1024^2.
- ``waist_sweep``: 40 waists from 31 to 500 um on the y axis at 64^2.
  ``find_sign_transition``: the y sign flip in that bracket to 1 um. Each
  is timed two ways: ``moments`` is the library's, the pinhole's moments
  read from three vectors of each waist's unsmoothed grid;
  ``smoothed_grid`` is one whole ``summarize(run_scan(...))`` per waist.
  Their Pearson values must agree to ``MOMENTS_PEARSON_TOLERANCE`` of
  ``tests/test_analysis.py``, and the two bisections must return the same
  waist.
- ``scan_intensity``: the rates of one auto-window y scan (ea) at 512^2
  in the Gaussian mode, with a CW pump and with a 0.5 nm pulsed pump,
  computed three ways: ``centred_axes`` is what ``run_scan`` uses, two
  length-N log-intensity terms added to one N^2 outer product about the
  window midpoints and one exponential, timed as the bare rates of
  ``analysis._plan_scan``, from the plan's mismatches to the exponential,
  with no pinhole, check or normalization; ``real_log_intensity`` is
  ``biphoton_intensity``, one real exponential of the quadratic
  log-intensity per cell of broadcast momentum axes;
  ``complex_amplitude`` is ``np.abs(spatial_biphoton(...)) ** 2``.
  ``centred_axes`` must agree with ``real_log_intensity`` to 1e-13
  relative, and those two with each other's oracle to 1e-12.
- ``summarize``: the statistics of the pinholed auto-window y scan (ea) at
  512^2 and 1024^2, taken two ways: ``marginal`` is the library's, from
  the grid's row and column sums and one matrix-vector product;
  ``reference`` is the cell-by-cell sum over the whole normalized grid
  kept in ``tests/test_analysis.py``. The two must agree as that file's
  ``assert_summaries_agree`` requires (1e-13).
- ``auto_plan``: the ea auto window of a 64^2 scan on y and on x, with
  its Gaussian-model moments taken two ways: ``exact`` is the library's,
  from the real quadratic log-intensity; ``six_point`` swaps in the
  central-difference oracle kept in ``tests/test_analysis.py``. The two
  windows must agree to 1e-12 relative.
- ``cli_scan``: ``spdcsim scan`` on the default config at 256^2 and
  512^2, run in-process through ``cli.main``, writing the grid CSV and its
  summary.
  The summary's Pearson must be that of ``summarize(run_scan(...))`` on
  the same plan, to all its printed digits.

This directory sits outside the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spdcsim import (
    DetectionAssignment,
    assignment_sensitivity,
    auto_plan,
    default_config,
    find_sign_transition,
    resolve,
    run_scan,
    summarize,
    waist_sweep,
)
from spdcsim import analysis, cli
from spdcsim.trace import biphoton_intensity, pinhole_smooth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_analysis import (  # noqa: E402
    assert_summaries_agree,
    reference_assignment_sensitivity,
    reference_summarize,
    MOMENTS_PEARSON_TOLERANCE,
    relabel_system,
    six_point_model_moments,
)
from test_trace import amplitude_squared, window_momenta  # noqa: E402

SENSITIVITY_POINTS = 512
# grid points per axis -> timed rounds
SCAN_ROUNDS = {64: 20, 256: 10, 1024: 5}
PINHOLE_ROUNDS = {512: 10, 1024: 5}
SUMMARIZE_ROUNDS = {512: 20, 1024: 10}
INTENSITY_POINTS = 512
SWEEP_POINTS = 64
SWEEP_WAISTS = np.linspace(31e-6, 500e-6, 40)  # m
TRANSITION_TOL = 1e-6  # m
AUTO_PLAN_POINTS = 64
CLI_SCAN_POINTS = [256, 512]


@pytest.fixture(scope="module")
def run():
    return resolve(default_config())


def _both_axes(sensitivity, system, pinhole):
    return [
        sensitivity(axis, system, SENSITIVITY_POINTS, pinhole_diameter=pinhole)
        for axis in ("y", "x")
    ]


@pytest.mark.parametrize("path", ["one_scan", "reference"])
def test_assignment_sensitivity(benchmark, run, path):
    benchmark.group = f"assignment_sensitivity y+x {SENSITIVITY_POINTS}"
    benchmark.extra_info["points"] = SENSITIVITY_POINTS**2
    benchmark.extra_info["summaries_per_axis"] = {"one_scan": 1, "reference": 2}[path]
    sensitivity = {
        "one_scan": assignment_sensitivity,
        "reference": reference_assignment_sensitivity,
    }[path]
    got = benchmark.pedantic(
        _both_axes, args=(sensitivity, run.system, run.pinhole_diameter),
        rounds=5, warmup_rounds=1,
    )
    if path == "one_scan":
        got = [(c.pearson_ea, c.pearson_oa, c.angle_ea, c.angle_oa) for c in got]
        expected = _both_axes(reference_assignment_sensitivity, run.system, run.pinhole_diameter)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("points", list(SCAN_ROUNDS))
def test_run_scan_closed_form_with_pinhole(benchmark, run, points):
    benchmark.group = "run_scan closed form + pinhole"
    benchmark.extra_info["points"] = points**2
    plan = auto_plan("y", DetectionAssignment.E_AT_A, run.system, points)
    dist = benchmark.pedantic(
        run_scan, args=(plan, run.system),
        kwargs={"pinhole_diameter": run.pinhole_diameter},
        rounds=SCAN_ROUNDS[points], warmup_rounds=1,
    )
    assert dist.values.shape == (points, points)
    assert dist.values.max() == 1.0


@pytest.mark.parametrize("points", list(PINHOLE_ROUNDS))
def test_pinhole_smooth(benchmark, run, points):
    benchmark.group = "pinhole_smooth"
    benchmark.extra_info["points"] = points**2
    plan = auto_plan("y", DetectionAssignment.E_AT_A, run.system, points)
    (_, _, steps), rates = analysis._plan_scan(plan, run.system)
    grid = rates(None)
    out = benchmark.pedantic(
        pinhole_smooth, args=(grid, steps, run.pinhole_diameter),
        rounds=PINHOLE_ROUNDS[points], warmup_rounds=1,
    )
    assert out.sum() == pytest.approx(grid.sum(), rel=1e-12)
    assert out.min() > 0.0


def _smoothed_grid_pearson_by_waist(axis, system, plan, points, pinhole_diameter):
    """``analysis._pearson_by_waist`` as one whole scan and summary per waist."""
    plan = plan or auto_plan(axis, DetectionAssignment.E_AT_A, system, points)
    return lambda waist: summarize(
        run_scan(plan, system.with_isotropic_waist(waist), pinhole_diameter=pinhole_diameter)
    ).pearson


def _both_paths(monkeypatch, call, path):
    """``call`` on the library's moments and on one smoothed grid per waist; ``path`` stays live."""
    library = call()
    monkeypatch.setattr(analysis, "_pearson_by_waist", _smoothed_grid_pearson_by_waist)
    reference = call()
    if path == "moments":
        monkeypatch.undo()
    return library, reference


@pytest.mark.parametrize("path", ["moments", "smoothed_grid"])
def test_waist_sweep(benchmark, run, monkeypatch, path):
    benchmark.group = f"waist sweep and bisection y {SWEEP_POINTS}"
    benchmark.extra_info["waists"] = len(SWEEP_WAISTS)
    sweep = lambda: waist_sweep(  # noqa: E731
        "y", SWEEP_WAISTS, run.system, points=SWEEP_POINTS,
        pinhole_diameter=run.pinhole_diameter,
    )
    library, reference = _both_paths(monkeypatch, sweep, path)
    results = benchmark.pedantic(sweep, rounds=10, warmup_rounds=1)
    assert results == {"moments": library, "smoothed_grid": reference}[path]
    pearson = [p for _, p in library]
    assert pearson[0] > 0.0 > pearson[-1]
    assert pearson == pytest.approx(
        [p for _, p in reference], rel=0.0, abs=MOMENTS_PEARSON_TOLERANCE
    )


@pytest.mark.parametrize("path", ["moments", "smoothed_grid"])
def test_find_sign_transition(benchmark, run, monkeypatch, path):
    benchmark.group = f"waist sweep and bisection y {SWEEP_POINTS}"
    benchmark.extra_info["tol_m"] = TRANSITION_TOL
    transition = lambda: find_sign_transition(  # noqa: E731
        "y", SWEEP_WAISTS[0], SWEEP_WAISTS[-1], TRANSITION_TOL, run.system,
        points=SWEEP_POINTS, pinhole_diameter=run.pinhole_diameter,
    )
    library, reference = _both_paths(monkeypatch, transition, path)
    waist = benchmark.pedantic(transition, rounds=10, warmup_rounds=1)
    assert waist == library == reference
    assert SWEEP_WAISTS[0] < waist < SWEEP_WAISTS[-1]


@pytest.mark.parametrize("path", ["centred_axes", "real_log_intensity", "complex_amplitude"])
@pytest.mark.parametrize("pump", ["cw", "pulsed"])
def test_scan_intensity(benchmark, pump, path):
    benchmark.group = f"Gaussian scan intensity {pump} y {INTENSITY_POINTS}"
    benchmark.extra_info["points"] = INTENSITY_POINTS**2
    system = relabel_system(pump, "gaussian_approx")
    ea = DetectionAssignment.E_AT_A
    plan = auto_plan("y", ea, system, INTENSITY_POINTS)
    q_A, q_B = window_momenta(system, "y", ea, plan.range_a, plan.range_b, plan.points)
    rates = {
        "centred_axes": lambda: analysis._plan_scan(plan, system)[1](None),
        "real_log_intensity": lambda: biphoton_intensity(q_A, q_B, system, ea),
        "complex_amplitude": lambda: amplitude_squared(q_A, q_B, system, ea),
    }
    got = benchmark.pedantic(rates[path], rounds=20, warmup_rounds=1)
    oracle, tolerance = {
        "centred_axes": ("real_log_intensity", 1e-13),
        "real_log_intensity": ("complex_amplitude", 1e-12),
        "complex_amplitude": ("real_log_intensity", 1e-12),
    }[path]
    expected = rates[oracle]()
    assert np.max(np.abs(got - expected) / expected) <= tolerance


@pytest.mark.parametrize("path", ["marginal", "reference"])
@pytest.mark.parametrize("points", list(SUMMARIZE_ROUNDS))
def test_summarize(benchmark, run, points, path):
    benchmark.group = f"summarize y {points}"
    benchmark.extra_info["points"] = points**2
    plan = auto_plan("y", DetectionAssignment.E_AT_A, run.system, points)
    dist = run_scan(plan, run.system, pinhole_diameter=run.pinhole_diameter)
    summaries = {"marginal": summarize, "reference": reference_summarize}
    got = benchmark.pedantic(
        summaries[path], args=(dist,), rounds=SUMMARIZE_ROUNDS[points], warmup_rounds=1
    )
    assert_summaries_agree(summaries["marginal"](dist), summaries["reference"](dist))
    assert got.pearson == summaries[path](dist).pearson


@pytest.mark.parametrize("moments", ["exact", "six_point"])
@pytest.mark.parametrize("axis", ["y", "x"])
def test_auto_plan(benchmark, run, monkeypatch, axis, moments):
    benchmark.group = f"auto_plan {axis} {AUTO_PLAN_POINTS}"
    ea = DetectionAssignment.E_AT_A
    if moments == "six_point":
        monkeypatch.setattr(analysis, "_gaussian_model_moments", six_point_model_moments)
    plan = benchmark.pedantic(
        auto_plan, args=(axis, ea, run.system, AUTO_PLAN_POINTS),
        rounds=50, iterations=10, warmup_rounds=1,
    )
    monkeypatch.undo()
    expected = auto_plan(axis, ea, run.system, AUTO_PLAN_POINTS)
    for got, want in ((plan.range_a, expected.range_a), (plan.range_b, expected.range_b)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("points", CLI_SCAN_POINTS)
def test_cli_scan(benchmark, run, tmp_path, points):
    benchmark.group = f"cli scan y {points}"
    benchmark.extra_info["points"] = points**2
    config = tmp_path / "run.yaml"
    config.write_text(f"scan:\n  points: {points}\n")
    out = tmp_path / "grid.csv"
    code = benchmark.pedantic(
        cli.main, args=(["scan", "--config", str(config), "--out", str(out)],),
        rounds=5, warmup_rounds=1,
    )
    assert code == 0
    plan = auto_plan("y", DetectionAssignment.E_AT_A, run.system, points)
    expected = summarize(run_scan(plan, run.system, pinhole_diameter=run.pinhole_diameter))
    lines = (tmp_path / "grid.csv.summary").read_text().splitlines()
    assert f"pearson: {cli.format_number(expected.pearson)}" in lines
