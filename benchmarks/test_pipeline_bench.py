"""Timing of the scan pipeline: assignment comparison and closed-form scans with the pinhole.

Run from the repository root (10 to 15 s on a 2-vCPU Xeon VM):

    python -m pytest benchmarks/test_pipeline_bench.py --benchmark-json BENCH_pipeline.json

Every row uses the default config, whose 2 mm pinhole is on. The rows are:

- ``assignment_sensitivity``: y and then x at 512^2, as one timed call.
  ``one_scan`` is the library function, which derives the oa summary from
  the ea scan. ``reference`` is the two-scan loop kept in
  ``tests/test_analysis.py``. Both must agree to 1e-12 on both Pearson
  values and both angles.
- ``run_scan``: one auto-window y scan (ea) in the Gaussian mode's closed
  form at 64^2, 256^2 and 1024^2, including the pinhole pass.

This directory sits outside the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

import pytest

from spdcsim import (
    DetectionAssignment,
    assignment_sensitivity,
    auto_plan,
    default_config,
    resolve,
    run_scan,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_analysis import reference_assignment_sensitivity  # noqa: E402

SENSITIVITY_POINTS = 512
# grid points per axis -> timed rounds
SCAN_ROUNDS = {64: 20, 256: 10, 1024: 5}


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
