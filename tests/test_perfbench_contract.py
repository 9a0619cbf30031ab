"""The benchmark's contract with the package: each workload's first operation runs and checks.

``perfbench/`` calls spdcsim by name: CLI commands and options, library
functions and their keywords, result fields. A renamed argument or a deleted
field there would otherwise show only as a failed benchmark operation. Each
workload is built at seed 1 in a temporary directory, and its operation 0
runs through ``run.Runner``, untraced and then under ``tracer.Tracer``; both
runs must pass the workload's own checks and give the same output digest.
The perfbench modules are imported by path, unchanged.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, tracer, workloads


run, tracer, workloads = _import_perfbench()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_its_first_operation_untraced_and_traced(tmp_path, name):
    runner = run.Runner(workloads.WORKLOADS[name](1, tmp_path))
    untraced = runner.run(0)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = runner.run(0, spans)
    finally:
        spans.uninstall()
    assert runner.failures == []
    assert untraced["digest"] is not None
    assert traced["digest"] == untraced["digest"]
    assert spans.spans, "the tracer recorded no span"
