#!/usr/bin/env python3
"""spdcsim benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout that holds ``src/spdcsim``:

    python3 perfbench/run.py --workload cli_scan_csv --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs fixed traced passes and reports per-layer metrics. ``--workload all``
runs every workload in turn and prints one table. The last line of standard
output is one JSON object; the lines before it, prefixed with ``#``, state
every metric with its unit, the operation counts and the provenance. A
result file with the raw latencies (and, when traced, a span file) is
written under ``.perfbench-run/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("cli_scan_csv", "fine_grid_stats", "exact_sinc_scan", "waist_sweep")
SETUP_SAMPLES = 12
SUBPROCESS_TIMEOUT_S = 120
MAX_FAILURES = 20  # a timed run stops early once this many operations failed

# Timed in a fresh interpreter: importing the package and resolving one config.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import spdcsim
spdcsim.resolve(spdcsim.load_config(sys.argv[1]))
print(repr(time.perf_counter() - start))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None where absent."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:9]
    except OSError:
        return None
    values = [int(v) for v in fields]
    return values[7], sum(values)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(spdcsim, workload, steal) -> dict:
    from workloads import INTERACTIONS

    material = spdcsim.dispersion.builtin_material_path("bbo")
    return {
        "workload": workload.name,
        "why": workload.why,
        "interactions": INTERACTIONS,
        "git_commit": _git_commit(),
        "spdcsim_version": spdcsim.__version__,
        "material_file": material.name,
        "material_sha256": hashlib.sha256(material.read_bytes()).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "host_steal_frac": steal,
        "load": "closed loop from one process: each operation starts after the previous "
                "one and its checks end; numpy may use up to nproc threads",
    }


def preflight() -> tuple[bool, str]:
    """``spdcsim check`` must pass before anything is measured."""
    proc = subprocess.run(
        [sys.executable, "-m", "spdcsim", "check"], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def measure_setup(config: Path) -> float:
    """Seconds a fresh interpreter takes to import spdcsim and resolve ``config``."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# Host-speed calibration. On a shared host the speed of the CPU drifts by
# a fifth or more over minutes, with other tenants' load. Fixed tasks that
# use no spdcsim code run between timed samples, and every sample is scaled
# by a task's reference time over the task's time at that moment. The
# scaled figure is what the sample would take on a host where the task
# takes its reference time (about a 2-vCPU Xeon VM at its typical speed).
# Code of different kinds speeds up and slows down by different amounts, so
# each workload is scaled by the task that resembles it: "interpreter" for
# Python-bound operations and for set-up, "arrays" for operations on grids
# of megabytes, which are bound by memory more than by the interpreter.
_CAL_INPUT = np.linspace(0.0, 1.0, 1 << 14)
_CAL_A, _CAL_B = np.empty_like(_CAL_INPUT), np.empty_like(_CAL_INPUT)


def _calibrate_interpreter() -> None:
    """Interpreter loop, float formatting and numpy work on a cache-sized array."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    ",".join(f"{x:.6e}" for x in _CAL_INPUT[:8000])
    for _ in range(20):
        np.exp(_CAL_INPUT, out=_CAL_A)
        np.sin(_CAL_INPUT, out=_CAL_B)
        np.multiply(_CAL_A, _CAL_B, out=_CAL_A)


@functools.cache
def _cal_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 512 * 512).reshape(512, 512)


def _calibrate_arrays() -> None:
    """Cosines and shifted sums on 512x512 grids, allocating as it goes."""
    base = _cal_grid()
    grid = np.cos(40.0 * base) ** 2 + base
    for axis in (0, 1):
        acc = np.zeros_like(grid)
        for offset in range(-4, 5):
            acc += np.roll(grid, offset, axis=axis)
        grid = acc / 9.0


# Task name: (function, reference seconds).
CALIBRATION_TASKS = {
    "interpreter": (_calibrate_interpreter, 0.020),
    "arrays": (_calibrate_arrays, 0.021),
}


def calibrate(tasks) -> dict:
    """Seconds each named calibration task takes now."""
    times = {}
    for name in tasks:
        start = time.perf_counter()
        CALIBRATION_TASKS[name][0]()
        times[name] = time.perf_counter() - start
    return times


class Runner:
    """Runs operations of one workload, timing only the operation itself."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []  # failed operations
        self.problems: list[str] = []  # failed run-level checks

    def run(self, k: int, tracer=None) -> dict:
        """Execute and check operation ``k``; returns its latency and outputs."""
        op = self.workload.op(k)
        self.attempted += 1
        record = {"latency_s": None, "digest": None, "bytes": 0, "warnings": 0}
        root = None
        try:
            with warnings.catch_warnings(record=tracer is not None) as caught:
                if tracer is not None:
                    warnings.simplefilter("always")
                    root = tracer.open_op(k)
                start = time.perf_counter()
                try:
                    result = self.workload.execute(op)
                finally:
                    record["latency_s"] = time.perf_counter() - start
                    if root is not None:
                        tracer.close_op(root)
            if caught is not None:
                from spdcsim import QuadratureAccuracyWarning

                record["warnings"] = sum(
                    issubclass(w.category, QuadratureAccuracyWarning) for w in caught
                )
            self.workload.check(op, result)
            record["digest"], record["bytes"] = self.workload.outputs_digest(op, result)
        except Exception as exc:  # a crash or a failed check fails the operation
            self.failures.append(
                f"attempt {self.attempted} (op {k}): {type(exc).__name__}: {exc}")
        return record


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off, scaled to the reference host speed.

    Set-up samples are spread over the run, one each time the summed
    operation time passes another 1/SETUP_SAMPLES of ``seconds``, so that
    they see the same machine load as the operations. The run ends on a
    whole number of passes over the config pool, so every config weighs the
    same in the median. The calibration tasks run between samples; each
    sample is scaled by its task's reference time over the mean of that
    task's times just before and just after it. Operations are scaled by the
    workload's task, set-up samples by the interpreter task.
    """
    config = runner.workload.configs[0]
    pool = runner.workload.pool
    op_task = runner.workload.calibration
    tasks = sorted({"interpreter", op_task})
    measure_setup(config)  # untimed: fills the bytecode cache of a fresh checkout
    runner.run(0)  # warm-up: same command as the first timed operation
    calibrate(tasks)
    setup, records, busy = [], [], 0.0
    calibrations = [calibrate(tasks)]
    while ((busy < seconds or len(records) % pool or len(setup) < SETUP_SAMPLES)
           and len(runner.failures) < MAX_FAILURES):
        if len(setup) < SETUP_SAMPLES and busy >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append((measure_setup(config), len(calibrations) - 1))
        else:
            records.append(runner.run(len(records)))
            records[-1]["calibration"] = len(calibrations) - 1
            busy += records[-1]["latency_s"]
        calibrations.append(calibrate(tasks))

    def scaled(value, before, task):
        return value * 2.0 * CALIBRATION_TASKS[task][1] / (
            calibrations[before][task] + calibrations[before + 1][task])

    latencies = [scaled(r["latency_s"], r["calibration"], op_task) for r in records]
    setup_samples = [scaled(value, before, "interpreter") for value, before in setup]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"setup_samples_s": setup_samples, "latencies_s": latencies,
           "wall_setup_samples_s": [value for value, _ in setup],
           "wall_latencies_s": [r["latency_s"] for r in records],
           "calibrations_s": {task: [c[task] for c in calibrations] for task in tasks},
           "op_calibration": op_task, "timed_ops": len(latencies),
           "wall_setup_s": statistics.median(value for value, _ in setup),
           "wall_op_p50_s": statistics.median(r["latency_s"] for r in records),
           "wall_ops_per_s": len(records) / busy}
    return metrics, raw


def _pass_counts(table: dict) -> dict:
    """Every count of a span table: calls, cells, evals and tap operations."""
    return {
        f"{name}.{key}": value
        for name, row in sorted(table.items())
        for key, value in sorted(row.items())
        if key not in ("total_s", "self_s")
    }


def layer_metrics(table: dict, spans, records: list[dict]) -> dict:
    from tracer import count_under

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def layer_self(prefix):
        return sum(row["self_s"] for name, row in table.items() if name.startswith(prefix))

    dispersion_calls = sum(
        row["calls"] for name, row in table.items() if name.startswith("dispersion.")
    )
    return {
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.calls": (get("cli.main", "calls"), "count"),
        "cli.bytes_written": (sum(r["bytes"] for r in records), "bytes"),
        "config.self_s": (layer_self("config."), "s"),
        "config.resolve_s": (get("config.resolve", "total_s"), "s"),
        "config.load_config_s": (get("config.load_config", "total_s"), "s"),
        "config.resolve_calls": (get("config.resolve", "calls"), "count"),
        "dispersion.self_s": (layer_self("dispersion."), "s"),
        "dispersion.load_material_s": (get("dispersion.load_material", "total_s"), "s"),
        "dispersion.calls": (dispersion_calls, "count"),
        "kernel.mode_function_s": (get("kernel.mode_function", "total_s"), "s"),
        "kernel.mode_function_calls": (get("kernel.mode_function", "calls"), "count"),
        "kernel.mode_function_evals": (get("kernel.mode_function", "cells"), "count"),
        "trace.self_s": (layer_self("trace."), "s"),
        "trace.closed_form_s": (get("trace.spatial_biphoton", "total_s"), "s"),
        "trace.closed_form_calls": (get("trace.spatial_biphoton", "calls"), "count"),
        "trace.closed_form_cells": (get("trace.spatial_biphoton", "cells"), "count"),
        "trace.integrate_gaussian_calls": (get("trace.integrate_gaussian", "calls"), "count"),
        "trace.integrate_antidiagonal_calls": (
            get("trace.integrate_gaussian_antidiagonal", "calls"), "count"),
        "trace.quadrature_self_s": (get("trace.integrate_quadrature", "self_s"), "s"),
        "trace.quadrature_points": (get("trace.integrate_quadrature", "calls"), "count"),
        "trace.quadrature_warnings": (sum(r["warnings"] for r in records), "count"),
        "trace.pinhole_s": (get("trace.pinhole_smooth", "total_s"), "s"),
        "trace.pinhole_calls": (get("trace.pinhole_smooth", "calls"), "count"),
        "trace.pinhole_cells": (get("trace.pinhole_smooth", "cells"), "count"),
        "trace.pinhole_tap_ops": (get("trace.pinhole_smooth", "tap_ops"), "count"),
        "analysis.self_s": (layer_self("analysis."), "s"),
        "analysis.auto_plan_self_s": (get("analysis.auto_plan", "self_s"), "s"),
        "analysis.auto_plan_calls": (get("analysis.auto_plan", "calls"), "count"),
        "analysis.run_scan_self_s": (get("analysis.run_scan", "self_s"), "s"),
        "analysis.run_scan_calls": (get("analysis.run_scan", "calls"), "count"),
        "analysis.summarize_s": (get("analysis.summarize", "total_s"), "s"),
        "analysis.summarize_calls": (get("analysis.summarize", "calls"), "count"),
        "analysis.assignment_sensitivity_self_s": (
            get("analysis.assignment_sensitivity", "self_s"), "s"),
        "analysis.waist_sweep_self_s": (get("analysis.waist_sweep", "self_s"), "s"),
        "analysis.find_sign_transition_self_s": (
            get("analysis.find_sign_transition", "self_s"), "s"),
        "analysis.transition_scans": (
            count_under(spans, "analysis.run_scan", "analysis.find_sign_transition"), "count"),
        "bench.self_s": (get("bench.op", "self_s"), "s"),
    }


def traced_run(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from two traced passes over the same operations.

    Each operation of the first pass runs untraced just before it runs
    traced, so the tracing overhead is a paired ratio that slow drifts of
    machine speed do not enter. The two traced passes must agree on every
    count and output.
    """
    from tracer import Tracer, summarize_spans

    passes = runner.workload.trace_ops
    runner.run(0)  # warm-up
    tracer = Tracer()
    tracer.install()
    try:
        untraced, records_a = [], []
        for k in range(passes):
            untraced.append(runner.run(k))
            records_a.append(runner.run(k, tracer))
        spans_a, tracer.spans = tracer.spans, []
        records_b = [runner.run(k, tracer) for k in range(passes)]
        spans_b = tracer.spans
    finally:
        tracer.uninstall()
    table_a = summarize_spans(spans_a)

    def counts(table, records):
        return _pass_counts(table) | {"bytes": sum(r["bytes"] for r in records),
                                      "warnings": sum(r["warnings"] for r in records)}

    counts_a, counts_b = counts(table_a, records_a), counts(summarize_spans(spans_b), records_b)
    if counts_a != counts_b:
        differing = sorted(k for k in counts_a.keys() | counts_b.keys()
                           if counts_a.get(k) != counts_b.get(k))
        runner.problems.append(f"traced passes disagree on counts: {differing}")
    if [r["digest"] for r in records_a] != [r["digest"] for r in records_b]:
        runner.problems.append("traced passes wrote different outputs")

    overhead = statistics.median(
        t["latency_s"] / u["latency_s"] for t, u in zip(records_a, untraced)) - 1.0
    metrics = layer_metrics(table_a, spans_a, records_a) | {
        "bench.traced_ops": (passes, "count"),
        "bench.traced_op_p50_s": (statistics.median(r["latency_s"] for r in records_a), "s"),
        "bench.tracing_overhead_frac": (overhead, "ratio"),
        "bench.ops_failed_frac": (len(runner.failures) / runner.attempted, "ratio"),
    }
    spans_path = RUN_DIR / f"{runner.workload.name}-seed{runner.workload.seed}-spans.jsonl"
    with spans_path.open("w") as handle:
        for name, start, end, parent, op, span_counts in spans_a:
            handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "counts": span_counts}) + "\n")
    raw = {"untraced_latencies_s": [r["latency_s"] for r in untraced],
           "traced_latencies_s": [r["latency_s"] for r in records_a],
           "pass_counts": counts_a, "spans_file": str(spans_path.relative_to(ROOT)),
           "output_digests": [r["digest"] for r in records_a]}
    return metrics, raw


def run_workload(args) -> int:
    import spdcsim

    from workloads import WORKLOADS

    RUN_DIR.mkdir(exist_ok=True)
    cpu_start = _cpu_times()
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="work-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        runner = Runner(workload)
        check_ok, check_output = preflight()
        if not check_ok:
            runner.problems.append(f"spdcsim check failed:\n{check_output}")
        if args.trace:
            metrics, raw = traced_run(runner)
        else:
            metrics, raw = timed_run(runner, args.seconds)
    cpu_end = _cpu_times()
    steal = None
    if cpu_start and cpu_end and cpu_end[1] > cpu_start[1]:
        steal = (cpu_end[0] - cpu_start[0]) / (cpu_end[1] - cpu_start[1])

    failed_ops = len(runner.failures)
    prov = provenance(spdcsim, workload, steal)
    result = {
        "correct": not runner.failures and not runner.problems,
        "attempted": runner.attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RUN_DIR / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "provenance": prov,
         "failures": runner.problems + runner.failures,
         "raw": raw, "result": result}, indent=1))

    print(f"# spdcsim benchmark: workload={workload.name} seed={args.seed} trace={args.trace}")
    print(f"# why: {workload.why}")
    for line in (runner.problems + runner.failures)[:MAX_FAILURES]:
        print(f"# FAILED {line}")
    count = raw.get("timed_ops", workload.trace_ops)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "calibrations_s" in raw:
        print(f"# unscaled wall clock: setup_s = {raw['wall_setup_s']:.6g} s, "
              f"op_p50_s = {raw['wall_op_p50_s']:.6g} s, "
              f"ops_per_s = {raw['wall_ops_per_s']:.6g} 1/s; operations scaled by the "
              f"{raw['op_calibration']} task; calibration medians " + ", ".join(
                  f"{task} {statistics.median(times):.6g} s (reference "
                  f"{CALIBRATION_TASKS[task][1]} s)"
                  for task, times in raw["calibrations_s"].items()))
    print(f"# ops_failed_frac = {failed_ops / runner.attempted:.6g} ratio "
          f"({failed_ops} failed of {runner.attempted} attempted; {count} measured)")
    print(f"# provenance: {json.dumps({k: v for k, v in prov.items() if k != 'interactions'})}")
    print(f"# result file: {(RUN_DIR / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of the end-to-end metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        cells = [f"{m}={v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()]
        print(f"# {name}: " + ", ".join(cells) + f", ops_failed_frac={frac:.4g} ratio")
    summary = {
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{name}.{m}": v for name, r in rows for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed operation time to measure (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spdcsim" / "__init__.py").is_file():
        print(f"error: no spdcsim sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spdcsim

    if Path(spdcsim.__file__).resolve().parent != (SRC / "spdcsim").resolve():
        print(f"error: imported spdcsim from {spdcsim.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
