"""Seeded workloads of the spdcsim benchmark: configs, operations and output checks.

Each workload draws its configs from the seed, writes them as YAML files and
runs operations that see only those files and command-line arguments. The
first operation always uses the default physical configuration. Every
operation's outputs are checked; a check that fails counts the operation as
failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import spdcsim
from spdcsim import cli

# Which end-to-end metric each layer metric should move, and on which workload.
INTERACTIONS = [
    {"layer_metrics": ["cli.self_s", "cli.bytes_written"],
     "moves": ["op_p50_s", "ops_per_s", "peak_rss_mb"],
     "on": "cli_scan_csv (about 0 on waist_sweep)"},
    {"layer_metrics": ["trace.pinhole_s", "trace.pinhole_cells", "trace.pinhole_tap_ops"],
     "moves": ["op_p50_s"],
     "on": "fine_grid_stats, waist_sweep (absent on exact_sinc_scan)"},
    {"layer_metrics": ["trace.closed_form_s", "trace.closed_form_cells"],
     "moves": ["op_p50_s"],
     "on": "waist_sweep, fine_grid_stats (absent on exact_sinc_scan)"},
    {"layer_metrics": ["trace.quadrature_self_s", "trace.quadrature_points",
                       "trace.quadrature_warnings"],
     "moves": ["op_p50_s", "peak_rss_mb"],
     "on": "exact_sinc_scan (absent elsewhere)"},
    {"layer_metrics": ["kernel.mode_function_s", "kernel.mode_function_evals"],
     "moves": ["op_p50_s"],
     "on": "exact_sinc_scan"},
    {"layer_metrics": ["analysis.auto_plan_self_s", "analysis.auto_plan_calls"],
     "moves": ["op_p50_s"],
     "on": "exact_sinc_scan (through the pre-scan), small elsewhere"},
    {"layer_metrics": ["analysis.run_scan_self_s", "analysis.run_scan_calls",
                       "analysis.summarize_s"],
     "moves": ["op_p50_s", "ops_per_s"],
     "on": "waist_sweep"},
    {"layer_metrics": ["analysis.waist_sweep_self_s", "analysis.find_sign_transition_self_s",
                       "analysis.transition_scans"],
     "moves": ["op_p50_s"],
     "on": "waist_sweep"},
    {"layer_metrics": ["config.resolve_s", "dispersion.load_material_s"],
     "moves": ["setup_s", "op_p50_s on waist_sweep"],
     "on": "all"},
    {"layer_metrics": ["bench.tracing_overhead_frac"], "moves": [], "on": "all"},
]


class OpFailed(Exception):
    """An operation exited nonzero or wrote wrong outputs."""


@dataclass
class Op:
    """One timed operation: CLI commands, or one library call, on one config."""

    index: int
    config: Path
    key: str  # operations with one key must give byte-identical outputs
    argvs: list[list[str]] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)


def run_cli(argv: list[str]) -> str:
    """Run one spdcsim command in this process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"spdcsim {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


# Drawn physical parameters: section, key, default value, relative half-width, digits.
DRAWN = [
    ("pump", "waist_x_um", 42.0, 0.10, 3),
    ("pump", "waist_y_um", 31.0, 0.10, 3),
    ("crystal", "length_mm", 4.0, 0.10, 4),
    ("geometry", "half_open_angle_ext_deg", 6.0, 0.05, 4),
    ("filters", "fwhm_nm", 5.0, 0.10, 4),
]


def _drawn_physics(rng: random.Random, count: int) -> list[dict]:
    """``count`` sets of physical parameters around the default config.

    The draw is a Latin hypercube: each parameter's range is cut into
    ``count`` equal strata and every set takes a random point in a different
    stratum. Each seed thus covers every range evenly, and the cost of one
    pass over the configs varies little from seed to seed.
    """
    columns = []
    for _ in DRAWN:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([(stratum + rng.random()) / count for stratum in strata])
    bodies = []
    for row in zip(*columns):
        body: dict = {}
        for (section, key, default, width, digits), u in zip(DRAWN, row):
            body.setdefault(section, {})[key] = round(default * (1.0 + width * (2.0 * u - 1.0)),
                                                      digits)
        bodies.append(body)
    return bodies


def _merge(base: dict, extra: dict) -> dict:
    merged = {section: dict(values) for section, values in base.items()}
    for section, values in extra.items():
        if isinstance(values, dict):
            merged.setdefault(section, {}).update(values)
        else:
            merged[section] = values
    return merged


def _pearson(qa, qb, weights) -> float:
    w = weights / weights.sum()
    mean_a, mean_b = (w * qa).sum(), (w * qb).sum()
    cov = (w * (qa - mean_a) * (qb - mean_b)).sum()
    var_a = (w * (qa - mean_a) ** 2).sum()
    var_b = (w * (qb - mean_b) ** 2).sum()
    return float(cov / math.sqrt(var_a * var_b))


def _header_value(path: Path, prefix: str) -> str:
    with path.open() as handle:
        first = handle.readline().rstrip("\n")
    _require(first.startswith(prefix), f"{path.name}: first line {first!r} lacks {prefix!r}")
    return first[len(prefix):]


def _summary_pearson(path: Path) -> float:
    for line in path.read_text().splitlines():
        if line.startswith("pearson: "):
            return float(line.split(": ", 1)[1])
    raise OpFailed(f"{path.name}: no pearson line")


class Workload:
    """Seeded configs plus the operation, execution and checks of one workload."""

    name = ""
    why = ""
    pool = 8  # distinct configs; operation k uses config k mod pool
    trace_ops = 4  # operations in one traced pass
    calibration = "interpreter"  # host-speed calibration task for the operations

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        self.configs, self.bodies = [], []
        drawn = [{}] + _drawn_physics(rng, self.pool - 1)  # the first config is the default
        for index, physics in enumerate(drawn):
            body = _merge(physics, self.settings(index, rng))
            path = workdir / f"config{index:02d}.yaml"
            path.write_text(yaml.safe_dump(body, sort_keys=True))
            self.configs.append(path)
            self.bodies.append(body)
        self._resolved: dict[Path, object] = {}
        self._seen: dict[str, str] = {}

    def settings(self, index: int, rng: random.Random) -> dict:
        """Workload-specific config keys for config ``index``."""
        raise NotImplementedError

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        """Run the operation; the return value enters the output digest."""
        for argv in op.argvs:
            run_cli(argv)
        return None

    def check(self, op: Op, result) -> None:
        raise NotImplementedError

    def resolved(self, path: Path):
        if path not in self._resolved:
            self._resolved[path] = spdcsim.resolve(spdcsim.load_config(path))
        return self._resolved[path]

    def outputs_digest(self, op: Op, result) -> tuple[str, int]:
        """Digest and byte count of what the operation produced.

        The digest must repeat for every run of one command.
        """
        digest = hashlib.sha256(repr(result).encode())
        size = 0
        for path in op.outputs:
            data = path.read_bytes()
            digest.update(data)
            size += len(data)
        hexdigest = digest.hexdigest()
        previous = self._seen.setdefault(op.key, hexdigest)
        _require(previous == hexdigest, f"{op.key}: output differs from an earlier run")
        return hexdigest, size

    def _scan_grid(self, op: Op, points: int) -> np.ndarray:
        """Shared checks of a ``scan`` CSV; returns its data rows."""
        csv = op.outputs[0]
        expected = self.resolved(op.config).digest
        digest = _header_value(csv, "# config_digest=")
        _require(digest == expected, f"{csv.name}: digest {digest} != resolve() {expected}")
        data = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
        _require(data.shape == (points * points, 5),
                 f"{csv.name}: shape {data.shape}, expected ({points * points}, 5)")
        _require(bool(np.all(np.isfinite(data))), f"{csv.name}: non-finite values")
        values = data[:, 4]
        _require(values.max() == 1.0, f"{csv.name}: max S = {float(values.max())}, expected 1")
        _require(values.min() >= 0.0, f"{csv.name}: min S = {float(values.min())} < 0")
        return data

    def _scan_op(self, k: int) -> Op:
        index = k % self.pool
        config = self.configs[index]
        scan = self.bodies[index]["scan"]
        out = self.workdir / f"scan{index:02d}.csv"
        argv = ["scan", "--config", str(config), "--axis", scan["axis"],
                "--assignment", scan["assignment"], "--out", str(out)]
        return Op(index=k, config=config, key=f"scan{index:02d}", argvs=[argv],
                  outputs=[out, Path(str(out) + ".summary")])


class CliScanCsv(Workload):
    name = "cli_scan_csv"
    why = ("CLI scan at 256^2, closed form with the 2 mm pinhole: CSV serialization in "
           "the cli layer dominates, trace and pinhole are small")
    points = 256

    def settings(self, index, rng):
        body = {"scan": {"points": self.points,
                         "axis": "yx"[index % 2],
                         "assignment": ("ea", "oa")[(index // 2) % 2]}}
        if (index // 4) % 2:
            body["pump"] = {"spectral_mode": "gaussian",
                            "spectral_fwhm_nm": round(rng.uniform(0.3, 1.0), 4)}
        return body

    def op(self, k):
        return self._scan_op(k)

    def check(self, op, result):
        data = self._scan_grid(op, self.points)
        recomputed = _pearson(data[:, 2], data[:, 3], data[:, 4])
        reported = _summary_pearson(op.outputs[1])
        _require(abs(recomputed - reported) <= 1e-6 * abs(reported),
                 f"pearson from CSV {recomputed!r} != summary {reported!r}")


class FineGridStats(Workload):
    name = "fine_grid_stats"
    why = ("library assignment_sensitivity at 512^2 with the 2 mm pinhole, y and x: "
           "pinhole_smooth dominates, closed form is second; no CLI")
    trace_ops = 4
    points = 512
    calibration = "arrays"

    def settings(self, index, rng):
        return {"scan": {"points": self.points}}

    def op(self, k):
        index = k % self.pool
        return Op(index=k, config=self.configs[index], key=f"stats{index:02d}")

    def execute(self, op):
        run = spdcsim.resolve(spdcsim.load_config(op.config))
        points = run.config.scan.points
        return [
            spdcsim.assignment_sensitivity(
                axis, run.system, points, pinhole_diameter=run.pinhole_diameter
            )
            for axis in ("y", "x")
        ]

    def check(self, op, result):
        by_axis = dict(zip("yx", result))
        for axis, comparison in by_axis.items():
            _require(math.isfinite(comparison.pearson_ea), f"{axis}: pearson not finite")
            _require(abs(comparison.pearson_ea - comparison.pearson_oa) <= 1e-9,
                     f"{axis}: ea {comparison.pearson_ea!r} vs oa {comparison.pearson_oa!r}")
        if op.config == self.configs[0]:
            _require(by_axis["y"].pearson_ea > 0.0, "default config: y pearson not > 0")
            _require(by_axis["x"].pearson_ea < 0.0, "default config: x pearson not < 0")


class ExactSincScan(Workload):
    name = "exact_sinc_scan"
    why = ("CLI scan, exact_sinc, CW pump, 32^2, no pinhole: the per-point quadrature "
           "loop and mode_function dominate, the auto_plan pre-scan is a 16^2 quadrature")
    points = 32
    trace_ops = 8
    checked_cells = 4

    def settings(self, index, rng):
        return {"mode": "exact_sinc",
                "optics": {"pinhole_mm": 0.0},
                "scan": {"points": self.points, "axis": "y",
                         "assignment": ("ea", "oa")[index % 2]}}

    def op(self, k):
        return self._scan_op(k)

    def check(self, op, result):
        data = self._scan_grid(op, self.points)
        values = data[:, 4]
        peak = int(np.argmax(values))
        significant = np.flatnonzero(values >= 1e-3)
        rng = random.Random(f"{self.name}:{self.seed}:{op.index}")
        cells = rng.sample(sorted(significant.tolist()), min(self.checked_cells, significant.size))
        system = self.resolved(op.config).system
        scan = self.bodies[op.index % self.pool]["scan"]
        assignment = spdcsim.DetectionAssignment.parse(scan["assignment"])

        def intensity(row):  # this workload scans the y axis only
            q_a = spdcsim.TransverseWavevector(qx=0.0, qy=float(data[row, 2]))
            q_b = spdcsim.TransverseWavevector(qx=0.0, qy=float(data[row, 3]))
            return abs(spdcsim.integrate_quadrature(q_a, q_b, system, assignment)) ** 2

        peak_intensity = intensity(peak)
        for row in cells:
            expected = intensity(row) / peak_intensity
            actual = float(values[row] / values[peak])
            _require(abs(actual - expected) <= 1e-6 * expected,
                     f"cell {row}: CSV ratio {actual!r} vs quadrature {expected!r}")


class WaistSweep(Workload):
    name = "waist_sweep"
    why = ("CLI sweep of 40 waists (31-500 um, 64^2) on y and x plus a 1 um y transition "
           "bisection: many small scans, so per-call overhead and the sweep drivers show")
    trace_ops = 8
    steps, wmin, wmax, tol = 40, 31.0, 500.0, 1.0

    def settings(self, index, rng):
        return {"scan": {"axis": "y", "assignment": "ea"}}

    def op(self, k):
        index = k % self.pool
        config = str(self.configs[index])
        base = self.workdir / f"waist{index:02d}"
        sweep_y, sweep_x = Path(f"{base}_sweep_y.csv"), Path(f"{base}_sweep_x.csv")
        transition = Path(f"{base}_transition.csv")
        sweep = ["--wmin", f"{self.wmin:g}", "--wmax", f"{self.wmax:g}",
                 "--steps", str(self.steps)]
        argvs = [
            ["sweep", "--config", config, "--axis", "y", *sweep, "--out", str(sweep_y)],
            ["sweep", "--config", config, "--axis", "x", *sweep, "--out", str(sweep_x)],
            ["transition", "--config", config, "--axis", "y", "--wlo", f"{self.wmin:g}",
             "--whi", f"{self.wmax:g}", "--tol", f"{self.tol:g}", "--out", str(transition)],
        ]
        return Op(index=k, config=self.configs[index], key=f"waist{index:02d}", argvs=argvs,
                  outputs=[sweep_y, sweep_x, transition])

    def check(self, op, result):
        waists = np.linspace(self.wmin, self.wmax, self.steps)
        sweeps = {}
        for axis, path in zip("yx", op.outputs[:2]):
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
            _require(table.shape == (self.steps, 2),
                     f"{path.name}: shape {table.shape}, expected ({self.steps}, 2)")
            _require(bool(np.all(np.isfinite(table))), f"{path.name}: non-finite values")
            _require(bool(np.allclose(table[:, 0], waists, rtol=1e-9, atol=0.0)),
                     f"{path.name}: waists are not the requested grid")
            sweeps[axis] = table
        row = np.loadtxt(op.outputs[2], delimiter=",", comments="#", ndmin=2)
        transition = float(row[0, 3])
        pearson = sweeps["y"][:, 1]
        flips = np.flatnonzero(np.sign(pearson[:-1]) != np.sign(pearson[1:]))
        _require(flips.size > 0, "y sweep never changes sign")
        _require(any(waists[i] - self.tol <= transition <= waists[i + 1] + self.tol
                     for i in flips),
                 f"transition {transition} um lies outside every sign-flip interval")
        run = self.resolved(op.config)
        scan = run.config.scan
        plan = spdcsim.auto_plan("y", spdcsim.DetectionAssignment.parse(scan.assignment),
                                 run.system, scan.points)
        around = spdcsim.waist_sweep(
            "y", [(transition - self.tol) * 1e-6, (transition + self.tol) * 1e-6],
            run.system, plan=plan, points=scan.points,
            pinhole_diameter=run.pinhole_diameter,
        )
        (_, below), (_, above) = around
        _require(below * above < 0.0,
                 f"pearson at transition -/+ tol has one sign ({below:+.3e}, {above:+.3e})")


WORKLOADS = {w.name: w for w in (CliScanCsv, FineGridStats, ExactSincScan, WaistSweep)}
