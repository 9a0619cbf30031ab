"""Command-line interface: scan, sweep, transition and check subcommands.

Every emitted file is plain comma-separated text with ``#``-prefixed header
lines, the first of which carries the configuration digest so a run can be
reproduced from its output alone. Plot rendering is deliberately out of
scope; the grids are written plot-ready.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import dispersion
from .analysis import (
    ScanPlan,
    auto_plan,
    find_sign_transition,
    run_scan,
    summarize,
    waist_sweep,
)
from .config import ResolvedRun, default_config, load_config, load_crystal_material, resolve
from .dispersion import UniaxialCrystal
from .kernel import (
    TransverseWavevector,
    mismatch_longitudinal,
    mismatch_transverse_y,
)
from .trace import DetectionAssignment, integrate_quadrature, spatial_biphoton


# printf conversion of each kind of number: exponent, positional, non-finite
_NUMBER_SPECS = np.array(["%.12e", "%.12g", "%r"], dtype=object)


def format_numbers(values) -> list[str]:
    """Locale-free text of every value, in one formatting call.

    Twelve significant digits, positional inside [1e-3, 1e4] in magnitude and
    exponent outside it; ``0`` for either zero and ``repr`` for non-finite values.
    """
    flat = np.array(values, dtype=float).ravel()
    if flat.size == 0:
        return []
    zero = flat == 0
    flat[zero] = 0.0  # positional +0.0 prints as "0"
    magnitude = np.abs(flat)
    kind = (zero | ((magnitude >= 1e-3) & (magnitude <= 1e4))).astype(np.intp)
    kind[~np.isfinite(flat)] = 2
    # no formatted number holds a newline, so one %-format of the joined specs splits back
    return ("\n".join(_NUMBER_SPECS[kind].tolist()) % tuple(flat.tolist())).split("\n")


def format_number(value: float) -> str:
    """Locale-free text of one value, by the rule of ``format_numbers``."""
    return format_numbers(value)[0]


def _load(args) -> ResolvedRun:
    if args.config:
        config = load_config(args.config)
        base = Path(args.config).parent
    else:
        config = default_config()
        base = None
    if getattr(args, "axis", None):
        config = replace(config, scan=replace(config.scan, axis=args.axis))
    if getattr(args, "assignment", None):
        config = replace(config, scan=replace(config.scan, assignment=args.assignment))
    return resolve(config, base_dir=base)


def _plan_from(run: ResolvedRun) -> ScanPlan:
    scan = run.config.scan
    assignment = DetectionAssignment.parse(scan.assignment)
    orthogonal = scan.orthogonal_mm * 1e-3
    if run.scan_range is None:
        return auto_plan(
            scan.axis, assignment, run.system, scan.points, orthogonal=orthogonal
        )
    return ScanPlan(
        axis=scan.axis,
        assignment=assignment,
        range_a=run.scan_range,
        range_b=run.scan_range,
        points=scan.points,
        orthogonal=orthogonal,
    )


def _write(path, lines, blocks=()) -> None:
    """Write ``lines`` one per line, then each text block of ``blocks`` as it is made."""
    with open(path, "w") as handle:
        handle.writelines(f"{line}\n" for line in lines)
        handle.writelines(blocks)


def _csv_rows(table) -> str:
    """CSV text of a 2-D numeric table, one line per row."""
    rows, columns = np.shape(table)
    return ((",".join(["%s"] * columns) + "\n") * rows) % tuple(format_numbers(table))


def _grid_rows(dist):
    """CSV blocks of a scan grid, one per A position; each axis value is formatted once."""
    x_a, x_b, q_a, q_b = (
        format_numbers(axis)
        for axis in (dist.positions_a, dist.positions_b, dist.momenta_a, dist.momenta_b)
    )
    fields = [None] * (3 * len(x_b))
    fields[0::3] = x_b
    fields[1::3] = q_b
    for position, momentum, row in zip(x_a, q_a, dist.values):
        fields[2::3] = format_numbers(row)
        yield (f"{position},%s,{momentum},%s,%s\n" * len(x_b)) % tuple(fields)


def cmd_scan(args) -> int:
    run = _load(args)
    plan = _plan_from(run)
    dist = run_scan(plan, run.system, pinhole_diameter=run.pinhole_diameter)
    summary = summarize(dist)

    header = [
        f"# config_digest={run.digest}",
        f"# spdcsim {__version__} scan",
        f"# axis={plan.axis} assignment={plan.assignment.value} points={plan.points}",
        f"# mode={run.system.mode} pinhole_mm={run.pinhole_diameter * 1e3:g}",
        "# columns: x_A[m], x_B[m], q_A[rad/m], q_B[rad/m], S[normalized]",
    ]
    _write(args.out, header, _grid_rows(dist))

    summary_lines = [
        f"# config_digest={run.digest}",
        f"axis: {plan.axis}",
        f"assignment: {plan.assignment.value}",
        f"pearson: {format_number(summary.pearson)}",
        f"principal_angle_deg: {format_number(math.degrees(summary.principal_angle))}",
        f"peak_q_a: {format_number(summary.peak[0])}",
        f"peak_q_b: {format_number(summary.peak[1])}",
    ]
    _write(str(args.out) + ".summary", summary_lines)
    print(
        f"scan {plan.axis}/{plan.assignment.value}: pearson={summary.pearson:+.4f} "
        f"angle={math.degrees(summary.principal_angle):+.2f} deg -> {args.out}"
    )
    return 0


def cmd_sweep(args) -> int:
    run = _load(args)
    if not args.wmin < args.wmax:
        raise ValueError("sweep needs wmin < wmax")
    if args.steps < 2:
        raise ValueError("sweep needs steps >= 2")
    waists = np.linspace(args.wmin, args.wmax, args.steps) * 1e-6
    scan = run.config.scan
    plan = _plan_from(run)
    results = waist_sweep(
        scan.axis,
        waists,
        run.system,
        plan=plan,
        points=scan.points,
        pinhole_diameter=run.pinhole_diameter,
    )
    header = [
        f"# config_digest={run.digest}",
        f"# spdcsim {__version__} sweep axis={scan.axis}",
        "# columns: waist_um, pearson",
    ]
    _write(args.out, header, [_csv_rows([(waist * 1e6, pearson) for waist, pearson in results])])
    print(f"sweep {scan.axis}: {args.steps} waists in [{args.wmin}, {args.wmax}] um -> {args.out}")
    return 0


def cmd_transition(args) -> int:
    run = _load(args)
    scan = run.config.scan
    plan = _plan_from(run)
    waist = find_sign_transition(
        scan.axis,
        args.wlo * 1e-6,
        args.whi * 1e-6,
        args.tol * 1e-6,
        run.system,
        plan=plan,
        points=scan.points,
        pinhole_diameter=run.pinhole_diameter,
    )
    print(f"transition_waist_um={format_number(waist * 1e6)}")
    if args.out:
        header = [
            f"# config_digest={run.digest}",
            f"# spdcsim {__version__} transition axis={scan.axis}",
            "# columns: wlo_um, whi_um, tol_um, transition_waist_um",
        ]
        _write(args.out, header, [_csv_rows([(args.wlo, args.whi, args.tol, waist * 1e6)])])
    return 0


def _check_material(config, base_dir):
    model = load_crystal_material(config, base_dir)
    lo, hi = model.valid_range_um
    grid = np.linspace(lo * 1.001, hi * 0.999, 64) * 1e-6
    for lam in grid:
        n_o = model.ordinary(float(lam))
        n_e = model.principal_extraordinary(float(lam))
        if not (n_o > 1.0 and n_e > 1.0):
            raise AssertionError(f"index <= 1 at {lam * 1e6:.4f} um")
    step = (hi - lo) * 1e-6 * 1e-4
    for lam in grid[1:-1]:
        derivative = (model.ordinary(float(lam + step)) - model.ordinary(float(lam - step))) / (
            2 * step
        )
        if not math.isfinite(derivative):
            raise AssertionError("non-finite index derivative")
    return f"{model.name}: n>1 and smooth on [{lo}, {hi}] um"


def _check_mismatch(config, base_dir):
    geom = resolve(config, base_dir=base_dir).system.geometry
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(64):
        qex, qey, qox, qoy = rng.uniform(-5e4, 5e4, 4)
        oe, oo = rng.uniform(-1e13, 1e13, 2)
        q_e = TransverseWavevector(qx=qex, qy=qey)
        q_o = TransverseWavevector(qx=qox, qy=qoy)
        d1 = mismatch_transverse_y(q_e, oe, q_o, oo, geom)
        dk = mismatch_longitudinal(q_e, oe, q_o, oo, geom)
        # independent term-by-term restatement
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
        scale = max(abs(d1_ref), abs(dk_ref), 1.0)
        worst = max(worst, abs(d1 - d1_ref) / scale, abs(dk - dk_ref) / scale)
    if worst > 1e-12:
        raise AssertionError(f"mismatch re-evaluation off by {worst:.2e}")
    return f"64 random points, worst relative deviation {worst:.2e}"


def _check_walkoff(config, base_dir):
    crystal = UniaxialCrystal(
        sellmeier=load_crystal_material(config, base_dir),
        cut_angle=math.radians(config.crystal.cut_angle_deg),
    )
    lam = config.filters.center_nm * 1e-9
    step = 1e-6
    worst = 0.0
    for theta_deg in range(5, 90, 5):
        theta = math.radians(theta_deg)
        analytic = dispersion.walkoff_angle(crystal, lam, theta)
        n = dispersion.index_extraordinary(crystal, lam, theta)
        fd = -(
            dispersion.index_extraordinary(crystal, lam, theta + step)
            - dispersion.index_extraordinary(crystal, lam, theta - step)
        ) / (2 * step) / n
        worst = max(worst, abs(analytic - fd))
    if worst > 1e-8:
        raise AssertionError(f"walk-off deviates from finite difference by {worst:.2e}")
    return f"theta in [5, 85] deg, worst |analytic - FD| = {worst:.2e}"


def _check_group_slowness(config, base_dir):
    crystal = UniaxialCrystal(
        sellmeier=load_crystal_material(config, base_dir),
        cut_angle=math.radians(config.crystal.cut_angle_deg),
    )
    lam = config.filters.center_nm * 1e-9
    worst = 0.0
    for pol in ("ordinary", "extraordinary"):
        value = dispersion.group_slowness(crystal, lam, pol)
        omega = 2 * math.pi * dispersion.C_LIGHT / lam
        d_omega = 1e-7 * omega
        if pol == "ordinary":
            index = lambda w: dispersion.index_ordinary(
                crystal, 2 * math.pi * dispersion.C_LIGHT / w
            )
        else:
            index = lambda w: dispersion.index_extraordinary(
                crystal, 2 * math.pi * dispersion.C_LIGHT / w, crystal.cut_angle
            )
        oracle = (
            index(omega + d_omega) * (omega + d_omega)
            - index(omega - d_omega) * (omega - d_omega)
        ) / (2 * d_omega) / dispersion.C_LIGHT
        worst = max(worst, abs(value - oracle) / abs(oracle))
    if worst > 1e-6:
        raise AssertionError(f"group slowness deviates from d(n w)/dw by {worst:.2e}")
    return f"both polarizations, worst relative deviation {worst:.2e}"


def _worst_against_quadrature(system):
    """Worst relative gap of the closed form to the trapezoid on 5x5 momentum samples."""
    offsets = np.linspace(-2e4, 2e4, 5)
    worst = 0.0
    for qa in offsets:
        for qb in offsets:
            q_A = TransverseWavevector(qx=0.0, qy=float(qa))
            q_B = TransverseWavevector(qx=0.0, qy=float(qb))
            closed = spatial_biphoton(
                q_A, q_B, system, DetectionAssignment.E_AT_A, method="closed_form"
            )
            quad = integrate_quadrature(
                q_A, q_B, system, DetectionAssignment.E_AT_A, check_convergence=False
            )
            if abs(closed) > 0:
                worst = max(worst, abs(closed - quad) / abs(closed))
    if worst > 1e-6:
        raise AssertionError(f"closed form vs quadrature off by {worst:.2e}")
    return f"5x5 momentum samples, worst relative deviation {worst:.2e}"


def _check_closed_form(config, base_dir):
    system = resolve(config, base_dir=base_dir).system
    return _worst_against_quadrature(replace(system, mode="gaussian_approx"))


def _check_depth_closed_form(config, base_dir):
    system = resolve(config, base_dir=base_dir).system
    return _worst_against_quadrature(replace(system, mode="exact_sinc"))


def _check_filter_roundtrip(config, base_dir):
    from .trace import SpectralFilter

    filt = SpectralFilter.from_fwhm_nm(config.filters.center_nm, config.filters.fwhm_nm)
    error = abs(filt.fwhm_nm - config.filters.fwhm_nm) / config.filters.fwhm_nm
    if error > 1e-12:
        raise AssertionError(f"FWHM round trip off by {error:.2e}")
    return f"sigma = {filt.sigma:.6e} rad/s, round-trip error {error:.2e}"


_CHECKS = [
    ("material-file", _check_material),
    ("mismatch-reevaluation", _check_mismatch),
    ("walkoff-finite-difference", _check_walkoff),
    ("group-slowness-oracle", _check_group_slowness),
    ("closed-form-vs-quadrature", _check_closed_form),
    ("exact-sinc-depth-vs-quadrature", _check_depth_closed_form),
    ("filter-roundtrip", _check_filter_roundtrip),
]


def cmd_check(args) -> int:
    if args.config:
        config = load_config(args.config)
        base_dir = Path(args.config).parent
    else:
        config = default_config()
        base_dir = None
    failures = 0
    for name, check in _CHECKS:
        try:
            detail = check(config, base_dir)
        except Exception as exc:  # report, never crash the report loop
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description=(
            "Simulate transverse-momentum coincidence distributions of "
            "noncollinear type-II down-converted photon pairs at the Fourier plane."
        ),
    )
    parser.add_argument("--version", action="version", version=f"spdcsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_assignment=True):
        p.add_argument("--config", help="YAML run configuration (defaults used if omitted)")
        p.add_argument("--axis", choices=("x", "y"), help="override scan axis")
        if with_assignment:
            p.add_argument(
                "--assignment", choices=("ea", "oa"), help="override detection assignment"
            )

    p_scan = sub.add_parser("scan", help="scan both detectors along one axis")
    common(p_scan)
    p_scan.add_argument("--out", required=True, help="output grid file (CSV)")
    p_scan.set_defaults(func=cmd_scan)

    p_sweep = sub.add_parser("sweep", help="pearson vs isotropic pump waist")
    common(p_sweep)
    p_sweep.add_argument("--wmin", type=float, required=True, help="smallest waist (um)")
    p_sweep.add_argument("--wmax", type=float, required=True, help="largest waist (um)")
    p_sweep.add_argument("--steps", type=int, required=True, help="number of waists")
    p_sweep.add_argument("--out", required=True, help="output table file (CSV)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_trans = sub.add_parser("transition", help="bisect the correlation sign change")
    common(p_trans)
    p_trans.add_argument("--wlo", type=float, required=True, help="bracket low (um)")
    p_trans.add_argument("--whi", type=float, required=True, help="bracket high (um)")
    p_trans.add_argument("--tol", type=float, required=True, help="waist tolerance (um)")
    p_trans.add_argument("--out", help="optional result file")
    p_trans.set_defaults(func=cmd_transition)

    p_check = sub.add_parser("check", help="run the built-in oracle cross-validations")
    p_check.add_argument("--config", help="YAML run configuration")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
