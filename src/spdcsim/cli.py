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

# Byte tables of the digit path. A value's text fills a 32-byte row, 0 where blank:
# byte 0 the sign, 1-5 the integer digits with leading zeros blank, 6 the point,
# 8-19 fraction digits 1-12, 20-23 fraction digits 13-16 or the exponent's first
# four characters, and 24 the last digit of a three-digit exponent.
_CHUNK_TEXT = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + ord("0")
# four fraction digits as one word: chunk c at c, and at 10_000 + c with trailing zeros blank
_FRACTION = np.concatenate([
    _CHUNK_TEXT,
    _CHUNK_TEXT * np.logical_or.accumulate(_CHUNK_TEXT[:, ::-1] > ord("0"), axis=1)[:, ::-1],
]).view(np.uint32).ravel()
# bytes 0-7 for the integer part u (0 to 10_000): at u without the point, at 10_001 + u with it
_units = np.arange(10_001)
_head = np.zeros((2, 10_001, 8), np.uint8)
_head[:, -1, 1] = ord("1")
_head[:, :, 2:6] = _CHUNK_TEXT[_units % 10_000] * (
    (_units[:, None] >= 10 ** np.arange(3, -1, -1)) | (np.arange(4) == 3)
)
_head[1, :, 6] = ord(".")
_HEAD = _head.view(np.uint64).ravel()
# bytes 20-27 of exponent e at e + 300
_EXPONENT = np.frombuffer(
    b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-300, 301)), np.uint32
).reshape(-1, 2)
# 10**k at 300 + k, correctly rounded as float() rounds a decimal literal
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 309)])
_POW10_INT = 10 ** np.arange(8)


def _percent_numbers(values) -> list[str]:
    """Text of each value of a 1-D float array by printf-style ``%``, per kind of number."""
    zero = values == 0
    values = np.where(zero, 0.0, values)  # positional +0.0 prints as "0"
    magnitude = np.abs(values)
    kind = (zero | ((magnitude >= 1e-3) & (magnitude <= 1e4))).astype(np.intp)
    kind[~np.isfinite(values)] = 2
    # no formatted number holds a newline, so one %-format of the joined specs splits back
    return ("\n".join(_NUMBER_SPECS[kind].tolist()) % tuple(values.tolist())).split("\n")


def _number_bytes(values) -> np.ndarray:
    """Text of every value by the rule of ``format_numbers``, as a (cells, width) uint8 matrix.

    Each row holds one value's ASCII text at fixed columns, padded with 0;
    columns that are 0 in every row are dropped. The digits come from integer
    arithmetic. With p = 12 significant digits positional and 13 in exponent
    form, and e = floor(log10|x|), the scaled value s = |x| * 10**(p - 1 - e)
    rounds to the p-digit mantissa, whose four-digit chunks index byte tables.
    ``%.12g``'s trailing zeros, and its point, are blanked chunk by chunk.

    s carries two roundings of at most 2**-53 each, one in the table's
    10**(p - 1 - e) and one in the product, so it is within 2.0001 * 2**-53 * s
    of the exact scaled value, and within 2.3e-3 since s < 1e13. A cell goes to
    printf-style ``%`` (``_percent_numbers``) when s lies within
    delta = 2**-50 * s, four times that bound, of a half-integer; everywhere
    else rint(s) is the correctly rounded mantissa that ``%`` prints. Cells go
    to ``%`` too when the rounded s has not p digits (log10 was off by one at a
    power of ten, or rounding carried into a new digit), and zeros, non-finite
    values and magnitudes outside [1e-290, 1e290] always do.
    """
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    in_range = (magnitude >= 1e-290) & (magnitude <= 1e290)
    magnitude[~in_range] = 1.0
    positional = (magnitude >= 1e-3) & (magnitude <= 1e4)
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = magnitude * _POW10[312 - exponent - positional]
    top = 1e13 - 9e12 * positional  # 10**p
    mantissa = np.rint(scaled)
    to_percent = ~in_range | (np.abs(scaled - np.floor(scaled) - 0.5) < scaled * 2.0**-50)
    to_percent |= (scaled < top / 10) | (mantissa >= top)
    mantissa[to_percent] = 0  # keeps every table index below in range
    # 10**14 times the value (positional) or 100 times the mantissa (exponent form)
    fixed = mantissa.astype(np.int64) * _POW10_INT[np.where(positional, exponent + 3, 2)]
    whole = fixed // 10**14
    fraction = (fixed - whole * 10**14) * 100  # 16 fraction digits
    chunks = []
    for scale in (10**12, 10**8, 10**4):
        chunks.append(fraction // scale)
        fraction -= chunks[-1] * scale
    chunks.append(fraction)
    cells = np.empty((x.size, 8), np.uint32)
    blank = positional.copy()  # %.12g and every later chunk zero
    for word, chunk in zip((5, 4, 3, 2), reversed(chunks)):
        cells[:, word] = _FRACTION[chunk + 10_000 * blank]
        blank &= chunk == 0
    cells.view(np.uint64)[:, 0] = _HEAD[whole + 10_001 * ~blank]
    cells[:, 6:] = 0
    exponent_form = np.flatnonzero(~positional)
    cells[exponent_form, 5:7] = _EXPONENT[exponent[exponent_form] + 300]
    text = cells.view(np.uint8)
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    percent = np.flatnonzero(to_percent)
    if percent.size:
        text[percent] = 0
        printed = np.array(_percent_numbers(x[percent]), dtype="S20")
        # from the units column on, where the digit path's text lies too
        text[percent, 5:25] = printed.view(np.uint8).reshape(-1, 20)
    columns = cells.view(np.uint64).T
    used = np.array([np.bitwise_or.reduce(column) for column in columns]).view(np.uint8)
    return text[:, used > 0]


def _text(block: np.ndarray) -> str:
    """The ASCII text of a uint8 array with its 0 bytes dropped."""
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _csv_text(cells: np.ndarray, columns: int) -> str:
    """CSV lines of ``_number_bytes`` rows, ``columns`` to a line."""
    rows = cells.reshape(len(cells) // columns, columns, cells.shape[1])
    block = np.empty(rows.shape[:2] + (rows.shape[2] + 1,), np.uint8)
    block[..., :-1] = rows
    block[..., -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    return _text(block)


def format_numbers(values) -> list[str]:
    """Locale-free text of every value, from integer digit arithmetic.

    Twelve significant digits, positional inside [1e-3, 1e4] in magnitude and
    exponent outside it; ``0`` for either zero and ``repr`` for non-finite values.
    Each value reads as printf-style ``%.12g``, ``%.12e`` or ``%r`` gives it
    (``_number_bytes`` says how).
    """
    return _csv_text(_number_bytes(values), 1).split("\n")[:-1]


def format_number(value: float) -> str:
    """Locale-free text of one value, by the rule of ``format_numbers``."""
    return format_numbers(value)[0]


def _load_config(args):
    """The ``--config`` file's config and directory, or the defaults and None."""
    if args.config:
        return load_config(args.config), Path(args.config).parent
    return default_config(), None


def _load(args) -> ResolvedRun:
    config, base = _load_config(args)
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
    return _csv_text(_number_bytes(table), np.shape(table)[1])


# grid cells per block of CSV text: a block's memory does not grow with the grid
_BLOCK_CELLS = 2**14


def _grid_rows(dist):
    """CSV text of a scan grid, in blocks of whole A rows of about ``_BLOCK_CELLS`` cells.

    Each axis is formatted once. A block is one (rows, N_B, width) byte array
    whose lines hold x_A, x_B, q_A, q_B and S at fixed columns, 0-padded, with
    their commas and newline; its text is that array with the 0 bytes dropped.
    """
    x_a, x_b, q_a, q_b = (
        _number_bytes(axis)
        for axis in (dist.positions_a, dist.positions_b, dist.momenta_a, dist.momenta_b)
    )
    n_b = len(x_b)
    # the column after each axis field's comma
    ends = np.cumsum([field.shape[1] + 1 for field in (x_a, x_b, q_a, q_b)])
    step = max(1, _BLOCK_CELLS // n_b)
    for start in range(0, len(x_a), step):
        rows = slice(start, start + step)
        values = _number_bytes(dist.values[rows])
        line = np.zeros((n_b, ends[-1] + values.shape[1] + 1), np.uint8)
        line[:, ends[0] : ends[1] - 1] = x_b
        line[:, ends[2] : ends[3] - 1] = q_b
        line[:, ends - 1] = ord(",")
        line[:, -1] = ord("\n")
        block = np.empty((len(values) // n_b, *line.shape), np.uint8)
        block[:] = line
        block[:, :, : ends[0] - 1] = x_a[rows, np.newaxis]
        block[:, :, ends[1] : ends[2] - 1] = q_a[rows, np.newaxis]
        block[:, :, ends[3] : -1] = values.reshape(len(block), n_b, -1)
        yield _text(block)


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

    pearson, angle, peak_a, peak_b = format_numbers(
        [summary.pearson, math.degrees(summary.principal_angle), *summary.peak]
    )
    summary_lines = [
        f"# config_digest={run.digest}",
        f"axis: {plan.axis}",
        f"assignment: {plan.assignment.value}",
        f"pearson: {pearson}",
        f"principal_angle_deg: {angle}",
        f"peak_q_a: {peak_a}",
        f"peak_q_b: {peak_b}",
    ]
    _write(str(args.out) + ".summary", summary_lines)
    print(
        f"scan {plan.axis}/{plan.assignment.value}: pearson={summary.pearson:+.4f} "
        f"angle={math.degrees(summary.principal_angle):+.2f} deg -> {args.out}"
    )
    return 0


def cmd_sweep(args) -> int:
    run = _load(args)
    if not -math.inf < args.wmin < args.wmax < math.inf:
        raise ValueError("sweep needs finite wmin < wmax")
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
    q_A = TransverseWavevector(qx=0.0, qy=offsets[:, np.newaxis])
    q_B = TransverseWavevector(qx=0.0, qy=offsets[np.newaxis, :])
    closed = spatial_biphoton(q_A, q_B, system, DetectionAssignment.E_AT_A)
    quad = integrate_quadrature(
        q_A, q_B, system, DetectionAssignment.E_AT_A, check_convergence=False
    )
    magnitude = np.abs(closed)
    nonzero = magnitude > 0
    worst = float(np.max(np.abs(closed - quad)[nonzero] / magnitude[nonzero], initial=0.0))
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
    config, base_dir = _load_config(args)
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

    def common(p):
        p.add_argument("--config", help="YAML run configuration (defaults used if omitted)")
        p.add_argument("--axis", choices=("x", "y"), help="override scan axis")
        p.add_argument("--assignment", choices=("ea", "oa"), help="override detection assignment")

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
