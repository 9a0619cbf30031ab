import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcsim import cli, default_config, resolve
from spdcsim.analysis import JointDistribution, auto_plan, run_scan
from spdcsim.cli import _grid_rows, _plan_from, format_number, format_numbers, main
from spdcsim.config import load_config
from spdcsim.trace import DetectionAssignment

from test_analysis import quadrature_scan

FAST_CONFIG = "scan:\n  points: 16\n"


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FAST_CONFIG)
    return path


def read_summary(path):
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------- formatting

def test_format_number_rules():
    assert format_number(0.0) == "0"
    assert format_number(0.5) == "0.5"
    assert format_number(-0.001) == "-0.001"
    assert format_number(10000.0) == "10000"
    assert "e" in format_number(10001.0)
    assert "e" in format_number(5e-4)
    assert "e" not in format_number(9999.5)
    assert format_number(2.5e-4) == "2.500000000000e-04"


def reference_number(value):
    """The number rule written per value: the oracle of the array formatter."""
    if value == 0:
        return "0"
    if not math.isfinite(value):
        return repr(float(value))
    magnitude = abs(value)
    if 1e-3 <= magnitude <= 1e4:
        return f"{value:.12g}"
    return f"{value:.12e}"


SMALLEST_NORMAL = 2.2250738585072014e-308
EDGE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    SMALLEST_NORMAL, float(np.nextafter(SMALLEST_NORMAL, 0.0)),
    *(
        sign * float(edge)
        for sign in (1.0, -1.0)
        for threshold in (1e-3, 1e4)
        for edge in (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, math.inf))
    ),
]
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=-SMALLEST_NORMAL, max_value=SMALLEST_NORMAL),
)


@given(st.lists(NUMBERS, max_size=64))
def test_format_numbers_follows_the_per_value_rule(values):
    expected = [reference_number(v) for v in values]
    assert format_numbers(np.array(values, dtype=float)) == expected
    assert [format_number(v) for v in values] == expected


def test_format_numbers_on_edge_values():
    assert format_numbers(EDGE_VALUES) == [reference_number(v) for v in EDGE_VALUES]
    assert format_numbers(np.reshape(EDGE_VALUES[:4], (2, 2))) == ["0", "0", "nan", "inf"]
    assert format_numbers([]) == []


def percent_path_targets(rng, size):
    """``size`` values, a quarter of each kind, with random signs, aimed at the
    cells the digit path leaves to ``%``: scaled values within 1e-3 of a
    half-integer at 12 digits (positional) and at 13 digits (exponent form,
    mostly with three-digit exponents), 10**k and its float neighbours for k in
    [-308, 308], and subnormals."""
    part = size // 4
    positional = (
        (rng.integers(10**11, 10**12, part) + 0.5 + rng.uniform(-1e-3, 1e-3, part))
        * 10.0 ** (rng.integers(-3, 4, part) - 11)
    )
    exponent = rng.choice(np.r_[-300:-3, 4:301], part)
    exponent_form = (
        (rng.integers(10**12, 10**13, part) + 0.5 + rng.uniform(-1e-3, 1e-3, part)) * 1e-12
    ) * 10.0**exponent
    decade = 10.0 ** rng.integers(-308, 309, part)
    decade = np.nextafter(decade, decade * rng.choice([0.0, 1.0, math.inf], part))
    subnormal = rng.uniform(0.0, SMALLEST_NORMAL, size - 3 * part)
    values = np.concatenate([positional, exponent_form, decade, subnormal])
    return values * rng.choice([-1.0, 1.0], size)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_format_numbers_near_the_percent_path(seed):
    values = percent_path_targets(np.random.default_rng(seed), 4096)
    with mock.patch.object(cli, "_percent_numbers", wraps=cli._percent_numbers) as percent:
        text = format_numbers(values)
    assert text == [reference_number(v) for v in values]
    # both paths write cells: every subnormal goes to %, and about 1100 of
    # the other values do not
    sent = sum(len(call.args[0]) for call in percent.call_args_list)
    assert 1024 <= sent <= 4096 - 512


def test_grid_text_matches_per_value_rows_over_blocks():
    # a grid with every kind of number on its axes and values, and a last
    # block that holds fewer rows than the others
    rng = np.random.default_rng(20261019)
    n_b = 200
    n_a = cli._BLOCK_CELLS // n_b + 9
    positions_a = np.linspace(-3e-3, 3e-3, n_a)
    positions_a[n_a // 2] = 0.0
    momenta_a = np.linspace(-5e4, 5e4, n_a)
    momenta_a[n_a // 3] = -0.0
    positions_b = np.r_[-1e-7, np.linspace(-8e-3, 8e-3, n_b - 2), 2.5e-4]
    momenta_b = np.linspace(-2e3, 2e5, n_b)
    kinds = [
        np.zeros(n_a * n_b),
        rng.uniform(0.0, 1.0, n_a * n_b),
        10 ** rng.uniform(-320, -3, n_a * n_b),
        rng.integers(1, 9, n_a * n_b) / 8,
        percent_path_targets(rng, n_a * n_b),
    ]
    values = np.abs(np.choose(rng.integers(0, len(kinds), n_a * n_b), kinds))
    values[0] = 1.0
    dist = JointDistribution(
        axis="y", assignment=DetectionAssignment.E_AT_A,
        positions_a=positions_a, positions_b=positions_b,
        momenta_a=momenta_a, momenta_b=momenta_b,
        values=values.reshape(n_a, n_b),
    )
    blocks = list(_grid_rows(dist))
    assert [block.count("\n") for block in blocks] == [(n_a - 9) * n_b, 9 * n_b]
    expected = "".join(
        ",".join(
            reference_number(v)
            for v in (positions_a[i], positions_b[j], momenta_a[i], momenta_b[j], dist.values[i, j])
        ) + "\n"
        for i in range(n_a)
        for j in range(n_b)
    )
    assert "".join(blocks) == expected


# ---------------------------------------------------------------- scan

def test_scan_grid_contract(tmp_path, fast_config):
    out = tmp_path / "grid.csv"
    rc = main(["scan", "--config", str(fast_config), "--axis", "y",
               "--assignment", "ea", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert lines[0].startswith("# config_digest=")
    assert len(rows) == 16 * 16
    assert all(len(row.split(",")) == 5 for row in rows)
    assert all(float(row.split(",")[4]) >= 0.0 for row in rows)
    assert any("columns" in h for h in header)

    summary = read_summary(tmp_path / "grid.csv.summary")
    assert (tmp_path / "grid.csv.summary").read_text().startswith("# config_digest=")
    assert float(summary["pearson"]) > 0.2


def test_scan_x_axis_reports_anticorrelation(tmp_path, fast_config):
    out = tmp_path / "grid_x.csv"
    rc = main(["scan", "--config", str(fast_config), "--axis", "x", "--out", str(out)])
    assert rc == 0
    summary = read_summary(tmp_path / "grid_x.csv.summary")
    assert float(summary["pearson"]) < -0.2


def test_scan_output_is_bitwise_reproducible(tmp_path, fast_config):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["scan", "--config", str(fast_config), "--out", str(out1)]) == 0
    assert main(["scan", "--config", str(fast_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_default_scan_matches_per_value_rows(tmp_path):
    # the default 64-point auto-window scan, rebuilt one value at a time
    out = tmp_path / "default.csv"
    assert main(["scan", "--out", str(out)]) == 0
    run = resolve(default_config())
    scan = run.config.scan
    plan = auto_plan(
        scan.axis,
        DetectionAssignment.parse(scan.assignment),
        run.system,
        scan.points,
        orthogonal=scan.orthogonal_mm * 1e-3,
    )
    dist = run_scan(plan, run.system, pinhole_diameter=run.pinhole_diameter)
    expected = [
        ",".join(
            reference_number(v)
            for v in (
                dist.positions_a[i],
                dist.positions_b[j],
                dist.momenta_a[i],
                dist.momenta_b[j],
                dist.values[i, j],
            )
        )
        for i in range(plan.points)
        for j in range(plan.points)
    ]
    text = out.read_text()
    assert text.endswith("\n")
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows == expected
    assert len(rows) == 64 * 64
    values = [row.rsplit(",", 1)[1] for row in rows]
    assert any("e" in v for v in values) and any("e" not in v for v in values)


@pytest.mark.parametrize("name", ["closed_form", "exact_sinc", "pulsed"])
def test_fixed_window_scan_matches_golden_output(tmp_path, name):
    # tests/data/golden holds each config with the scan and summary files it
    # gave; everything after the digest line must stay byte for byte the same
    golden = Path(__file__).parent / "data" / "golden"
    out = tmp_path / f"{name}.csv"
    assert main(["scan", "--config", str(golden / f"{name}.yaml"), "--out", str(out)]) == 0
    for suffix in ("", ".summary"):
        expected = (golden / f"{name}.csv{suffix}").read_bytes().split(b"\n")
        actual = Path(f"{out}{suffix}").read_bytes().split(b"\n")
        assert expected[0].startswith(b"# config_digest=")
        assert actual[1:] == expected[1:]


def test_exact_sinc_golden_grid_matches_quadrature_oracle():
    # the golden grid comes from the crystal-depth closed form; the frequency
    # trapezoid, an independent method, must reproduce it
    golden = Path(__file__).parent / "data" / "golden"
    run = resolve(load_config(golden / "exact_sinc.yaml"))
    plan = _plan_from(run)
    oracle = quadrature_scan(plan, run.system).values
    values = np.loadtxt(golden / "exact_sinc.csv", delimiter=",", comments="#")[:, 4]
    assert values.shape == (plan.points**2,)
    assert np.max(np.abs(values - oracle.ravel())) <= 1e-8 * values.max()


# ---------------------------------------------------------------- sweep

def test_sweep_table(tmp_path, fast_config):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--config", str(fast_config), "--axis", "y",
        "--wmin", "31", "--wmax", "500", "--steps", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert len(rows) == 5
    waists = [float(r[0]) for r in rows]
    assert waists == sorted(waists)
    assert float(rows[0][1]) > 0.0
    assert float(rows[-1][1]) < 0.0


def test_sweep_argument_validation(tmp_path, fast_config, capsys):
    rc = main([
        "sweep", "--config", str(fast_config), "--wmin", "100", "--wmax", "50",
        "--steps", "5", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------- transition

def test_transition_reports_bracketed_waist(tmp_path, fast_config, capsys):
    out = tmp_path / "transition.csv"
    rc = main([
        "transition", "--config", str(fast_config), "--axis", "y",
        "--wlo", "31", "--whi", "500", "--tol", "1", "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("transition_waist_um=")
    waist = float(line.split("=", 1)[1])
    assert 31.0 < waist < 500.0
    assert out.read_text().startswith("# config_digest=")


def test_transition_with_a_tolerance_below_the_float_spacing_ends(tmp_path, capsys):
    rc = main(["transition", "--wlo", "31", "--whi", "500", "--tol", "1e-20"])
    assert rc == 0
    waist = float(capsys.readouterr().out.strip().split("=", 1)[1])
    assert 31.0 < waist < 500.0


def test_transition_same_sign_bracket_fails(tmp_path, fast_config, capsys):
    rc = main([
        "transition", "--config", str(fast_config), "--axis", "y",
        "--wlo", "200", "--whi", "500", "--tol", "1",
    ])
    assert rc == 1
    assert "same sign" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["transition", "--wlo", "31", "--whi", "500", "--tol", "nan"],
        ["transition", "--wlo", "31", "--whi", "500", "--tol", "inf"],
        ["sweep", "--wmin", "31", "--wmax", "inf", "--steps", "5"],
    ],
)
def test_non_finite_waist_or_tolerance_fails(tmp_path, fast_config, capsys, argv):
    out = ["--out", str(tmp_path / "out.csv")]
    rc = main([*argv, "--config", str(fast_config), "--axis", "y", *out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------- check

def test_check_passes_on_defaults(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 4
    assert all(l.startswith("PASS") for l in lines)
    assert any(l.startswith("PASS exact-sinc-depth-vs-quadrature:") for l in lines)


def test_check_names_failing_check_for_corrupt_material(tmp_path, capsys):
    (tmp_path / "broken.yaml").write_text("name: broken\nformula_id: mystery\n")
    config = tmp_path / "run.yaml"
    config.write_text("crystal:\n  material_file: broken.yaml\n")
    rc = main(["check", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 1
    assert any(l.startswith("FAIL material-file") for l in out.splitlines())


# ---------------------------------------------------------------- errors

def test_invalid_config_yields_single_line_diagnostic(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("crystal:\n  length_mm: -4\n")
    rc = main(["scan", "--config", str(config), "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "crystal.length_mm" in err
    assert len(err.splitlines()) == 1
