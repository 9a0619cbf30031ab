import math
from pathlib import Path

import pytest

from spdcsim.cli import format_number, main

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


def test_transition_same_sign_bracket_fails(tmp_path, fast_config, capsys):
    rc = main([
        "transition", "--config", str(fast_config), "--axis", "y",
        "--wlo", "200", "--whi", "500", "--tol", "1",
    ])
    assert rc == 1
    assert "same sign" in capsys.readouterr().err


# ---------------------------------------------------------------- check

def test_check_passes_on_defaults(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 4
    assert all(l.startswith("PASS") for l in lines)


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
