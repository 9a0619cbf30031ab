import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_append_rows_keeps_the_committed_rows(tmp_path):
    # appending a run must leave the text of every committed row as it was
    committed = (ROOT / "BENCH_quadrature.json").read_text()
    target = tmp_path / "BENCH_quadrature.json"
    target.write_text(committed)
    old = json.loads(committed)
    run = {**old, "datetime": "2026-01-02T03:04:05+00:00", "benchmarks": old["benchmarks"][:2]}
    (tmp_path / "run.json").write_text(json.dumps(run))
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "append_rows.py"), str(tmp_path / "run.json"),
         str(target), "--revision", "after: a test", "--pair", "3"],
        check=True, capture_output=True,
    )
    text = target.read_text()
    rows_end = committed.index('\n    ],\n    "datetime"')
    assert text.startswith(committed[:rows_end] + ",\n")
    assert text.endswith(committed[rows_end:])
    new = json.loads(text)
    assert new["benchmarks"][: len(old["benchmarks"])] == old["benchmarks"]
    added = new["benchmarks"][len(old["benchmarks"]):]
    assert [row["stats"] for row in added] == [row["stats"] for row in run["benchmarks"]]
    assert all(
        row["extra_info"] | {"revision": "after: a test", "run_datetime": run["datetime"], "pair": 3}
        == row["extra_info"]
        for row in added
    )
