#!/usr/bin/env python3
"""Determinism self-test: two traced runs at one seed must give identical counts and outputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py --seed 7 [--workload NAME ...]

Each traced run already compares its own two traced passes; this test
compares two separate processes. Counts (calls, cells, evals, tap
operations, bytes written, transition scans) are the only per-layer numbers
that may be cited as exact, so they must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes")


def traced_run(workload: str, seed: int) -> tuple[dict, list]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed:\n{proc.stdout}")
    result_file = next(l.split(": ", 1)[1] for l in lines if l.startswith("# result file: "))
    digests = json.loads(Path(result_file).read_text())["raw"]["output_digests"]
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in COUNT_UNITS}
    return counts, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", nargs="*", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    args = parser.parse_args()
    failed = False
    for workload in args.workload:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        differing = sorted(k for k in first[0] if first[0][k] != second[0].get(k))
        same_outputs = first[1] == second[1]
        ok = not differing and same_outputs
        failed |= not ok
        print(f"{workload}: {'PASS' if ok else 'FAIL'} {len(first[0])} counts"
              f"{', differing: ' + ', '.join(differing) if differing else ' identical'}; "
              f"outputs {'identical' if same_outputs else 'DIFFER'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
