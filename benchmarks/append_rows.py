"""Append the rows of a pytest-benchmark run to a committed ``BENCH_*.json`` file.

``--benchmark-json`` writes a whole file, so pointing it at a committed
``BENCH_*.json`` would replace the rows of every earlier change. Write the
run elsewhere, then append its rows, from the repository root:

    python -m pytest benchmarks/test_pipeline_bench.py --benchmark-json /tmp/run.json
    python benchmarks/append_rows.py /tmp/run.json BENCH_pipeline.json --revision "after: ..."

Each appended row gets ``revision`` and ``run_datetime`` (the run's own
start time) in its ``extra_info``, and ``pair`` when ``--pair`` is given,
so that the rows of alternating parent and change runs can be matched.
Rows already in the file stay as they are: the file's other keys are kept,
and the new rows go after the old ones. A missing file is created from the
run.
"""

import argparse
import json
import os
from pathlib import Path


def appended(run: dict, target: dict | None, revision: str, pair: int | None) -> dict:
    """``target`` with the rows of ``run`` appended, each tagged; ``run`` itself when no target."""
    tags = {"revision": revision, "run_datetime": run["datetime"]}
    if pair is not None:
        tags["pair"] = pair
    rows = [{**row, "extra_info": {**row["extra_info"], **tags}} for row in run["benchmarks"]]
    if target is None:
        return {**run, "benchmarks": rows}
    return {**target, "benchmarks": target["benchmarks"] + rows}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", type=Path, help="file written by pytest --benchmark-json")
    parser.add_argument("target", type=Path, help="the BENCH_*.json file to append to")
    parser.add_argument("--revision", required=True, help="what was measured, e.g. 'after: ...'")
    parser.add_argument("--pair", type=int, help="index of an alternating parent/change pair")
    args = parser.parse_args(argv)
    run = json.loads(args.run.read_text())
    target = json.loads(args.target.read_text()) if args.target.exists() else None
    text = json.dumps(appended(run, target, args.revision, args.pair), indent=4)
    # write a sibling file, then rename it over the target: an interrupted run leaves the old file
    partial = args.target.with_name(args.target.name + ".partial")
    partial.write_text(text)
    os.replace(partial, args.target)
    print(f"appended {len(run['benchmarks'])} rows to {args.target}")


if __name__ == "__main__":
    main()
