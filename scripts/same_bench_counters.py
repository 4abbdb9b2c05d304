#!/usr/bin/env python3
"""Checks that every committed bench snapshot reproduces exactly.

    python3 scripts/same_bench_counters.py [--bench-dir build/bench]
        [--results bench/results] [--min-time 0.01]

For each committed `BENCH_<name>.json` in the results directory it runs
`bench_<name>` from the bench directory unfiltered, writing its JSON to
a temporary directory through `--benchmark_out` (so the committed file
is never rewritten), and compares every field of every cell, in either
file, except google-benchmark's own timing fields (`iterations`,
`real_time`, `cpu_time`, `time_unit`, `items_per_second`).  The benches'
counters are simulated or otherwise deterministic, so a change meant to
move no event, byte or history line must leave them equal; a counter
added to a bench needs its snapshot refreshed by an unfiltered run.
Prints the first cell and field that differ per snapshot, or why the
bench could not be run (with its stderr), and exits 1 on any failure.
Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

IGNORED = {"iterations", "real_time", "cpu_time", "time_unit",
           "items_per_second"}


def cells(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}


def first_difference(committed, fresh):
    """Returns a description of the first differing cell field, or None."""
    for name in committed:
        if name not in fresh:
            return f"cell {name}: missing from the fresh run"
    for name in fresh:
        if name not in committed:
            return f"cell {name}: not in the committed snapshot"
    for name, want in committed.items():
        got = fresh[name]
        for key in sorted((set(want) | set(got)) - IGNORED):
            if want.get(key) != got.get(key):
                return (f"cell {name} field {key}: committed "
                        f"{want.get(key)!r}, fresh {got.get(key)!r}")
    return None


def check(snap, binary, results, min_time, tmp):
    """Returns a failure description for one snapshot, or None."""
    if not os.path.isfile(binary):
        return f"no bench binary {binary}"
    out = os.path.join(tmp, snap)
    run = subprocess.run(
        [binary, f"--benchmark_out={out}", "--benchmark_out_format=json",
         f"--benchmark_min_time={min_time}"],
        cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    if run.returncode != 0 or not os.path.isfile(out):
        tail = "\n".join(run.stderr.splitlines()[-20:])
        return f"{os.path.basename(binary)} exited {run.returncode}:\n{tail}"
    return first_difference(cells(os.path.join(results, snap)), cells(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", default="build/bench",
                    help="directory holding the bench_* binaries")
    ap.add_argument("--results", default="bench/results",
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--min-time", default="0.01",
                    help="--benchmark_min_time per cell (default 0.01)")
    args = ap.parse_args()

    snapshots = sorted(f for f in os.listdir(args.results)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not snapshots:
        sys.exit(f"no BENCH_*.json in {args.results}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for snap in snapshots:
            stem = snap[len("BENCH_"):-len(".json")]
            binary = os.path.abspath(
                os.path.join(args.bench_dir, "bench_" + stem))
            failure = check(snap, binary, args.results, args.min_time, tmp)
            if failure:
                failed = True
                print(f"{snap}: FAILS: {failure}")
            else:
                n = len(cells(os.path.join(args.results, snap)))
                print(f"{snap}: same ({n} cells)")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
