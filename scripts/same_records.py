#!/usr/bin/env python3
"""Checks that two tsbench binaries produce the same per-seed records.

    python3 scripts/same_records.py PARENT_TSBENCH CHANGE_TSBENCH [--seeds 7,8]

For each of the five workloads it runs

    tsbench e2e --workload W --seeds S --seconds 0.1

with both binaries and parses the last stdout line of each as JSON.
tsbench fits as many timed runs into those 0.1 s as wall time allows,
so the number of records per seed varies and is not compared.  Instead,
every record of one seed (the warmup and each run) must equal the
others of the same binary in every field except `wall_ns`, and that one
record per seed must be equal across the two binaries.  Simulated
counters are deterministic per seed, so a change meant to move no event,
byte or history line must leave them equal.  Prints the first field that
differs per workload and exits 1 on any difference.  Standard library
only.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["block_storm", "block_snap", "mp_lossy", "hybrid_mixed",
             "shards_wide"]
IGNORED = {"wall_ns"}


def differing_field(a, b):
    """Returns the first field but `wall_ns` where a and b differ, or None."""
    for key in sorted((set(a) | set(b)) - IGNORED):
        if a.get(key) != b.get(key):
            return f"field {key}: {a.get(key)!r} vs {b.get(key)!r}"
    return None


def records(binary, workload, seeds):
    """Returns one record per seed, and why a seed's records differ from
    each other (None when they agree)."""
    out = subprocess.run(
        [binary, "e2e", "--workload", workload, "--seeds", seeds,
         "--seconds", "0.1"],
        check=True, capture_output=True, text=True).stdout
    data = json.loads(out.strip().splitlines()[-1])
    by_seed, problem = {}, None
    for rec in [data["warmup"]] + data["runs"]:
        diff = differing_field(by_seed.setdefault(rec["seed"], rec), rec)
        if diff and problem is None:
            problem = f"{binary} seed {rec['seed']}: runs differ, {diff}"
    return by_seed, problem


def first_difference(parent, change):
    """Returns a description of the first differing field, or None."""
    for seed in sorted(set(parent) | set(change)):
        if seed not in parent or seed not in change:
            return f"seed {seed}: no record from one binary"
        diff = differing_field(parent[seed], change[seed])
        if diff:
            return f"seed {seed} {diff}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit's tsbench")
    ap.add_argument("change", help="the change's tsbench")
    ap.add_argument("--seeds", default="7,8",
                    help="comma-separated seeds (default 7,8)")
    args = ap.parse_args()

    differ = False
    for w in WORKLOADS:
        (parent, p_err), (change, c_err) = (
            records(binary, w, args.seeds)
            for binary in (args.parent, args.change))
        diff = p_err or c_err or first_difference(parent, change)
        print(f"{w}: {'same' if diff is None else 'DIFFERS: ' + diff}")
        differ = differ or diff is not None
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
