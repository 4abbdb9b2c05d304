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
byte or history line must leave them equal.  Prints every field that
differs, per workload and seed, and exits 1 on any difference.  Standard
library only.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["block_storm", "block_snap", "mp_lossy", "hybrid_mixed",
             "shards_wide"]
IGNORED = {"wall_ns"}


def differing_fields(a, b):
    """Returns every field but `wall_ns` where a and b differ."""
    return [f"field {key}: {a.get(key)!r} vs {b.get(key)!r}"
            for key in sorted((set(a) | set(b)) - IGNORED)
            if a.get(key) != b.get(key)]


def records(binary, workload, seeds):
    """Returns one record per seed, and every way a seed's records differ
    from each other (each field once per seed)."""
    out = subprocess.run(
        [binary, "e2e", "--workload", workload, "--seeds", seeds,
         "--seconds", "0.1"],
        check=True, capture_output=True, text=True).stdout
    data = json.loads(out.strip().splitlines()[-1])
    by_seed, problems = {}, []
    for rec in [data["warmup"]] + data["runs"]:
        for diff in differing_fields(by_seed.setdefault(rec["seed"], rec),
                                     rec):
            problem = f"{binary} seed {rec['seed']}: runs differ, {diff}"
            if problem not in problems:
                problems.append(problem)
    return by_seed, problems


def differences(parent, change):
    """Returns every differing field of every seed."""
    out = []
    for seed in sorted(set(parent) | set(change)):
        if seed not in parent or seed not in change:
            out.append(f"seed {seed}: no record from one binary")
            continue
        out += [f"seed {seed} {diff}"
                for diff in differing_fields(parent[seed], change[seed])]
    return out


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
        diffs = p_err + c_err + differences(parent, change)
        print(f"{w}: {'DIFFERS' if diffs else 'same'}")
        for diff in diffs:
            print(f"  {diff}")
        differ = differ or bool(diffs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
