#!/usr/bin/env python3
"""Checks that two tsbench binaries produce the same per-seed records.

    python3 scripts/same_records.py PARENT_TSBENCH CHANGE_TSBENCH [--seeds 7,8]

For each of the five workloads it runs

    tsbench e2e --workload W --seeds S --seconds 0.1

with both binaries, parses the last stdout line of each as JSON, and
compares every field of every record (the warmup and each run) except
`wall_ns`, grouped by seed.  Simulated counters are deterministic per
seed, so a change meant to move no event, byte or history line must
leave them equal.  Prints the first field that differs per workload and
exits 1 on any difference.  Standard library only.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["block_storm", "block_snap", "mp_lossy", "hybrid_mixed",
             "shards_wide"]
IGNORED = {"wall_ns"}


def records(binary, workload, seeds):
    out = subprocess.run(
        [binary, "e2e", "--workload", workload, "--seeds", seeds,
         "--seconds", "0.1"],
        check=True, capture_output=True, text=True).stdout
    data = json.loads(out.strip().splitlines()[-1])
    by_seed = {}
    for rec in [data["warmup"]] + data["runs"]:
        by_seed.setdefault(rec["seed"], []).append(rec)
    return by_seed


def first_difference(parent, change):
    """Returns a description of the first differing field, or None."""
    for seed in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get(seed, []), change.get(seed, [])
        if len(p_recs) != len(c_recs):
            return f"seed {seed}: {len(p_recs)} vs {len(c_recs)} records"
        for i, (p, c) in enumerate(zip(p_recs, c_recs)):
            for key in sorted((set(p) | set(c)) - IGNORED):
                if p.get(key) != c.get(key):
                    return (f"seed {seed} record {i} field {key}: "
                            f"{p.get(key)!r} vs {c.get(key)!r}")
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
        diff = first_difference(records(args.parent, w, args.seeds),
                                records(args.change, w, args.seeds))
        print(f"{w}: {'same' if diff is None else 'DIFFERS: ' + diff}")
        differ = differ or diff is not None
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
