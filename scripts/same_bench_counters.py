#!/usr/bin/env python3
"""Checks that every committed bench snapshot reproduces exactly.

    python3 scripts/same_bench_counters.py [--bench-dir build/bench]
        [--results bench/results] [--min-time 0.01]

For each committed `BENCH_<name>.json` in the results directory it runs
`bench_<name>` from the bench directory unfiltered, writing its JSON to
a temporary directory through `--benchmark_out` (so the committed file
is never rewritten), and compares every field of every cell, in either
file, except google-benchmark's own timing fields (IGNORED).  The
benches' counters are simulated or otherwise deterministic, so a change
meant to move no event, byte or history line must leave them equal.
Then it checks every CLAIMS row on the committed snapshot, which a
refresh (an unfiltered run with `--benchmark_out=bench/results/
BENCH_<name>.json`) must still satisfy.  Prints the first differing
cell field per snapshot (or the bench's stderr, if it could not run)
and every cell that fails a claim; exits 1 on any failure (stdlib only).
"""

import argparse
import json
import operator
import os
import subprocess
import sys
import tempfile

IGNORED = {"iterations", "real_time", "cpu_time", "time_unit",
           "items_per_second"}

# The experiments' claims, as data: (snapshot, cell-name substring,
# field, relation, bound).  A row applies to every cell whose name holds
# the substring; its bound is a constant, or (substring, field): that
# field of the one cell whose name holds that substring.
REC, SHARD, BYZ, MP, DYN = (
    f"BENCH_{n}.json" for n in
    ("recovery", "sharding", "byzantine", "multiproposer", "dyntoken"))
ONE_GROUP = "groups:1/cross:0/accounts:16/"
CLAIMS = [
    # E20: snapshots plus pruning bound the retained log.
    (REC, "interval:0/", "snapshot_bytes", "==", 0),
    (REC, "interval:0/", "pruned_slots", "==", 0),
    (REC, "interval:2/prune:1/", "snapshot_bytes", ">", 0),
    (REC, "interval:2/prune:1/", "pruned_slots", ">", 0),
    (REC, "interval:2/prune:1/", "retained_log_bytes", "<",
     ("interval:0/", "retained_log_bytes")),
    # E22, E29: the busiest of four groups beats one total order.
    (SHARD, ONE_GROUP, "slots", "==", (ONE_GROUP, "group_slots_max")),
    (SHARD, "groups:4/cross:10/accounts:16/", "group_slots_max", "<",
     (ONE_GROUP, "slots")),
    (SHARD, "groups:4/cross:10/", "cross_ops", ">", 0),
    # E24, E25: one proof and one branch per equivocation, no slots.
    *((BYZ, "equivocators:1/", field, "==", 1) for field in
      ("conflict_proofs", "quarantined_origins", "equivocation_commits")),
    (BYZ, "equivocators:0/", "conflict_proofs", "==", 0),
    (BYZ, "/", "consensus_slots", "==", 0),
    (BYZ, "/", "committed", "==", ("lane:0/fault:0/", "committed")),
    # E26, E27: four leaderless proposers commit the storm in fewer slots.
    *((MP, f"proposers:4/fault:{f}/", "slots", "<",
       (f"proposers:1/fault:{f}/", "slots")) for f in (0, 2, 4)),
    (MP, "proposers:4/fault:2/", "commit_p99", "<",
     ("proposers:1/fault:2/", "commit_p99")),
    (MP, "proposers:4/fault:2/", "miss_recoveries", ">", 0),
    # E10: per-account spender groups cost fewer messages per op than
    # one global order, at every multi-spender share.
    *((DYN, f"DynPerAccount/{p}", "msgs_per_op", "<",
       (f"DynGlobalOrder/{p}", "msgs_per_op")) for p in (0, 25, 50, 100)),
]
RELATIONS = {"==": operator.eq, "<": operator.lt, ">": operator.gt}


def cells(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}


def first_difference(committed, fresh):
    """Returns a description of the first differing cell field, or None."""
    for name in sorted(committed.keys() ^ fresh.keys()):
        where = "the fresh run" if name in committed else "the snapshot"
        return f"cell {name}: missing from {where}"
    for name, want in committed.items():
        got = fresh[name]
        for key in sorted((set(want) | set(got)) - IGNORED):
            if want.get(key) != got.get(key):
                return (f"cell {name} field {key}: committed "
                        f"{want.get(key)!r}, fresh {got.get(key)!r}")


def claim_failures(snap, snapshot):
    """Yields a description of each failing cell of each CLAIMS row."""
    for _, part, field, rel, bound in (c for c in CLAIMS if c[0] == snap):
        want, shown = bound, repr(bound)
        if isinstance(bound, tuple):
            refs = [c for name, c in snapshot.items() if bound[0] in name]
            want = refs[0].get(bound[1]) if len(refs) == 1 else None
            shown = f"{want!r} (the {bound[0]} cell's {bound[1]})"
        names = [name for name in snapshot if part in name]
        for name in names or [f"<none holds {part}>"]:
            got = snapshot.get(name, {}).get(field)
            if got is None or want is None or not RELATIONS[rel](got, want):
                yield (f"cell {name} field {field}: "
                       f"{got!r} {rel} {shown} does not hold")


def check(snap, binary, committed, min_time, tmp):
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
    return first_difference(committed, cells(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", default="build/bench",
                    help="directory holding the bench_* binaries")
    ap.add_argument("--results", default="bench/results",
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--min-time", default="0.01",
                    help="--benchmark_min_time per cell (default 0.01)")
    args = ap.parse_args()

    # A missing snapshot that CLAIMS names fails: no cell matches.
    snapshots = sorted({f for f in os.listdir(args.results)
                        if f.startswith("BENCH_") and f.endswith(".json")}
                       | {c[0] for c in CLAIMS})
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for snap in snapshots:
            path = os.path.join(args.results, snap)
            committed = cells(path) if os.path.isfile(path) else {}
            binary = os.path.abspath(os.path.join(
                args.bench_dir, "bench_" + snap[len("BENCH_"):-len(".json")]))
            failure = check(snap, binary, committed, args.min_time, tmp)
            claims = list(claim_failures(snap, committed))
            rows = sum(c[0] == snap for c in CLAIMS)
            print(f"{snap}: FAILS: {failure}" if failure else
                  f"{snap}: same ({len(committed)} cells), {rows} claims")
            for claim in claims:
                print(f"{snap}: CLAIM FAILS: {claim}")
            failed = failed or failure is not None or bool(claims)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
