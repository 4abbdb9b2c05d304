#!/usr/bin/env python3
"""One-table digest of the BENCH_*.json artifacts (no deps).

Usage:
    python3 scripts/bench_summary.py [file.json ...]

With no arguments, summarizes every BENCH_*.json under bench/results/
(the tracked artifact path) and, if present, under build/bench/ (the
most recent local run).  Each google-benchmark entry becomes one row:

    file | benchmark (with its name-embedded axes) | wall time per
    iteration | ops/sec (items_per_second) | schedule counters if the
    bench recorded them (waves, escalated, parallelism)

The point is comparability across PRs: run the benches, commit the
refreshed JSON under bench/results/, and diff this table.  See
README.md "Reading the benchmarks" for the JSON schema itself.
"""
import glob
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_files():
    out = sorted(glob.glob(os.path.join(REPO, "bench", "results",
                                        "BENCH_*.json")))
    out += sorted(glob.glob(os.path.join(REPO, "build", "bench",
                                         "BENCH_*.json")))
    return out


def fmt_time(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f} {unit}"
    return f"{ns:.0f} ns"


def fmt_rate(per_sec):
    if per_sec >= 1e6:
        return f"{per_sec / 1e6:.2f} M/s"
    if per_sec >= 1e3:
        return f"{per_sec / 1e3:.1f} k/s"
    return f"{per_sec:.1f} /s"


def rows_for(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        extras = []
        # Schedule counters (bench_parallel_exec), the block-pipeline
        # counters (bench_block_pipeline: per-block schedule shape and the
        # consensus-slot amortization of the replicated sweep), the
        # lane-split counters (bench_hybrid_lanes: consensus slots vs
        # fast-lane commits vs the all-Paxos baseline's message bill),
        # the wire-size counters (every SimNet bench via
        # export_net_counters, plus bench_compact_relay's consensus-value
        # bytes and kGet recovery count), the recovery counters
        # (bench_recovery: snapshot/prune/catch-up accounting), and the
        # sharding counters (bench_sharding: per-group consensus slots
        # and the 2PC/migration protocol volume), the Byzantine
        # counters (bench_byzantine: what the respend defense caught),
        # and the multi-proposer counters (bench_multiproposer:
        # sub-block coverage per consensus slot and the racing-proposer
        # references the dedup guard dropped).
        for key in ("waves", "escalated", "parallelism", "blocks",
                    "waves_per_block", "slots", "ops_per_slot",
                    "commits_per_ktime", "consensus_slots",
                    "fast_lane_commits", "fast_share", "msgs_sent",
                    "bytes_sent", "bytes_delivered", "proposal_bytes",
                    "bytes_per_slot", "miss_recoveries",
                    "snapshot_bytes", "catchup_ops", "pruned_slots",
                    "retained_log_bytes", "groups", "group_slots_max",
                    "cross_ops", "cross_aborts", "migrations",
                    "conflict_proofs", "quarantined_origins",
                    "equivocation_commits", "subblocks_per_slot",
                    "dup_refs_dropped"):
            if key in b:
                extras.append(f"{key}={b[key]:.6g}")
        rows.append((os.path.basename(path),
                     b.get("name", "?"),
                     fmt_time(float(b.get("real_time", 0.0))),
                     fmt_rate(float(b.get("items_per_second", 0.0)))
                     if "items_per_second" in b else "-",
                     " ".join(extras)))
    return rows


def main():
    files = sys.argv[1:] or default_files()
    if not files:
        print("bench_summary: no BENCH_*.json found "
              "(run a bench/ binary first)")
        return 1
    rows = []
    for path in files:
        try:
            rows.extend(rows_for(path))
        except (OSError, ValueError) as e:
            print(f"bench_summary: skipping {path}: {e}", file=sys.stderr)
    if not rows:
        print("bench_summary: no benchmark entries in the given files")
        return 1
    headers = ("file", "benchmark", "time/iter", "items/sec", "schedule")
    widths = [max(len(headers[c]), max(len(r[c]) for r in rows))
              for c in range(len(headers))]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `bench_summary.py | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
