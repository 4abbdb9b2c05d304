#!/usr/bin/env python3
"""Smoke test of the benchmark (ctest: tsbench_smoke).

Runs every workload at 1/50 size and checks that
  * tsbench's e2e output has the expected schema, every run passes its
    audits and commits every op it submitted;
  * two processes given the same seed report identical runs (wall time
    aside) — same-seed determinism across processes;
  * run.py's result line, end-to-end and traced, has exactly the keys
    and metric names BENCHMARK.json declares.

    python3 benchmark/smoke_test.py --bin .bench_build/tsbench/tsbench
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RECORD_KEYS = {"seed", "wall_ns", "ok", "violation", "submitted", "committed", "slots",
               "fast_lane_ops", "sim_time", "commits_per_ktime", "lat_count", "lat_mean",
               "lat_p50", "lat_p99", "sent", "delivered", "dropped", "duplicated",
               "bytes_sent", "proposal_bytes", "miss_recoveries", "snapshot_bytes",
               "pruned_slots", "groups", "group_slots_max", "cross_shard_ops",
               "cross_shard_aborts", "migrations", "subblocks_per_slot",
               "dup_refs_dropped", "history_bytes", "history_lines", "history_digest"}
MACHINE_FIELDS = {"wall_ns"}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def e2e(binary, workload):
    out = subprocess.run([binary, "e2e", "--workload", workload, "--seeds", "3,4",
                          "--seconds", "0", "--smoke"],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result_line(stdout, declared):
    line = json.loads(stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(line)}")
    check(line["correct"] is True and line["failed"] == 0, f"result {line}")
    check(isinstance(line["attempted"], int) and line["attempted"] >= 1, "attempted")
    check(list(line["metrics"]) == [m["name"] for m in declared],
          f"metric names {list(line['metrics'])}")
    for m in declared:
        value = line["metrics"][m["name"]]
        check(set(value) == {"value", "unit"} and value["unit"] == m["unit"],
              f"{m['name']}: {value}")
        check(isinstance(value["value"], (int, float)), f"{m['name']} is not a number")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bin", required=True)
    binary = p.parse_args().bin

    for w in (x["name"] for x in SPEC["workloads"]):
        first, second = e2e(binary, w), e2e(binary, w)
        check(set(first) == {"workload", "setup_s", "peak_rss_kb", "warmup", "runs"},
              f"{w}: keys {set(first)}")
        check(len(first["runs"]) == 2, f"{w}: {len(first['runs'])} timed runs")
        for r in [first["warmup"], *first["runs"]]:
            check(set(r) == RECORD_KEYS, f"{w}: record keys {set(r) ^ RECORD_KEYS}")
            check(r["ok"] and r["committed"] == r["submitted"] > 0, f"{w}: run {r}")
        for a, b in zip(first["runs"], second["runs"]):
            a, b = ({k: v for k, v in r.items() if k not in MACHINE_FIELDS} for r in (a, b))
            check(a == b, f"{w}: seed {a['seed']} differs between processes")
        print(f"{w}: ok")

    run = [sys.executable, str(HERE / "run.py"), "--bin", binary, "--smoke",
           "--workload", "block_snap", "--seed", "2"]
    out = subprocess.run(run, capture_output=True, text=True, check=True)
    check_result_line(out.stdout, SPEC["end_to_end"])
    out = subprocess.run(run + ["--trace", "1"], capture_output=True, text=True, check=True)
    check_result_line(out.stdout, SPEC["per_layer"])
    print("run.py result lines: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
