#!/usr/bin/env python3
"""The tokensync benchmark: builds tsbench, runs the workloads, prints
every metric by name with its unit, and fails if any output is wrong.

One workload (the form of BENCHMARK.json's command; the last line of
stdout is one JSON object):

    python3 benchmark/run.py --workload block_storm --seed 3 --seconds 10 --trace 0

Every workload, with tables and a result set for compare.py:

    python3 benchmark/run.py [--seed S] [--seconds T] [--trace] [--smoke] [--out FILE]

The build goes to .bench_build/tsbench at the repository root.  A run of
one workload launches PROCESSES fresh tsbench processes one after the
other; each does an untimed warm-up run, then timed runs of its share of
the run's scenario seeds, cycling them until its share of --seconds is
spent.  --trace 1 runs the traced per-layer pass instead, in one process,
and writes benchmark/results/trace-<workload>.{jsonl,json}.  Standard
library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tsbench"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

PROCESSES = 3          # fresh processes per run: setup_s and peak RSS are medians over them
PROCESS_TIMEOUT_S = 170
MIN_LATENCY_SAMPLES = 1000  # p99 needs >= 10 samples beyond it
# Scenario seeds per run.  Run seed S drives scenario seeds K*S .. K*S+K-1,
# so runs with different seeds share none.  The protocol metrics are means
# over these K seeds; K is what one pass of a 15 s run fits, largest where
# seed-to-seed spread is widest (mp_lossy's loss pattern).
SEEDS_PER_RUN = {
    "block_storm": 16,
    "block_snap": 9,
    "mp_lossy": 40,
    "hybrid_mixed": 24,
    "shards_wide": 9,
}
WORKLOADS = list(SEEDS_PER_RUN)

# Run-record fields that are not a pure function of (workload, seed).
MACHINE_FIELDS = {"wall_ns"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build ----------------------------------------------------------------

def build():
    """Configures (once) and builds tsbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no tokensync sources at {ROOT}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [] if cache.is_file() else [["cmake", "-S", str(HERE), "-B", str(BUILD),
                                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]]
    steps.append(["cmake", "--build", str(BUILD), "--target", "tsbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "tsbench"


def tsbench(binary, args, timeout=PROCESS_TIMEOUT_S):
    """Runs one tsbench process; returns its JSON line."""
    try:
        out = subprocess.run([str(binary), *args], capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the child
        raise BenchError(f"tsbench {args[0]} timed out after {timeout} s") from e
    if out.returncode != 0:
        raise BenchError(f"tsbench exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- one workload -----------------------------------------------------------

def scenario_seeds(workload, seed, smoke):
    k = 1 if smoke else SEEDS_PER_RUN[workload]
    return [k * seed + j for j in range(k)]


def fingerprint(record):
    return {k: v for k, v in record.items() if k not in MACHINE_FIELDS}


class Checker:
    """The correctness gate: every run passes its audits, commits every op
    it submitted, and reproduces the same report for the same seed."""

    def __init__(self, smoke):
        self.smoke = smoke
        self.first = {}      # seed -> fingerprint of its first record
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, rec, timed=True):
        bad = []
        if not rec["ok"]:
            bad.append(f"audit failed: {rec['violation']}")
        if rec["committed"] != rec["submitted"]:
            bad.append(f"{rec['submitted'] - rec['committed']} ops not committed")
        if not self.smoke and rec["lat_count"] < MIN_LATENCY_SAMPLES:
            bad.append(f"only {rec['lat_count']} latency samples")
        fp = fingerprint(rec)
        if self.first.setdefault(rec["seed"], fp) != fp:
            bad.append("report differs from an earlier run of the same seed")
        if timed:
            self.attempted += rec["submitted"]
            self.failed += rec["submitted"] if bad else 0
        self.problems += [f"seed {rec['seed']}: {b}" for b in bad]

    def fail_all(self, why):
        self.problems.append(why)
        self.failed = self.attempted = max(self.attempted, 1)

    @property
    def correct(self):
        return not self.problems


def split_seeds(seeds, processes):
    """Every process times the first seed (the cross-process determinism
    check) plus its own share of the rest."""
    shares = []
    for i in range(processes):
        share = seeds[i::processes]
        shares.append(share if i == 0 else [seeds[0]] + share)
    return shares


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def e2e_metrics(records, processes):
    """The end-to-end metrics of one run (names and units as in BENCHMARK.json)."""
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], r)
    distinct = list(by_seed.values())
    committed = sum(r["committed"] for r in distinct)
    ops_per_s = [r["committed"] / (r["wall_ns"] / 1e9) for r in records]
    setup = [p["setup_s"] for p in processes]
    rss = [p["peak_rss_kb"] / 1024 for p in processes]

    def mean(field):
        return statistics.fmean(r[field] for r in distinct)

    metrics = {
        "ops_per_s": (statistics.median(ops_per_s), "ops/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "commit_mean_ticks": (mean("lat_mean"), "ticks"),
        "commit_p99_ticks": (mean("lat_p99"), "ticks"),
        "ops_per_ktick": (mean("commits_per_ktime"), "ops/ktick"),
        "msgs_per_op": (sum(r["sent"] for r in distinct) / committed, "msgs/op"),
        "bytes_per_op": (sum(r["bytes_sent"] for r in distinct) / committed, "B/op"),
        "slots_per_kop": (1000 * sum(r["slots"] for r in distinct) / committed, "slots/kop"),
    }
    samples = {"ops_per_s": ops_per_s, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def run_e2e(binary, workload, seed, seconds, smoke, processes):
    seeds = scenario_seeds(workload, seed, smoke)
    checker = Checker(smoke)
    outputs, records = [], []
    shares = split_seeds(seeds, processes)
    for share in shares:
        try:
            out = tsbench(binary, ["e2e", "--workload", workload,
                                   "--seeds", ",".join(map(str, share)),
                                   "--seconds", repr(seconds / len(shares))]
                          + (["--smoke"] if smoke else []))
        except (BenchError, ValueError) as e:
            checker.fail_all(str(e))
            break
        checker.check(out["warmup"], timed=False)
        for r in out["runs"]:
            checker.check(r)
        outputs.append(out)
        records += out["runs"]
    result = {"correct": checker.correct, "attempted": max(checker.attempted, 1),
              "failed": checker.failed, "problems": checker.problems, "seeds": seeds}
    if checker.correct:
        metrics, samples = e2e_metrics(records, outputs)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["samples"] = samples
        result["quartiles"] = {k: quartiles(v) for k, v in samples.items()}
        result["timed_runs"] = len(records)
    return result


def run_trace(binary, workload, seed, seconds, smoke, units):
    seeds = scenario_seeds(workload, seed, smoke)
    checker = Checker(smoke)
    RESULTS.mkdir(exist_ok=True)
    result = {"seeds": seeds}
    try:
        out = tsbench(binary, ["trace", "--workload", workload,
                               "--seeds", ",".join(map(str, seeds)),
                               "--seconds", repr(seconds), "--trace-dir", str(RESULTS)]
                      + (["--smoke"] if smoke else []))
        checker.check(out["warmup"])
        for r in out["runs"]:
            checker.check(r)
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in out["metrics"].items()}
        result["spans"] = out["spans"]
    except (BenchError, ValueError, KeyError) as e:
        checker.fail_all(str(e))
    result.update(correct=checker.correct, attempted=max(checker.attempted, 1),
                  failed=checker.failed, problems=checker.problems)
    return result


# --- output -------------------------------------------------------------------

def result_line(result):
    metrics = result.get("metrics", {}) if result["correct"] else {}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(results, first_column):
    """One row per metric, one column per workload ('-' where it failed)."""
    done = [r for r in results.values() if "metrics" in r]
    if not done:
        return
    print(f"\n{first_column:<34}{'unit':<16}" + "".join(f"{w:>14}" for w in results))
    for name, m in done[0]["metrics"].items():
        row = "".join(f"{r['metrics'][name]['value']:>14.6g}" if "metrics" in r
                      else f"{'-':>14}" for r in results.values())
        print(f"{name:<34}{m['unit']:<16}{row}")


def print_e2e(results):
    print_table(results, "metric")
    row = "".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
    print(f"{'failed_op_share':<34}{'fraction':<16}{row}")
    print("\nops_per_s quartiles (q1 / median / q3) over the timed runs:")
    for w, r in results.items():
        if "quartiles" in r:
            q = r["quartiles"]["ops_per_s"]
            print(f"  {w:<14} {q[0]:.6g} / {q[1]:.6g} / {q[2]:.6g}  ({r['timed_runs']} runs)")


# --- main ---------------------------------------------------------------------

def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and print one JSON result line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                   help="run the traced per-layer pass (alone with --workload, "
                        "after the end-to-end pass otherwise)")
    p.add_argument("--smoke", action="store_true",
                   help="1/50-size workloads, one process, one seed")
    p.add_argument("--bin", help="use this tsbench binary instead of building one")
    p.add_argument("--out", help="where to write the result set "
                                 "(default benchmark/results/latest.json)")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be >= 0")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if a.seconds is None:
        a.seconds = 1.0 if a.smoke else float(spec["run_seconds"])
    processes = 1 if a.smoke else PROCESSES

    try:
        binary = Path(a.bin) if a.bin else build()
    except BenchError as e:
        log(f"run.py: {e}")
        return 1

    if a.workload:
        if a.trace:
            result = run_trace(binary, a.workload, a.seed, a.seconds, a.smoke, units)
        else:
            result = run_e2e(binary, a.workload, a.seed, a.seconds, a.smoke, processes)
        for problem in result["problems"]:
            log(f"run.py: {a.workload}: {problem}")
        print(result_line(result))
        return 0 if result["correct"] else 1

    started = time.time()
    results = {}
    for w in WORKLOADS:
        t0 = time.time()
        results[w] = run_e2e(binary, w, a.seed, a.seconds, a.smoke, processes)
        log(f"run.py: {w}: {time.time() - t0:.1f} s, "
            f"{'ok' if results[w]['correct'] else 'FAILED'}")
    print_e2e(results)
    layers = {}
    if a.trace:
        for w in WORKLOADS:
            layers[w] = run_trace(binary, w, a.seed, a.seconds, a.smoke, units)
        print_table(layers, "per-layer metric")
    result_set = {"seed": a.seed, "seconds": a.seconds, "smoke": a.smoke,
                  "processes": processes, "workloads": results}
    if layers:
        result_set["layers"] = layers
    out = Path(a.out) if a.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_set, indent=1) + "\n")
    correct = True
    for w, r in [*results.items(), *layers.items()]:
        correct &= r["correct"]
        for problem in r["problems"]:
            log(f"run.py: {w}: {problem}")
    log(f"run.py: {time.time() - started:.0f} s; result set in {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
