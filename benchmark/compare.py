#!/usr/bin/env python3
"""Compares benchmark result sets of a parent commit and a change.

    python3 benchmark/compare.py --parent P.json [P2.json ...] --change C.json [C2.json ...]

Each argument is a result set written by `run.py` (every workload), or
PATH:INDEX for one set of a file that holds {"sets": [...]}, such as
results/seed1.json.  Several sets per side are repeated runs; give them
in the order they ran, alternating sides, so that set i of the parent
pairs with set i of the change.  Bounds come from BENCHMARK.json.

Protocol metrics (everything measured in simulated ticks, messages,
bytes or slots) repeat exactly for the same seeds, so they are compared
exactly: equal is `unchanged`, better is `improved`, and worse by more
than the bound is `regressed`.  The wall metrics (ops_per_s, setup_s,
peak_rss_mb) are noisy; their samples are paired in order and a change
is `improved` only when it wins at least 9 in 10 pairs and its median
beats the parent's by more than the parent's interquartile range.  A
median worse by more than the bound is `regressed`, unless the parent's
own spread is wider than the bound, which makes it `unresolved` (so is a
metric with no regression whose spread is wider than the bound).  Any
failed op on the change side is a regression.  Exits 1 on a regression.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WALL = {"ops_per_s", "setup_s", "peak_rss_mb"}


def load(arg):
    path, _, index = arg.partition(":")
    data = json.loads(Path(path).read_text())
    if "sets" in data:
        return data["sets"][int(index or 0)]
    return data


def wall_outcome(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else [pm] * 3
    iqr = q[2] - q[0]
    gain = sign * (cm - pm)  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    noisy = iqr / pm > bound
    if gain > 0 and wins >= 0.9 * len(pairs) and gain > iqr:
        outcome = "improved"
    elif all(sign * (c - p) > 0 for c in change for p in parent):
        outcome = "improved"
    elif all(sign * (c - p) < 0 for c in change for p in parent) and -gain / pm > bound:
        outcome = "regressed"
    elif -gain / pm > bound:
        outcome = "unresolved" if noisy else "regressed"
    else:
        outcome = "unresolved" if noisy else "unchanged"
    return outcome, (cm - pm) / pm, f"{wins}/{len(pairs)} wins, parent IQR {100 * iqr / pm:.1f}%"


def exact_outcome(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.fmean(parent), statistics.fmean(change)
    if cm == pm:
        return "unchanged", 0.0, ""
    rel = (cm - pm) / pm if pm else float("inf")
    if sign * (cm - pm) > 0:
        return "improved", rel, ""
    return ("regressed" if abs(rel) > bound else "unchanged"), rel, "within bound"


def compare(parents, changes, spec):
    metrics = spec["end_to_end"]
    regressions = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        ps = [s["workloads"].get(w) for s in parents]
        cs = [s["workloads"].get(w) for s in changes]
        print(f"\n{w}")
        if any(r is None or "metrics" not in r for r in ps + cs):
            print("  missing or failed on one side: regressed")
            regressions += 1
            continue
        if any(r["seeds"] != ps[0]["seeds"] for r in ps + cs):
            print("  note: the sides ran different seeds; protocol metrics differ by seed")
        failed = sum(r["failed"] for r in cs)
        if failed:
            print(f"  failed ops on the change side: {failed}: regressed")
            regressions += 1
        for m in metrics:
            name = m["name"]
            if name in WALL:
                p = [x for r in ps for x in r["samples"][name]]
                c = [x for r in cs for x in r["samples"][name]]
                outcome, rel, note = wall_outcome(p, c, m["better"], m["bound"])
            else:
                p = [r["metrics"][name]["value"] for r in ps]
                c = [r["metrics"][name]["value"] for r in cs]
                outcome, rel, note = exact_outcome(p, c, m["better"], m["bound"])
            regressions += outcome == "regressed"
            print(f"  {name:<20} {outcome:<11} {100 * rel:+8.2f}%  "
                  f"(bound {100 * m['bound']:g}%){'  ' + note if note else ''}")
    return regressions


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--spec", default=str(SPEC), help="BENCHMARK.json with the bounds")
    a = p.parse_args()
    spec = json.loads(Path(a.spec).read_text())
    regressions = compare([load(x) for x in a.parent], [load(x) for x in a.change], spec)
    print(f"\n{regressions} regression(s)" if regressions else "\nno regression")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
