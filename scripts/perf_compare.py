#!/usr/bin/env python3
"""Compare perfbench runs against the tracked baseline.

    python3 scripts/perf_compare.py --workload durable-10k run1.json run2.json ...

Each run file holds the stdout of one
`python3 perfbench/run.py --workload <w> --seed <n> --seconds 40 --trace 0`;
its last line is the result.  The script takes the median of every metric
over the runs and prints, per metric, the delta against each entry of
bench/baseline/perfbench.json for that workload.  A delta is marked
"better" or "worse" by the metric's direction in BENCHMARK.json, and
flagged when it is wider than the baseline's interquartile range.

    python3 scripts/perf_compare.py --workload durable-10k --record \\
        --label change --commit abc1234 run*.json

prints a baseline entry (median, IQR and pair count per metric) for those
runs, to paste into the baseline file.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baseline", "perfbench.json")


def load_run(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{path}: empty")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"{path}: the run was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs):
    out = {}
    for name in runs[0]:
        values = sorted(r[name] for r in runs)
        q1, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1}
    return out


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--record", action="store_true",
                    help="print a baseline entry for the runs instead")
    ap.add_argument("--label", default="runs")
    ap.add_argument("--commit", default="")
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args(argv)

    now = summarize([load_run(p) for p in args.runs])
    if args.record:
        entry = {"label": args.label, "commit": args.commit,
                 "workload": args.workload, "pairs": len(args.runs),
                 "metrics": {k: {"median": v["median"], "iqr": v["iqr"]}
                             for k, v in now.items()}}
        print(json.dumps(entry, indent=2))
        return 0

    with open(BASELINE) as f:
        entries = [e for e in json.load(f)["entries"]
                   if e["workload"] == args.workload]
    if not entries:
        sys.exit(f"no baseline entry for {args.workload}")
    better = directions()
    print(f"{args.workload}: median of {len(args.runs)} run(s)")
    for e in entries:
        print(f"\nagainst {e['label']} ({e['commit']}, {e['pairs']} runs)")
        print(f"  {'metric':<22} {'baseline':>14} {'now':>14} {'delta':>9}")
        for name, base in e["metrics"].items():
            if name not in now:
                continue
            b, n = base["median"], now[name]["median"]
            delta = (n - b) / b if b else 0.0
            verdict = ""
            if abs(n - b) > base["iqr"]:
                improved = (n < b) == (better.get(name) == "lower")
                verdict = "better" if improved else "worse"
            print(f"  {name:<22} {b:>14.6g} {n:>14.6g} {delta:>+8.1%}"
                  f"  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
