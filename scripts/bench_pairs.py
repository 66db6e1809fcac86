#!/usr/bin/env python3
"""Summarise alternating parent/change nsbench runs as a BENCH_<pr>.json file.

Each input line is one nsbench run:

    <side> <workload> <seed> <seconds> <nsbench result line>

where <side> is `parent` or `change`, <seed> and <seconds> are the run's
nsbench arguments, and the result line is the JSON object nsbench prints
last on stdout. Runs are paired in order within a workload (the k-th
parent run with the k-th change run, which must share its seed and
length); traced and untraced runs of a workload are summarised apart.
For example, ten alternating 40-s pairs of local_mix, with the two commits
checked out in ./parent and ./change:

    for seed in $(seq 11 20); do
      order="parent change"; [ $((seed % 2)) = 0 ] && order="change parent"
      for side in $order; do
        line=$(cd $side && cargo run --quiet --release --offline \\
            --manifest-path nsbench/Cargo.toml -- --workload local_mix \\
            --seed $seed --seconds 40 --trace 0 2>/dev/null | tail -n 1)
        echo "$side local_mix $seed 40 $line" >> runs.log
      done
    done
    python3 scripts/bench_pairs.py --pr <n> --parent-rev <rev> \\
        --change-rev <rev> runs.log

Both revs must name commits in this repository; the file records their
full object IDs. To measure a change before it is committed, stage it
(`git add`, so new files count), record it with `git stash create`, and
check that commit out as ./change (`git archive <id> | tar -x -C change`),
so the ID names exactly the code that ran.

For every metric the file records each side's runs, median and quartiles,
the relative change of the median, the parent's interquartile range, and
the pairs the change won by the metric's `better` direction in
BENCHMARK.json (ties count for neither side). `meets_gain_rule` says
whether the change won at least nine tenths of the pairs and its median
improved by more than the parent's interquartile range; `within_bound`,
for the end-to-end metrics, whether the change's median is no worse than
the parent's by more than the declared bound. The file also records the
two commit IDs, this host's CPU count (so run the script where the runs
were made), and per workload the seeds, the run length and each side's
attempted and failed operations. It is written as BENCH_<pr>.json at the
repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def read_runs(paths):
    """Returns {(workload, traced): {side: [((seed, seconds), result), ...]}}."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                fields = line.split(None, 4)
                if len(fields) != 5 or fields[0] not in SIDES:
                    sys.exit(f"{path}:{number}: want '<side> <workload> <seed> <seconds> <json>'")
                side, workload, seed, seconds, body = fields
                try:
                    result = json.loads(body)
                except json.JSONDecodeError as e:
                    sys.exit(f"{path}:{number}: not an nsbench result line: {e}")
                traced = "setup_s" not in result["metrics"]
                by_side = runs.setdefault((workload, traced), {s: [] for s in SIDES})
                by_side[side].append(((int(seed), int(seconds)), result))
    return runs


def commit_id(rev):
    """The full object ID of the commit `rev` names; exits if it names none."""
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{rev!r} names no commit in {ROOT}")
    return out.stdout.strip()


def quartiles(values):
    """Median and quartiles by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def side_summary(values):
    q1, median, q3 = quartiles(values)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(parent, change, declared):
    better = declared.get("better", "higher")
    sign = 1 if better == "higher" else -1
    p, c = side_summary(parent), side_summary(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    gain = sign * (c["median"] - p["median"])
    out = {
        "unit": declared.get("unit"),
        "better": better,
        "parent": p,
        "change": c,
        "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "parent_iqr": p["q3"] - p["q1"],
        "wins": wins,
        "pairs": len(parent),
        "meets_gain_rule": wins * 10 >= 9 * len(parent) and gain > p["q3"] - p["q1"],
    }
    if "bound" in declared:
        bound = declared["bound"]
        worst = p["median"] * (1 - bound) if sign > 0 else p["median"] * (1 + bound)
        out["bound"] = bound
        out["within_bound"] = sign * (c["median"] - worst) >= 0
    return out


def summarise(by_side, declared):
    parent, change = by_side["parent"], by_side["change"]
    if len(parent) != len(change):
        sys.exit(f"{len(parent)} parent runs against {len(change)} change runs")
    runs = [run for run, _ in parent]
    if runs != [run for run, _ in change]:
        sys.exit(f"pairs differ in (seed, seconds): {runs} vs {[run for run, _ in change]}")
    names = list(parent[0][1]["metrics"])
    metrics = {}
    for name in names:
        values = {
            side: [r["metrics"][name]["value"] for _, r in by_side[side]] for side in SIDES
        }
        metrics[name] = compare(values["parent"], values["change"], declared.get(name, {}))
    totals = {
        side: {
            "all_correct": all(r["correct"] for _, r in by_side[side]),
            "attempted": sum(r["attempted"] for _, r in by_side[side]),
            "failed": sum(r["failed"] for _, r in by_side[side]),
        }
        for side in SIDES
    }
    return {
        "pairs": len(runs),
        "seeds": [seed for seed, _ in runs],
        "seconds": sorted({seconds for _, seconds in runs}),
        **totals,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("logs", nargs="+", help="files of '<side> <workload> <seed> <seconds> <json>' lines")
    ap.add_argument("--pr", type=int, required=True, help="the change's number, naming BENCH_<pr>.json")
    ap.add_argument("--parent-rev", required=True, help="the commit the parent runs built")
    ap.add_argument("--change-rev", required=True, help="the commit the change runs built")
    args = ap.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    workloads = {}
    for (workload, traced), by_side in sorted(read_runs(args.logs).items()):
        key = f"{workload}:traced" if traced else workload
        workloads[key] = summarise(by_side, declared)
    report = {
        "pr": args.pr,
        "parent_rev": commit_id(args.parent_rev),
        "change_rev": commit_id(args.change_rev),
        "nproc": os.cpu_count(),
        "quartiles": "linear interpolation (statistics.quantiles, method='inclusive')",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    text = json.dumps(report, indent=2)
    # One line per list of numbers (the per-run values and the seeds).
    numbers = re.compile(r"\[\s+([^\[\]{}\"]*?)\s+\]")
    text = numbers.sub(lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    out.write_text(text + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
