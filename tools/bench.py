"""Benchmark HEAD against a git ref with the unmodified perfbench.

    python tools/bench.py [--ref REF] [--pairs K] --out BENCH_<n>.json

Extracts REF (by default HEAD~1) and HEAD with `git archive`, each into a
fresh temporary directory, so neither tree starts with a bytecode cache or
a perfbench output, and the record names the exact commits it measured:
commit a change before benchmarking it.  For each of K pairs (by default
10) and each workload in perfbench/workloads, it runs

    python3 perfbench/run.py --workload W --seed P --seconds S --trace 0

on both trees, S being BENCHMARK.json's run_seconds and P the pair's
index, REF's tree first in even pairs and HEAD's first in odd pairs, and
reads the run's .perfbench_out/W/result.json.  After the pairs it runs
one traced benchmark per workload on both trees, REF's first,

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 1

whose per-layer values are medians over its traced children.  The output
holds, per workload and tree, the median and interquartile range of each
end-to-end metric that BENCHMARK.json declares (run_s, setup_s,
peak_rss_mb, ok_frac) with the values per pair, whether perfbench found
every output correct, and perfbench's env line of the first pair; the
traced run's per-layer medians (null for a layer the workload does not
reach) and whether it found every output correct; per workload, the
number of pairs in which HEAD's value is better, in the direction
BENCHMARK.json gives; and the name and git sha of both commits.  Stdlib
only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_runs import extract

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "opinet-bench/2"
COMMAND = ("python3 perfbench/run.py --workload W --seed P --seconds S "
           "--trace 0")
TRACE_COMMAND = ("python3 perfbench/run.py --workload W --seed 0 "
                 "--seconds S --trace 1")
ABSENT = -1   # perfbench's value of a layer that never ran


def commit(ref):
    """The name of ref and the sha of the commit it names."""
    sha = subprocess.run(["git", "rev-parse", ref + "^{commit}"], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True, text=True)
    return {"name": ref, "sha": sha.stdout.strip()}


def run_once(tree, workload, seed, seconds, trace=0):
    """perfbench's result.json of one run on tree."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds",
                    str(seconds), "--trace", str(trace)], cwd=tree,
                   stdout=subprocess.DEVNULL, check=True)
    with open(tree / ".perfbench_out" / workload / "result.json") as fh:
        return json.load(fh)


def summary(values):
    """Median and interquartile range of values, with the values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "values": values}


def shown(value):
    return "absent" if value is None else "%.4g" % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = sorted(p.stem for p in
                       (ROOT / "perfbench" / "workloads").glob("*.ini"))
    seconds = declared["run_seconds"]
    record = {
        "schema": SCHEMA, "command": COMMAND,
        "trace_command": TRACE_COMMAND, "pairs": args.pairs,
        "seconds": seconds,
        "bytecode": "each tree starts without __pycache__; its first "
                    "child writes it unless PYTHONDONTWRITEBYTECODE is set",
        "ref": commit(args.ref), "change": commit("HEAD"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"ref": Path(tmp) / "ref", "change": Path(tmp) / "change"}
        for side, tree in trees.items():
            extract(record[side]["sha"], tree)
        results = {w: {side: [] for side in trees} for w in workloads}
        for pair in range(args.pairs):
            order = ["ref", "change"] if pair % 2 == 0 else ["change", "ref"]
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, pair,
                                      seconds)
                    results[workload][side].append(result)
                    print("pair %d %s %s: %s" % (
                        pair, workload, side,
                        {m: result["metrics"][m]["value"] for m in better}),
                        flush=True)
        traced = {w: {} for w in workloads}
        for workload in workloads:
            for side, tree in trees.items():
                traced[workload][side] = run_once(tree, workload, 0, seconds,
                                                  trace=1)
                print("traced %s %s: correct %s" % (
                    workload, side, traced[workload][side]["correct"]),
                    flush=True)
    for workload, sides in results.items():
        entry = {}
        for side, runs in sides.items():
            entry[side] = {
                "env": runs[0]["env"],
                "correct": [r["correct"] for r in runs],
                "metrics": {m: summary([r["metrics"][m]["value"]
                                        for r in runs]) for m in better},
                "traced": {
                    "correct": traced[workload][side]["correct"],
                    "metrics": {
                        m: None if v["value"] == ABSENT else v["value"]
                        for m, v in
                        traced[workload][side]["metrics"].items()}}}
        entry["change_better"] = {}
        for m, direction in better.items():
            sign = -1 if direction == "lower" else 1
            entry["change_better"][m] = sum(
                sign * (new - old) > 0 for old, new in
                zip(entry["ref"]["metrics"][m]["values"],
                    entry["change"]["metrics"][m]["values"]))
        record["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for m in better:
            print("%-18s %-12s ref %-10.4g change %-10.4g better in %d/%d"
                  % (workload, m, entry["ref"]["metrics"][m]["median"],
                     entry["change"]["metrics"][m]["median"],
                     entry["change_better"][m], args.pairs))
        for m, old in entry["ref"]["traced"]["metrics"].items():
            new = entry["change"]["traced"]["metrics"][m]
            if old is not None or new is not None:
                print("%-18s %-27s ref %-10s change %-10s (traced)"
                      % (workload, m, shown(old), shown(new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
