#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base old/*.json --new new/*.json

Each file is a result record run.py writes to .bench_build/results/.
Medians are taken per workload over each set.  A metric whose change
exceeds its BENCHMARK.json bound is a regression or an improvement; inside
the bound it is the same.  When any two results' machine fingerprints
differ, the numbers are printed without a verdict.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        spec = json.load(f)
    return {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}


def compare(base, new, bounds):
    """Rows {workload, metric, base, new, verdict, note} for every metric
    the two result sets share, medians per workload and trace mode."""
    fingerprints = [r["fingerprint"] for r in base + new]
    diff = sorted({k for fp in fingerprints[1:]
                   for k in m.fingerprint_diff(fingerprints[0], fp)})
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in base})
    for workload, trace in keys:
        def group(results):
            return [r for r in results
                    if (r["workload"], r["trace"]) == (workload, trace)]
        a, b = group(base), group(new)
        if not b:
            continue
        for name in a[0]["metrics"]:
            if not all(name in r["metrics"] for r in a + b):
                continue
            med_a = statistics.median(r["metrics"][name]["value"] for r in a)
            med_b = statistics.median(r["metrics"][name]["value"] for r in b)
            row = {"workload": workload, "metric": name, "base": med_a,
                   "new": med_b, "verdict": None, "note": ""}
            if diff:
                row["note"] = "fingerprints differ (%s): no verdict" % \
                    ", ".join(diff)
            elif name in bounds and "bound" in bounds[name]:
                row["verdict"] = m.verdict(bounds[name], med_a, med_b)
            else:
                row["note"] = "no bound"
            rows.append(row)
    return rows


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    rows = compare(load(args.base), load(args.new), load_bounds())
    regressions = 0
    for r in rows:
        print("%-18s %-32s %14.6g -> %14.6g  %s%s" % (
            r["workload"], r["metric"], r["base"], r["new"],
            r["verdict"] or "", r["note"]))
        regressions += r["verdict"] == "regression"
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
