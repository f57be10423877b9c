#!/usr/bin/env python3
"""Compares benchmark result files of two builds.

    python3 perfbench/compare.py --base A1.json [A2.json ...] \\
                                 --head B1.json [B2.json ...]

Each file is a result written by the benchmark binary into
.bench_build/perfbench-results/. The script refuses to compare (exit 2)
when any two files disagree on a header field other than the commit and
the seed: a different host (nproc, SIMD level), build type, workload, size
or run length is not a difference between two builds. Otherwise it prints,
for every metric the files printed, each side's median over its files, the
ratio head/base and whether the change is worse than the metric's bound in
BENCHMARK.json (end-to-end metrics only; per-layer metrics have no bound).
"""

import argparse
import json
import os
import statistics
import sys

# Header fields that identify one run rather than the set-up it measured.
IDENTITY = {"commit", "seed"}


def load(path):
    with open(path) as f:
        result = json.load(f)
    return result["header"], result[result["printed"]]["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()

    runs = {side: [load(p) for p in paths]
            for side, paths in (("base", args.base), ("head", args.head))}
    reference = runs["base"][0][0]
    for side, results in runs.items():
        for (header, _), path in zip(results, getattr(args, side)):
            differing = sorted(
                k for k in set(header) | set(reference)
                if k not in IDENTITY and header.get(k) != reference.get(k))
            if differing:
                for k in differing:
                    print("header %s differs: %r in %s, %r in %s" % (
                        k, header.get(k), path, reference.get(k),
                        args.base[0]))
                print("refusing to compare results of different set-ups")
                sys.exit(2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    print("%-38s %14s %14s %8s  %s" % ("metric", "base", "head", "ratio",
                                       "verdict"))
    for name in sorted(runs["base"][0][1]):
        base = statistics.median(m[name]["value"] for _, m in runs["base"])
        head = statistics.median(m[name]["value"] for _, m in runs["head"])
        ratio = head / base if base else float("nan")
        verdict = ""
        spec = declared.get(name)
        if spec is not None and "bound" in spec and base:
            worse = (ratio - 1) if spec["better"] == "lower" else (1 - ratio)
            verdict = "WORSE than bound" if worse > spec["bound"] else "ok"
        print("%-38s %14.6g %14.6g %8.3f  %s" % (name, base, head, ratio,
                                                 verdict))


if __name__ == "__main__":
    main()
