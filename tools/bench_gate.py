#!/usr/bin/env python3
"""Benchmark gate: a head checkout against a base checkout, on one machine.

    python3 tools/bench_gate.py run --base ../base --head . --out bench-out
    python3 tools/bench_gate.py compare --out bench-out [--inject PCT]

`run` builds and runs both checkouts on this machine and writes everything
under OUT; `compare` gates the head against the base from those files. Both
sides always come from the same machine and the same job, so a difference
between them is a difference between the two commits (plus noise), never
between two hosts.

What `run` measures, alternating base and head so a slow stretch of the
host weighs on both sides:

- Kernel micro-benches. Each tree's CMake project is configured (Release)
  into OUT/build-<side> and the benches in KERNEL_BENCHES are built. Each
  of ROUNDS runs every bench for base and head back to back, with the
  `--json` output in OUT/<side>/kernels/.
- The repository benchmark. Every workload of perfbench/ runs through that
  tree's unchanged `perfbench/run.py` once per seed in SEEDS, with
  `--seconds SECONDS` on both sides; the result files are copied to
  OUT/<side>/perfbench/. The seeds alternate which side runs first.

`compare` requires every result file `run` writes, on both sides: a
missing result fails the gate (exit 2), so no bench is skipped silently.
Then:

- Kernel benches: entries are keyed by (bench, config). Each round gives
  the geometric mean of head/base `millis` over the stable entries, and a
  bench fails when the median over rounds exceeds +15%. Entries named
  `p99` are warn-only.
- perfbench workloads: each workload's head and base result files go to
  perfbench/compare.py, unchanged. The gate fails on any `WORSE than bound`
  line (the end-to-end bounds of BENCHMARK.json) and on a non-zero exit
  (2: the files come from different set-ups).

Exit code: 0 pass, 1 regression, 2 missing results or refused comparison.

--inject PCT is the gate's self-test: every head metric is made PCT% worse
(kernel `millis` and lower-is-better perfbench metrics scaled by
1 + PCT/100, higher-is-better ones divided by it) before comparing, so CI
can check that a synthetic regression fails the gate. At 30 it must; 20 is
below perfbench's 0.25 bounds.

Stdlib only.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
# Kernel benches and the environment that sizes them. bench_plan_executor
# is the only bench that runs QueryRequest::Parallel plans.
KERNEL_BENCHES = {
    "bench_wah_multiway": {"INCDB_BENCH_ROWS": "100000"},
    "bench_simd_kernels": {"INCDB_BENCH_ROWS": "100000"},
    "bench_encodings": {"INCDB_BENCH_ROWS": "100000",
                        "INCDB_BENCH_QUERIES": "25"},
    "bench_plan_executor": {"INCDB_BENCH_ROWS": "200000"},
}
WORKLOADS = ("paper_reads", "served_ingest", "segment_lifecycle")
# On a shared host one run of a kernel bench can be 25% slower than the
# next, so it takes about twenty paired rounds for the median to settle
# within a few percent (EXPERIMENTS.md, "The bench gate").
ROUNDS = 20
THRESHOLD_PCT = 15.0
NOISY = re.compile("p99")
# perfbench runs are shorter than BENCHMARK.json's run_seconds to keep the
# job short; both sides use the same length, and the seeds alternate which
# side runs first.
SEEDS = (11, 22, 33)
SECONDS = 10
BENCH_TIMEOUT_S = 600
# perfbench/run.py stops its binary after 170 s; the first call also builds.
PERFBENCH_TIMEOUT_S = 1800


def kernel_file(out, side, bench, rnd):
    return os.path.join(out, side, "kernels", "%s-%d.json" % (bench, rnd))


def perfbench_file(out, side, workload, seed):
    return os.path.join(out, side, "perfbench",
                        "%s-seed%d.json" % (workload, seed))


def log(message):
    print(message, flush=True)


def execute(command, log_path, cwd=None, env=None, timeout=None):
    """Runs `command` with its output in `log_path`; True on exit code 0."""
    start = time.monotonic()
    with open(log_path, "w") as out:
        try:
            code = subprocess.run(command, cwd=cwd, env=env, stdout=out,
                                  stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    log("  %-62s %s (%.0f s)" % (
        os.path.basename(log_path)[:-len(".log")],
        "ok" if code == 0 else "FAILED: %s, see %s" % (code, log_path),
        time.monotonic() - start))
    return code == 0


def alternate(index):
    return SIDES if index % 2 == 0 else SIDES[::-1]


def build_kernel_benches(trees, out, logs):
    """Builds KERNEL_BENCHES in each tree; {side: build dir or None}."""
    jobs = str(min(4, os.cpu_count() or 1))
    builds = {}
    for side in SIDES:
        build = os.path.join(out, "build-" + side)
        ok = execute(
            ["cmake", "-S", trees[side], "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"],
            os.path.join(logs, "configure-%s.log" % side)) and execute(
            ["cmake", "--build", build, "-j", jobs, "--target"] +
            sorted(KERNEL_BENCHES),
            os.path.join(logs, "build-%s.log" % side))
        builds[side] = build if ok else None
    return builds


def run_kernel_benches(builds, out, logs):
    """Runs every kernel bench ROUNDS times per side; True if all ran."""
    ok = all(builds.values())
    for rnd in range(ROUNDS):
        for bench in sorted(KERNEL_BENCHES):
            env = dict(os.environ, **KERNEL_BENCHES[bench])
            for side in alternate(rnd):
                if builds[side] is None:
                    continue
                ok = execute(
                    [os.path.join(builds[side], "bench", bench), "--json",
                     kernel_file(out, side, bench, rnd)],
                    os.path.join(logs, "%s-%s-%d.log" % (side, bench, rnd)),
                    env=env, timeout=BENCH_TIMEOUT_S) and ok
    return ok


def run_workloads(trees, out, logs):
    """Runs every perfbench workload once per seed per side."""
    ok = True
    for index, seed in enumerate(SEEDS):
        for workload in WORKLOADS:
            for side in alternate(index):
                produced = os.path.join(
                    trees[side], ".bench_build", "perfbench-results",
                    "%s-seed%d.json" % (workload, seed))
                if os.path.exists(produced):
                    os.remove(produced)
                if execute(
                        [sys.executable, "perfbench/run.py", "--workload",
                         workload, "--seed", str(seed), "--seconds",
                         str(SECONDS), "--trace", "0"],
                        os.path.join(logs, "%s-%s-seed%d.log" % (
                            side, workload, seed)),
                        cwd=trees[side], timeout=PERFBENCH_TIMEOUT_S):
                    shutil.copy(produced,
                                perfbench_file(out, side, workload, seed))
                else:
                    ok = False
    return ok


def run(args):
    trees = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    out = os.path.abspath(args.out)
    # Results of an earlier run must not stand in for a failed one; the
    # build trees are kept so a rerun builds incrementally.
    for stale in SIDES + ("logs", "injected"):
        shutil.rmtree(os.path.join(out, stale), ignore_errors=True)
    logs = os.path.join(out, "logs")
    os.makedirs(logs)
    for side in SIDES:
        os.makedirs(os.path.join(out, side, "kernels"))
        os.makedirs(os.path.join(out, side, "perfbench"))

    log("building kernel benches")
    builds = build_kernel_benches(trees, out, logs)
    log("running kernel benches, %d rounds" % ROUNDS)
    ok = run_kernel_benches(builds, out, logs)
    log("running perfbench workloads, %d s per run" % SECONDS)
    ok = run_workloads(trees, out, logs) and ok
    return 0 if ok else 1


def load_kernel_results(path):
    """{(bench, config): millis} from one BENCH_*.json file."""
    with open(path) as f:
        doc = json.load(f)
    results = {}
    for entry in doc.get("results", []):
        key = (str(entry["bench"]), str(entry["config"]))
        if key in results:
            raise ValueError("%s: duplicate result key %s" % (path, key))
        results[key] = float(entry["millis"])
    return results


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_kernel_bench(name, base_rounds, head_rounds, inject_pct):
    """Applies the geomean rule to one bench. Returns (failed, lines).

    Base and head ran back to back in each round, so each round gives one
    geomean of head/base over the stable entries, and the bench fails when
    the median round geomean exceeds +THRESHOLD_PCT%. Pairing within a round
    matters: on a shared host one run of a bench can be 25% slower than
    the next, and all its entries with it.
    """
    limit = 1.0 + THRESHOLD_PCT / 100.0
    factor = 1.0 + inject_pct / 100.0

    def noisy(key):
        return bool(NOISY.search(key[0]) or NOISY.search(key[1]))

    entry_ratios = {}
    round_geomeans = []
    for base, head in zip(base_rounds, head_rounds):
        stable = []
        for key in base.keys() & head.keys():
            if base[key] <= 0.0 or head[key] <= 0.0:
                continue
            ratio = head[key] * factor / base[key]
            entry_ratios.setdefault(key, []).append(ratio)
            if not noisy(key):
                stable.append(ratio)
        if stable:
            round_geomeans.append(geomean(stable))
    lines = []
    for key in sorted(base_rounds[0].keys() ^ head_rounds[0].keys()):
        lines.append("  note  %s [%s]: only in %s" % (
            key[0], key[1], "base" if key in base_rounds[0] else "head"))
    median_ratio = {key: statistics.median(ratios)
                    for key, ratios in entry_ratios.items()}
    for key in sorted(k for k in median_ratio if noisy(k)):
        if median_ratio[key] > limit:
            lines.append("  WARN  %s [%s]: %+.1f%%, noisy metric, not gating"
                         % (key[0], key[1], (median_ratio[key] - 1) * 100))
    stable = [k for k in median_ratio if not noisy(k)]
    if not round_geomeans:
        lines.insert(0, "  FAIL  %s: no stable entries in common" % name)
        return True, lines
    verdict = statistics.median(round_geomeans)
    worst = max(stable, key=median_ratio.get)
    failed = verdict > limit
    lines.insert(0, "%6s  %s: geomean %+.1f%% (median of %d rounds, %+.0f%% "
                    "to %+.0f%%) over %d stable entries, threshold +%.0f%%; "
                    "worst entry %+.1f%% at %s [%s]" % (
                        "FAIL" if failed else "OK", name, (verdict - 1) * 100,
                        len(round_geomeans),
                        (min(round_geomeans) - 1) * 100,
                        (max(round_geomeans) - 1) * 100, len(stable),
                        THRESHOLD_PCT, (median_ratio[worst] - 1) * 100,
                        worst[0], worst[1]))
    return failed, lines


def inject_perfbench(path, dest, pct, better):
    """Writes a copy of a result file with every metric made pct% worse."""
    with open(path) as f:
        result = json.load(f)
    factor = 1.0 + pct / 100.0
    for name, metric in result[result["printed"]]["metrics"].items():
        if better.get(name) == "higher":
            metric["value"] /= factor
        else:
            metric["value"] *= factor
    with open(dest, "w") as f:
        json.dump(result, f)
    return dest


def compare(args):
    out = os.path.abspath(args.out)
    missing = [path for side in SIDES for path in (
        [kernel_file(out, side, b, r) for b in KERNEL_BENCHES
         for r in range(ROUNDS)] +
        [perfbench_file(out, side, w, s) for w in WORKLOADS
         for s in SEEDS]) if not os.path.isfile(path)]
    if missing:
        for path in missing:
            log("  MISSING  %s" % os.path.relpath(path, out))
        log("bench_gate: %d result file(s) missing; the gate cannot pass "
            "without them" % len(missing))
        return 2

    regressed = []
    log("kernel benches (%d rounds, base and head back to back):" % ROUNDS)
    for bench in sorted(KERNEL_BENCHES):
        base, head = ([load_kernel_results(kernel_file(out, side, bench, r))
                       for r in range(ROUNDS)] for side in SIDES)
        failed, lines = compare_kernel_bench(bench, base, head, args.inject)
        log("\n".join(lines))
        if failed:
            regressed.append(bench)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    refused = False
    for workload in WORKLOADS:
        files = {side: [perfbench_file(out, side, workload, s)
                        for s in SEEDS] for side in SIDES}
        if args.inject:
            injected = os.path.join(out, "injected")
            os.makedirs(injected, exist_ok=True)
            files["head"] = [inject_perfbench(
                path, os.path.join(injected, os.path.basename(path)),
                args.inject, better) for path in files["head"]]
        log("\nperfbench %s (%d seeds per side, %d s runs):" % (
            workload, len(SEEDS), SECONDS))
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "compare.py"),
             "--base"] + files["base"] + ["--head"] + files["head"],
            capture_output=True, text=True)
        log(proc.stdout.rstrip())
        if proc.stderr:
            log(proc.stderr.rstrip())
        if proc.returncode != 0:
            log("  FAIL  perfbench/compare.py exited %d" % proc.returncode)
            refused = True
        elif "WORSE than bound" in proc.stdout:
            regressed.append(workload)

    if refused:
        log("\nbench_gate: comparison refused")
        return 2
    if regressed:
        log("\nbench_gate: REGRESSION in %s. If this change is an "
            "intentional performance trade-off, say so in the PR and apply "
            "the `bench-baseline-update` label to skip this gate." %
            ", ".join(regressed))
        return 1
    log("\nbench_gate: %d kernel benches within +%.0f%% geomean and %d "
        "workloads within their BENCHMARK.json bounds" % (
            len(KERNEL_BENCHES), THRESHOLD_PCT, len(WORKLOADS)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Gate a head checkout against a base checkout built "
                    "and run on the same machine.")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="build and run both checkouts into OUT")
    run_parser.add_argument("--base", required=True,
                            help="checkout of the base commit")
    run_parser.add_argument("--head", required=True,
                            help="checkout of the head commit")
    run_parser.add_argument("--out", required=True,
                            help="output directory; earlier results in it "
                                 "are removed first")
    compare_parser = commands.add_parser(
        "compare", help="gate the head results in OUT against the base")
    compare_parser.add_argument("--out", required=True,
                                help="directory written by `run`")
    compare_parser.add_argument(
        "--inject", type=float, default=0.0, metavar="PCT",
        help="self-test: make every head metric PCT%% worse first")
    args = parser.parse_args()
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
