#!/usr/bin/env python3
"""Output self-check of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the result contract, then runs every
workload at a tiny size (--tiny, 1 s), untraced and traced, and checks
that:

  * the last stdout line is one JSON object with exactly the keys
    correct, attempted, failed and metrics;
  * the run is correct, attempted >= 1 and failed == 0;
  * the metric names and units printed are exactly BENCHMARK.json's
    end_to_end set (untraced) or per_layer set (traced);
  * every end-to-end metric is a positive number, and each per-layer
    metric the workload exercises is non-zero;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py
    fail without printing a result.

Exits 0 when everything holds; prints each failure otherwise.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics each workload must move off zero (the layer -> metric
# map in perfbench/README.md).
EXERCISED = {
    "paper_reads": [
        "table.generate_s", "bitmap.build_ms.bee", "bitmap.build_ms.bre",
        "bitmap.build_ms.hier", "vafile.build_ms", "bitmap.bytes_per_row.bee",
        "bitmap.bytes_per_row.bre", "bitmap.bytes_per_row.hier",
        "vafile.bytes_per_row", "query.parse_us_p50", "plan.plan_us_p50",
        "plan.execute_ms_p50", "bitmap.bitvectors_per_query",
        "compression.words_touched_per_query", "vafile.useful_ratio",
        "core.snapshot_us_p50", "trace.overhead_ratio"],
    "served_ingest": [
        "table.generate_s", "bitmap.build_ms.bee", "bitmap.build_ms.bre",
        "plan.plan_us_p50", "plan.execute_ms_p50", "plan.delta_rows_per_query",
        "core.snapshot_us_p50", "core.insert_us_p50", "core.insert_us_p99",
        "core.delete_us_p50", "core.compact_ms_p50", "core.reclaimed_rows",
        "server.exec_p50_us", "server.wire_encode_us_p50",
        "server.wire_decode_us_p50", "server.queue_depth_max",
        "trace.overhead_ratio"],
    "segment_lifecycle": [
        "table.generate_s", "core.insert_us_p50", "core.insert_us_p99",
        "core.seal_ms_p50", "core.delete_us_p50", "core.compact_ms_p50",
        "core.segments_rebuilt", "core.reclaimed_rows",
        "plan.segments_pruned_ratio", "storage.save_ms_p50",
        "storage.bytes_written_per_save", "storage.files_written_per_save",
        "storage.open_verified_ms", "storage.open_unverified_ms",
        "storage.first_query_ms", "storage.store_bytes",
        "trace.overhead_ratio"],
}

failures = []


def fail(message):
    failures.append(message)
    print("FAIL: " + message)


def check_contract(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    if not 1 <= len(bench["paths"]) <= 16:
        fail("paths count")
    for path in bench["paths"]:
        if not re.match(r"^[A-Za-z0-9_./-]{1,200}$", path) or \
                path.startswith("/") or ".." in path.split("/"):
            fail("bad path %r" % path)
    if not (isinstance(bench["run_seconds"], int) and
            1 <= bench["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    if not 1 <= len(bench["end_to_end"]) <= 16:
        fail("end_to_end count")
    if not 1 <= len(bench["per_layer"]) <= 128:
        fail("per_layer count")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            fail("workload %s" % w)
        names.add(w["name"])
    for section, extra in (("end_to_end", {"bound"}), ("per_layer", set())):
        for m in bench[section]:
            if set(m) != {"name", "unit", "better"} | extra:
                fail("%s metric keys %s" % (section, m))
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail("metric name or unit %s" % m)
            if m["better"] not in ("lower", "higher"):
                fail("better of %s" % m["name"])
            if extra and not 0 < m["bound"] <= 0.25:
                fail("bound of %s" % m["name"])
            if m["name"] in names:
                fail("name used twice: %s" % m["name"])
            names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must have the largest bound")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json over 64 KiB")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(bench, workload, trace):
    label = "%s --trace %d" % (workload, trace)
    out = run(["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"])
    if out.returncode != 0:
        fail("%s exited %d: %s" % (label, out.returncode, out.stderr[-2000:]))
        return
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: last stdout line is not JSON" % label)
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            not isinstance(result["attempted"], int) or \
            result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed)
                       if declared[n] != printed[n])
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (label, missing, extra, units))
    for name, m in result["metrics"].items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail("%s: %s is not a finite number: %s" % (label, name, m))
        elif not trace and value <= 0:
            fail("%s: end-to-end %s is %s" % (label, name, value))
    if trace:
        for name in EXERCISED[workload]:
            if result["metrics"].get(name, {}).get("value", 0) == 0:
                fail("%s: %s reads 0 though the workload exercises it" % (
                    label, name))
    print("ok: %s" % label)


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    out = run(["--workload", "paper_reads", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail("run.py succeeded in a directory without the library sources")
    else:
        print("ok: bare directory fails with exit %d" % out.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in EXERCISED:
            fail("no exercised-metric list for workload %s" % workload)
            continue
        for trace in (0, 1):
            check_run(bench, workload, trace)
    check_bare_directory()
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
