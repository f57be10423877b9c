#!/usr/bin/env python3
"""Per-span-name totals and self time from a traced run's span file.

    python3 perfbench/spans.py SPAN_FILE [--under ROOT_NAME]

SPAN_FILE is a traced run's
.bench_build/perfbench-results/<workload>-seed<N>-trace-spans.jsonl.
With --under, only spans whose root span (the outermost span of their
thread stack, e.g. wire.point in served_ingest) is called ROOT_NAME are
counted.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly within one thread (the recorder keeps one stack per
thread), so a span's children never overlap and the covered time is the
sum of their durations. Prints, per span name: count, total and self
milliseconds, and median duration and median self time in microseconds.
"""

import argparse
import collections
import json
import statistics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("span_file")
    parser.add_argument("--under")
    args = parser.parse_args()
    spans = []
    with open(args.span_file) as f:
        for line in f:
            spans.append(json.loads(line))
    if args.under:
        by_id = {span["id"]: span for span in spans}

        def root_name(span):
            while span["parent"] in by_id:
                span = by_id[span["parent"]]
            return span["name"]

        spans = [span for span in spans if root_name(span) == args.under]
    covered = collections.Counter()
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    durations = collections.defaultdict(list)
    selfs = collections.defaultdict(list)
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        durations[span["name"]].append(duration)
        selfs[span["name"]].append(duration - covered[span["id"]])
    print("%-36s %8s %12s %12s %12s %12s" % (
        "span", "count", "total_ms", "self_ms", "p50_us", "self_p50_us"))
    for name in sorted(durations, key=lambda n: -sum(selfs[n])):
        print("%-36s %8d %12.3f %12.3f %12.3f %12.3f" % (
            name, len(durations[name]), sum(durations[name]) / 1e6,
            sum(selfs[name]) / 1e6, statistics.median(durations[name]) / 1e3,
            statistics.median(selfs[name]) / 1e3))


if __name__ == "__main__":
    main()
