#!/usr/bin/env python3
"""Builds the incdb benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_reads --seed 1 --seconds 15 \
        --trace 0

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the benchmark
binary) into .bench_build/perfbench, runs the binary, and passes its exit
code on. The binary's last stdout line is the JSON result; build output goes to
stderr. Result files (with their host header) and span files land in
.bench_build/perfbench-results; store directories live in
.bench_build/perfbench-work and are removed after the run.

Extra flags (--tiny) are passed through to the binary.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "incdb_perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "perfbench-results")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
# The binary finishes in well under this; the limit only guarantees that a
# hung run is stopped rather than left behind.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    command = [BINARY] + sys.argv[1:] + [
        "--out", RESULTS_DIR, "--work", WORK_DIR, "--commit", commit_id()]
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark binary exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
