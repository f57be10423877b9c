#!/usr/bin/env python3
"""incdb project lint: the correctness rules clang-tidy cannot express.

Part 3 of the compile-time correctness gate (docs/STATIC_ANALYSIS.md).
Checks, over the committed sources (no build needed):

  no-throw          `throw` / `catch` are banned: the library reports every
                    runtime failure through Status/Result (common/status.h).
                    An exception crossing a public boundary would bypass the
                    [[nodiscard]] discipline entirely.
  raw-new           Raw `new` / `delete` are banned; ownership goes through
                    make_unique/make_shared/containers. The private-ctor
                    factory idiom may suppress per line (see below).
  banned-call       std::rand / srand / time(nullptr) / time(0): incdb has a
                    seeded, deterministic RNG (common/rng.h); wall-clock
                    seeding makes failures irreproducible.
  layering          #include across src/ modules must follow the dependency
                    DAG declared in the CMake target graph. In particular a
                    public header must never reach into a module that sits
                    above it (e.g. core/*.h including plan/*.h — the plan
                    layer sits between core_base and core, so only core
                    *implementation* files may).
  header-guard      src headers open with `#ifndef INCDB_<PATH>_H_`.
  using-namespace   `using namespace std` (or any namespace) at file scope.
  no-tsa-audit      INCDB_NO_THREAD_SAFETY_ANALYSIS is an escape hatch;
                    every use must be suppressed explicitly so it shows up
                    in review.
  simd-isolation    Raw CPU intrinsics (<immintrin.h> and friends, _mm*/
                    __m128/__m256 identifiers) are banned outside src/simd/.
                    The simd module compiles its ISA-specific TUs with their
                    own -m flags; an intrinsic elsewhere would either fail to
                    build or silently leak AVX2 codegen into TUs that must
                    run on baseline hardware. Everyone else goes through the
                    runtime-dispatched simd::ActiveKernels() table.
  slicer-isolation  The slicer layer (src/bitmap/slicer.*) maps values to
                    slot intervals and must know nothing about how slots are
                    materialized: any include of the WAH/compression module
                    or the bitmap encoder headers is banned there. Keeping
                    the slicer free of encoder types is what makes the
                    binning x encoding matrix orthogonal — a new encoding
                    must not force a slicer edit, and vice versa.
  net-isolation     OS networking headers (<sys/socket.h>, <netdb.h>, ...)
                    and raw socket syscalls are banned outside src/server/
                    and tests/server/ (which impersonates hostile peers on
                    purpose). Everything else talks TCP through the typed
                    wrappers in server/net.h and the Client library, so
                    error handling (Status, EINTR, partial I/O, SIGPIPE)
                    lives in exactly one audited place.

A finding on one line can be suppressed — with justification in an adjacent
comment — by appending `lint:allow(<rule>)` in a comment on that line.

Exit status 0 = clean, 1 = findings, 2 = usage/config error.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned for the behavioural rules (no-throw, raw-new, ...).
SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")
# Layering and header-guard rules apply to the library only.
LIB_DIR = "src"

CXX_EXTENSIONS = (".cc", ".h")

# Files allowed to use throw/catch. Empty: the last catch sites (the CSV
# parser's std::sto* shims) were converted to Result-returning parsing.
THROW_ALLOWLIST: frozenset = frozenset()

# Module dependency DAG for headers, mirroring src/*/CMakeLists.txt target
# link edges (transitively closed). A header in module M may include only
# headers of M itself and of ALLOWED_HEADER_DEPS[M].
ALLOWED_HEADER_DEPS = {
    "common": set(),
    "simd": {"common"},
    "bitvector": {"common", "simd"},
    "btree": {"common"},
    "rtree": {"common"},
    "table": {"common"},
    "compression": {"common", "simd", "bitvector"},
    "query": {"common", "simd", "bitvector", "table"},
    "stats": {"common", "simd", "bitvector", "table", "query"},
    "bitmap": {"common", "simd", "bitvector", "compression", "table",
               "query"},
    "vafile": {"common", "simd", "bitvector", "table", "query"},
    "baselines": {"common", "simd", "bitvector", "btree", "rtree", "table",
                  "query"},
    "storage": {
        "common", "simd", "bitvector", "compression", "table", "query",
        "bitmap", "vafile",
    },
    "core": {
        "common", "simd", "bitvector", "compression", "table", "query",
        "stats", "bitmap", "vafile", "storage",
    },
    "plan": {
        "common", "simd", "bitvector", "compression", "table", "query",
        "stats", "bitmap", "vafile", "storage", "core",
    },
    "server": {
        "common", "simd", "bitvector", "compression", "table", "query",
        "stats", "bitmap", "vafile", "storage", "core", "plan",
    },
}

# Dependency-inversion seam: interface headers that live in `core` but are
# *implemented* by the modules below it (IncompleteIndex by every index
# family, SnapshotSource by storage). Including them upward is the point of
# the inversion — the implementing module sees only the abstract interface —
# so the layering rule exempts exactly these targets and nothing else.
INTERFACE_HEADERS = frozenset({
    "core/incomplete_index.h",
    "core/snapshot.h",
})

# Everything outside this directory must use the dispatch table in
# simd/simd.h instead of raw intrinsics (see simd-isolation above).
SIMD_DIR = "src/simd/"
SIMD_HEADER_RE = re.compile(
    r'#\s*include\s+<('
    r'immintrin|x86intrin|x86gprintrin|'
    r'xmmintrin|emmintrin|pmmintrin|tmmintrin|smmintrin|nmmintrin|'
    r'wmmintrin|ammintrin|avxintrin|avx2intrin|popcntintrin'
    r')\.h>')
SIMD_IDENT_RE = re.compile(r'\b(_mm\d*_\w+|__m\d+[id]?|__v\d+\w+)\b')

# Direct OS networking is confined to these directories (see net-isolation
# above). tests/server/ is exempt because the protocol-robustness suite
# speaks raw malformed bytes on purpose — it IS the hostile peer.
NET_DIRS = ("src/server/", "tests/server/")
NET_HEADER_RE = re.compile(
    r'#\s*include\s+<('
    r'sys/socket|netinet/in|netinet/tcp|arpa/inet|netdb|sys/un'
    r')\.h>')
# Syscall names chosen to avoid false positives (std::bind, Client::Connect
# and friends are spelled differently); the header rule is the real gate —
# these calls cannot compile without one of the headers above.
NET_IDENT_RE = re.compile(
    r'(?<![\w:.])(?:::)?('
    r'socket|getaddrinfo|freeaddrinfo|setsockopt|getsockopt|getsockname|'
    r'inet_pton|inet_ntop|recvfrom|sendto'
    r')\s*\(')

# The slicer layer's private DAG (see slicer-isolation above): value->slot
# geometry only, so it may see the value type and the common utilities but
# never the compression module or the encoder/bitmap-index headers that sit
# beside it in src/bitmap/.
SLICER_FILES = frozenset({"src/bitmap/slicer.h", "src/bitmap/slicer.cc"})
SLICER_ALLOWED_MODULES = frozenset({"common", "table"})
SLICER_ALLOWED_SELF = frozenset({"bitmap/slicer.h"})

# Implementation files may additionally include these modules' headers.
# core/*.cc call down into the plan layer (Database::Run lowers through the
# planner); core *headers* must not, so the public API stays below plan.
ALLOWED_IMPL_EXTRA_DEPS = {
    "core": {"plan"},
}

SUPPRESS_RE = re.compile(r"lint:allow\(([a-z-]+)\)")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string literals, and char literals, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, path, lineno, rule, message, raw_line):
        suppressed = {m.group(1) for m in SUPPRESS_RE.finditer(raw_line)}
        if rule in suppressed:
            return
        rel = os.path.relpath(path, REPO)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    # ---- per-file rules -------------------------------------------------

    def check_file(self, path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.split("\n")
        code_lines = strip_comments_and_strings(text).split("\n")
        rel = os.path.relpath(path, REPO)
        in_lib = rel.startswith(LIB_DIR + os.sep)

        for idx, code in enumerate(code_lines):
            lineno = idx + 1
            raw = raw_lines[idx] if idx < len(raw_lines) else ""

            if rel not in THROW_ALLOWLIST:
                if re.search(r"\bthrow\b", code):
                    self.report(path, lineno, "no-throw",
                                "`throw` is banned; return a Status "
                                "(common/status.h)", raw)
                if re.search(r"\bcatch\s*\(", code):
                    self.report(path, lineno, "no-throw",
                                "`catch` is banned; use non-throwing APIs "
                                "and propagate Status", raw)

            if re.search(r"\bnew\s+[A-Za-z_:(]", code) and \
                    not re.search(r"\boperator\s+new\b", code):
                self.report(path, lineno, "raw-new",
                            "raw `new`; use std::make_unique/make_shared "
                            "or a container", raw)
            if re.search(r"\bdelete\b\s*(\[\s*\])?\s*[A-Za-z_(*]", code):
                self.report(path, lineno, "raw-new",
                            "raw `delete`; ownership must be RAII-managed",
                            raw)

            if re.search(r"\bstd::rand\b|\bsrand\s*\(", code):
                self.report(path, lineno, "banned-call",
                            "std::rand/srand; use the deterministic "
                            "common/rng.h", raw)
            if re.search(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)", code):
                self.report(path, lineno, "banned-call",
                            "wall-clock seeding makes runs irreproducible; "
                            "use common/rng.h", raw)

            if re.search(r"\busing\s+namespace\b", code):
                self.report(path, lineno, "using-namespace",
                            "`using namespace` at file scope", raw)

            if "INCDB_NO_THREAD_SAFETY_ANALYSIS" in code and \
                    not rel.endswith("common/thread_annotations.h"):
                self.report(path, lineno, "no-tsa-audit",
                            "thread-safety analysis suppressed; justify "
                            "with a comment and lint:allow(no-tsa-audit)",
                            raw)

            if not rel.replace(os.sep, "/").startswith(SIMD_DIR):
                if SIMD_HEADER_RE.search(code):
                    self.report(path, lineno, "simd-isolation",
                                "intrinsic header outside src/simd/; use "
                                "the dispatch table in simd/simd.h", raw)
                elif SIMD_IDENT_RE.search(code):
                    self.report(path, lineno, "simd-isolation",
                                "raw CPU intrinsic outside src/simd/; use "
                                "the dispatch table in simd/simd.h", raw)

            if not rel.replace(os.sep, "/").startswith(NET_DIRS):
                if NET_HEADER_RE.search(code):
                    self.report(path, lineno, "net-isolation",
                                "OS networking header outside src/server/; "
                                "use the wrappers in server/net.h", raw)
                elif NET_IDENT_RE.search(code):
                    self.report(path, lineno, "net-isolation",
                                "raw socket call outside src/server/; use "
                                "the wrappers in server/net.h", raw)

            if in_lib:
                self.check_include(path, lineno, code, raw, rel)

        if in_lib and path.endswith(".h"):
            self.check_header_guard(path, code_lines, rel)

    def check_include(self, path, lineno, code, raw, rel):
        # Detect the directive on the *stripped* line (so commented-out
        # includes stay ignored) but pull the target out of the raw line:
        # the stripper blanks quoted literals, include paths included.
        if not re.match(r"\s*#\s*include\b", code):
            return
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', raw)
        if not m:
            return
        target = m.group(1)
        if rel.replace(os.sep, "/") in SLICER_FILES:
            parts = target.split("/")
            if (len(parts) >= 2 and parts[0] in ALLOWED_HEADER_DEPS and
                    parts[0] not in SLICER_ALLOWED_MODULES and
                    target not in SLICER_ALLOWED_SELF):
                self.report(path, lineno, "slicer-isolation",
                            f"the slicer layer must not include '{target}': "
                            "slot geometry is independent of WAH/encoder "
                            "machinery (only common/ and table/ are below "
                            "it)", raw)
                return
        if target in INTERFACE_HEADERS:
            return  # dependency-inversion seam, see INTERFACE_HEADERS
        parts = target.split("/")
        if len(parts) < 2:
            return  # not a project-module include
        target_module = parts[0]
        if target_module not in ALLOWED_HEADER_DEPS:
            return  # third-party or non-module quoted include
        module = rel.split(os.sep)[1]
        if module not in ALLOWED_HEADER_DEPS:
            return
        allowed = {module} | ALLOWED_HEADER_DEPS[module]
        if path.endswith(".cc"):
            allowed |= ALLOWED_IMPL_EXTRA_DEPS.get(module, set())
        if target_module not in allowed:
            kind = "implementation file" if path.endswith(".cc") else \
                "public header"
            self.report(path, lineno, "layering",
                        f"{kind} of module '{module}' must not include "
                        f"'{target}': '{target_module}' is not below "
                        f"'{module}' in the module DAG", raw)

    def check_header_guard(self, path, code_lines, rel):
        stem = rel[len(LIB_DIR) + 1:]
        expected = "INCDB_" + re.sub(r"[/.]", "_", stem.upper()) + "_"
        for lineno, line in enumerate(code_lines, start=1):
            m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
            if m:
                if m.group(1) != expected:
                    self.report(path, lineno, "header-guard",
                                f"guard '{m.group(1)}' should be "
                                f"'{expected}'", code_lines[lineno - 1])
                return
            if line.strip() and not line.lstrip().startswith("#"):
                break
        self.report(path, 1, "header-guard",
                    f"missing include guard '{expected}'", "")


def main() -> int:
    linter = Linter()
    scanned = 0
    for top in SCAN_DIRS:
        root = os.path.join(REPO, top)
        if not os.path.isdir(root):
            continue
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                linter.check_file(os.path.join(dirpath, name))
                scanned += 1
    if linter.findings:
        print(f"tools/lint.py: {len(linter.findings)} finding(s) over "
              f"{scanned} files:", file=sys.stderr)
        for finding in linter.findings:
            print("  " + finding, file=sys.stderr)
        return 1
    print(f"tools/lint.py: OK ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
