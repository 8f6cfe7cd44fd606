#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Run as `pf_lint.py --root <repo>` (registered in ctest as `pf_lint` and run
by the CI `static-analysis` job).  Exit 0 = clean, 1 = violations (printed
one per line as `file:line: rule: message`), 2 = usage error.

Rules
-----
obs-compile-out
    Every mutation method of the src/obs instruments (Add/Set/Record/
    Observe/Increment, plus NowNanos) must compile to a no-op under
    -DPF_OBS=OFF, i.e. its body must be guarded by PF_OBS_DISABLED.  This is
    the repo's "observability is free when off" contract — a hot-path
    counter bump that survives PF_OBS=OFF is a silent perf regression.

wire-bounds-check
    In the parser files (the code that consumes untrusted wire bytes), every
    raw fixed-width read (GetU8/GetU16/GetU32/GetU64) must be preceded,
    within the same function, by a bounds check on the available length.
    ByteReader-based reads are exempt: the reader bounds-checks internally
    and fails soft (callers check r.ok()).

parser-reinterpret-cast
    No naked reinterpret_cast in the parser files.  Wire decoding goes
    through memcpy-based helpers or ByteReader; type-punning payload bytes
    directly is how alignment and aliasing bugs get in.

steady-clock
    std::chrono::steady_clock / high_resolution_clock reads in src/ belong
    to src/obs (obs::NowNanos compiles the clock read out under PF_OBS=OFF).
    A direct clock call anywhere else either duplicates the metrics plumbing
    or sneaks timing into a hot path; genuinely-required sites (e.g. a
    shutdown deadline that must work with observability compiled out) carry
    an inline suppression.

loop-wait
    src/net/membership_server.cc calls no Drain(), CondVar .Wait( or
    sleep_for, which block the event loop on the worker pool or on time.
    Sites that do not run on a loop iteration (Stop() on the caller thread,
    a bounded nap) carry an inline suppression that states why.  The rule
    reads that one file only: a wait reached through a FilterService call
    is out of its scope, and is guarded by the tests
    QueryBatchAsyncNeverWaitsWhileTheWorkerIsHeld and
    SnapshotIsAnsweredWhileAWorkerHoldsAQuery.

Suppressions: append `// pf-lint: allow(<rule>)` to the offending line or
the line directly above it.  Each suppression documents a reviewed
exception; pf_lint_test.py pins that every rule still fires on fixtures.
"""

import argparse
import re
import sys
from pathlib import Path

ALL_RULES = (
    "obs-compile-out",
    "wire-bounds-check",
    "parser-reinterpret-cast",
    "steady-clock",
    "loop-wait",
)

# Files whose code runs on the network event-loop threads.
LOOP_FILES = ("src/net/membership_server.cc",)

# Files that parse untrusted bytes (wire frames, snapshots, stats blobs,
# JSON).  Keep in sync with the fuzz targets in fuzz/.
PARSER_FILES = (
    "src/net/protocol.h",
    "src/net/protocol.cc",
    "src/obs/exposition.h",
    "src/obs/exposition.cc",
    "src/util/json.h",
    "src/util/json.cc",
    "src/util/serialize.h",
    "src/core/filter_factory.cc",
    "src/service/sharded_filter.cc",
)

# Instrument headers whose mutation methods must compile out.  The first is
# the anchor of the whole obs contract and must exist; the tracing headers
# are optional (a checkout predating them, or a lint-test fixture, simply
# skips them).
OBS_INSTRUMENT_HEADERS = (
    "src/obs/metrics.h",
    "src/obs/trace.h",
    "src/obs/trace_sink.h",
)

ALLOW_RE = re.compile(r"//\s*pf-lint:\s*allow\(([a-z0-9-]+)\)")

# A mutation-method definition in an instrument header (longest names first
# so AddSpan/RecordWithExemplar capture whole, not as their prefixes).
OBS_UPDATE_RE = re.compile(
    r"^\s*(?:inline\s+)?(?:void|uint64_t)\s+"
    r"(AddSpan|Add|RecordWithExemplar|Record|Set|Observe|Increment|NowNanos"
    r"|Push)\s*\("
)

# Raw unchecked fixed-width read from a byte pointer.
RAW_READ_RE = re.compile(r"\bGetU(?:8|16|32|64)\s*\(")

# A bounds check on the available input length.  Deliberately broad: any
# comparison against the local length/size vocabulary counts as the guard.
GUARD_RE = re.compile(
    r"\b(?:len|size|count|available|remaining|buffered|payload_len|n)\b"
    r"\s*(?:\(\s*\))?\s*(?:==|!=|<=|>=|<|>)"
    r"|(?:==|!=|<=|>=|<|>)\s*"
    r"\b(?:len|size|count|available|remaining|buffered|payload_len|n)\b"
    r"|\.ok\s*\(\s*\)"
)

# Start of a function definition at namespace scope (repo style: return type
# in column 0, Google indentation).  Declarations end in ';' and are skipped.
FUNC_START_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_:<>,*& ]*\(")

FUNC_NAME_RE = re.compile(r"\b((?:[A-Za-z_][A-Za-z0-9_]*::)*[A-Za-z_][A-Za-z0-9_]*)\s*\($")

STEADY_CLOCK_RE = re.compile(r"\b(?:steady_clock|high_resolution_clock)\b")

REINTERPRET_RE = re.compile(r"\breinterpret_cast\s*<")

# A call that can block the calling thread on other threads' progress.
LOOP_WAIT_RE = re.compile(
    r"\bDrain\s*\(|\.Wait\s*\(|\bsleep_for\s*\(")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_line_comment(line):
    """Drops a // comment, tolerating // inside string literals."""
    out = []
    in_string = None
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
        elif c in "\"'":
            in_string = c
        elif c == "/" and line[i + 1 : i + 2] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def suppressed(lines, index, rule):
    """True when line `index` (0-based) carries or follows an allow(rule)."""
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def extract_body(lines, start):
    """Returns (body_text, end_index) for the brace block opening at/after
    lines[start], or (None, start) when the signature is body-less."""
    depth = 0
    opened = False
    body = []
    i = start
    while i < len(lines):
        code = strip_line_comment(lines[i])
        if not opened and ";" in code and "{" not in code:
            return None, start  # declaration, not a definition
        for c in code:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
        body.append(lines[i])
        if opened and depth == 0:
            return "\n".join(body), i
        i += 1
    return "\n".join(body), len(lines) - 1


def check_obs_compile_out(root, violations):
    for index, rel in enumerate(OBS_INSTRUMENT_HEADERS):
        path = root / rel
        if not path.is_file():
            if index == 0:
                violations.append(
                    Violation(rel, 1, "obs-compile-out",
                              "instrument header missing"))
            continue
        lines = path.read_text().splitlines()
        i = 0
        while i < len(lines):
            m = OBS_UPDATE_RE.match(strip_line_comment(lines[i]))
            if not m:
                i += 1
                continue
            body, end = extract_body(lines, i)
            if body is not None and "PF_OBS_DISABLED" not in body:
                if not suppressed(lines, i, "obs-compile-out"):
                    violations.append(
                        Violation(rel, i + 1, "obs-compile-out",
                                  f"update method {m.group(1)}() is not "
                                  "compiled out under PF_OBS=OFF (no "
                                  "PF_OBS_DISABLED guard in its body)"))
            i = end + 1


def check_parser_file(root, rel, violations):
    path = root / rel
    if not path.is_file():
        return
    lines = path.read_text().splitlines()
    guard_seen = False
    func_name = ""
    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        if FUNC_START_RE.match(code) and ";" not in code:
            # New function: reads must re-establish their own bounds check.
            guard_seen = False
            m = FUNC_NAME_RE.search(code.split("(")[0] + "(")
            func_name = m.group(1) if m else ""
            continue
        if GUARD_RE.search(code):
            guard_seen = True
        if REINTERPRET_RE.search(code):
            if not suppressed(lines, i, "parser-reinterpret-cast"):
                violations.append(
                    Violation(rel, i + 1, "parser-reinterpret-cast",
                              "naked reinterpret_cast in a parser file "
                              "(use memcpy helpers or ByteReader)"))
        if RAW_READ_RE.search(code) and not guard_seen:
            # The GetU*/PutU* helpers themselves read exactly sizeof(T)
            # bytes from a pointer the caller has already checked.
            if func_name.startswith(("GetU", "PutU")):
                continue
            if not suppressed(lines, i, "wire-bounds-check"):
                violations.append(
                    Violation(rel, i + 1, "wire-bounds-check",
                              "raw wire read with no preceding bounds check "
                              "in this function"))


def check_steady_clock(root, violations):
    src = root / "src"
    if not src.is_dir():
        return
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/obs/"):
            continue
        lines = path.read_text().splitlines()
        for i, raw in enumerate(lines):
            code = strip_line_comment(raw)
            if STEADY_CLOCK_RE.search(code):
                if not suppressed(lines, i, "steady-clock"):
                    violations.append(
                        Violation(rel, i + 1, "steady-clock",
                                  "direct monotonic-clock read outside "
                                  "src/obs (use obs::NowNanos, or suppress "
                                  "with a justification)"))


def check_loop_wait(root, violations):
    for rel in LOOP_FILES:
        path = root / rel
        if not path.is_file():
            continue
        lines = path.read_text().splitlines()
        for i, raw in enumerate(lines):
            m = LOOP_WAIT_RE.search(strip_line_comment(raw))
            if m and not suppressed(lines, i, "loop-wait"):
                violations.append(
                    Violation(rel, i + 1, "loop-wait",
                              f"blocking call `{m.group(0).strip()}` in "
                              "event-loop code (suppress with the reason it "
                              "cannot stall a loop iteration)"))


def run(root, rules):
    violations = []
    if "obs-compile-out" in rules:
        check_obs_compile_out(root, violations)
    if "wire-bounds-check" in rules or "parser-reinterpret-cast" in rules:
        for rel in PARSER_FILES:
            file_violations = []
            check_parser_file(root, rel, file_violations)
            violations.extend(
                v for v in file_violations if v.rule in rules)
    if "steady-clock" in rules:
        check_steady_clock(root, violations)
    if "loop-wait" in rules:
        check_loop_wait(root, violations)
    return violations


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="repository root to lint")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run")
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"pf_lint: no such directory: {root}", file=sys.stderr)
        return 2
    rules = tuple(r for r in args.rules.split(",") if r)
    unknown = set(rules) - set(ALL_RULES)
    if unknown:
        print(f"pf_lint: unknown rules: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    violations = run(root, rules)
    for v in violations:
        print(v)
    if violations:
        print(f"pf_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
