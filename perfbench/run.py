#!/usr/bin/env python3
"""Runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call builds the perfbench binary
and the library from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed.  Build output goes to stderr.  The binary's
stdout is passed through: its last line is the JSON result.  A traced run
(--trace 1) also writes its span file to
<build dir>/spans/<workload>-seed<N>.jsonl.

Exit status: the binary's (0 = every answer correct), 2 on bad arguments or
a missing source tree, 3 when the build fails or the run times out.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 360  # per step; configure + build + run stay under 900 s
RUN_TIMEOUT_S = 175


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"no source tree at {ROOT} (needs CMakeLists.txt and src/)")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(3, f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(3, f"build step {' '.join(step[:2])} exited {done.returncode}")
    return bdir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace]
    if args.trace == "1":
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.stdout.write(done.stdout.decode(errors="replace"))
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
