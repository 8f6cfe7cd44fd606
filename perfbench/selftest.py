#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints exactly the end_to_end metrics, with their units,
    and exits 0 with "correct": true;
  * a traced run prints exactly the per_layer metrics, with their units,
    and writes a span file;
  * a run fed one flipped ground-truth bit (--flip-truth) exits nonzero,
    reports "correct": false, and names the false negative it found.
Exits 1 on the first failed check.
"""
import json
import pathlib
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

SECONDS = "0.5"


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def invoke(binary, workload, trace, *extra):
    command = [str(binary), "--workload", workload, "--seed", "7",
               "--seconds", SECONDS, "--trace", trace, "--toy", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    out = done.stdout.decode(errors="replace")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, out, result


def check_metrics(where, result, expected):
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"{where}: missing {missing}, unexpected {extra}, "
             f"wrong units {wrong}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            code, out, result = invoke(binary, workload, "0")
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload} untraced run: exit {code}\n{out}")
            check_metrics(f"{workload} untraced", result, spec["end_to_end"])

            spans = pathlib.Path(tmp) / f"{workload}.jsonl"
            code, out, result = invoke(binary, workload, "1", "--spans",
                                       str(spans))
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload} traced run: exit {code}\n{out}")
            check_metrics(f"{workload} traced", result, spec["per_layer"])
            if not spans.is_file() or spans.stat().st_size == 0:
                fail(f"{workload} traced run wrote no span file")

            code, out, result = invoke(binary, workload, "0", "--flip-truth")
            if code == 0 or (result is not None and result["correct"]):
                fail(f"{workload}: a flipped ground-truth bit went unnoticed")
            if "false negative" not in out:
                fail(f"{workload}: the flipped bit's failure is not named\n"
                     f"{out}")
            print(f"selftest: {workload}: metrics, spans and the flipped-bit "
                  f"check OK")
    print("selftest: OK")


if __name__ == "__main__":
    main()
