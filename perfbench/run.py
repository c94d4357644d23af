#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which builds the simulator library from the
repository's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark program. The last line of
standard output is the JSON result; it is printed only if its metric
names and units match BENCHMARK.json. Build failures exit non-zero
without printing a result.

--self-test builds the self-test binary, runs it (generator determinism,
percentile oracle), and checks that the metric catalogue the program
prints with --list-metrics matches BENCHMARK.json exactly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure, then build @targets; exits non-zero on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j4", "--target", *targets]]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"build step timed out: {' '.join(cmd)}")
            sys.exit(3)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(3)


def catalogue():
    """{section: [(name, unit)]} of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {sec: [(m["name"], m["unit"]) for m in spec[sec]]
            for sec in ("end_to_end", "per_layer")}


def validate(line, trace):
    """Error text if @line is not a well-formed result, else None."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON ({e})"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys are {sorted(res)}"
    want = catalogue()["per_layer" if trace else "end_to_end"]
    got = [(k, v.get("unit")) for k, v in res["metrics"].items()]
    if sorted(got) != sorted(want):
        return ("metrics differ from BENCHMARK.json: "
                f"extra {sorted(set(got) - set(want))}, "
                f"missing {sorted(set(want) - set(got))}")
    return None


def self_test():
    build(["perfbench", "perfbench_selftest"])
    p = subprocess.run([str(BUILD_DIR / "perfbench_selftest")], timeout=600)
    if p.returncode != 0:
        return p.returncode
    out = subprocess.run([str(BUILD_DIR / "perfbench"), "--list-metrics"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    printed = {"end_to_end": [], "per_layer": []}
    for row in out.splitlines():
        sec, name, unit = row.split()
        printed[sec].append((name, unit))
    ok = True
    for sec, want in catalogue().items():
        if printed[sec] != want:
            log(f"{sec}: the program's catalogue differs from BENCHMARK.json "
                f"(extra {sorted(set(printed[sec]) - set(want))}, "
                f"missing {sorted(set(want) - set(printed[sec]))}, "
                "or a different order)")
            ok = False
    if ok:
        print("metric catalogue matches BENCHMARK.json")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")

    build(["perfbench"])
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(BUILD_DIR)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 5
    lines = p.stdout.rstrip("\n").splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {p.returncode})")
        return p.returncode or 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    err = validate(lines[-1], args.trace)
    if err is not None:
        log(err)
        return p.returncode or 4
    print(lines[-1], flush=True)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
