#!/usr/bin/env python3
"""Builds and runs the ARFS end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_wide|crash_sweep|serve_stream \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first call configures and builds the library and the benchmark into
.bench_build (or $CARGO_TARGET_DIR when set); later calls reuse the build.
The benchmark binary prints its metrics and, as its last line, one JSON
result object; this wrapper checks that object against BENCHMARK.json and
prints it again as its own last line. The exit code is the binary's: 0 only
when every op passed its check and the run digest equals the oracle's.

--self-check proves the correctness gate trips: each workload runs briefly
with a perturbed oracle digest and must exit nonzero with "correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_wide", "crash_sweep", "serve_stream")


def timeout_s(seconds):
    """Runs take up to about 2.4x --seconds: set-ups and oracle passes come
    on top of the timed work."""
    return 3 * seconds + 60


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    binary = os.path.join(out, "arfs_perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "arfs_perfbench",
              "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parses the binary's result line; returns (result, problems)."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, ["last line is not a JSON object"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, ["result keys are not correct/attempted/failed/metrics"]
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (missing, extra))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return result, problems


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s.tsv" % args.workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" %
                 (args.workload, timeout_s(args.seconds)))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result, problems = check_result(lines[-1], args.trace)
    if result is None or problems:
        sys.exit("perfbench: bad result from %s: %s" %
                 (args.workload, "; ".join(problems)))
    print(json.dumps(result), flush=True)
    return done.returncode


def self_check(binary):
    """Each workload: a short clean run passes, a corrupted oracle fails."""
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            cmd = [binary, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", "0"]
            if corrupt:
                cmd.append("--corrupt-oracle")
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout_s(1))
            result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
            tripped = done.returncode != 0 and not result["correct"]
            passed = done.returncode == 0 and result["correct"]
            good = tripped if corrupt else passed
            ok = ok and good
            print("self-check %-12s %-15s exit %d correct %-5s -> %s" %
                  (workload, "corrupt oracle" if corrupt else "clean",
                   done.returncode, result["correct"],
                   "ok" if good else "WRONG"))
    print("self-check: gate %s" % ("trips on a wrong digest" if ok
                                   else "DID NOT BEHAVE"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    if args.self_check:
        return self_check(binary)
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
