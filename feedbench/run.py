#!/usr/bin/env python3
"""Feedback-loop benchmark: builds feedbench against the repository's
Release `dtse` library and runs one benchmark workload.

Run from the repository root:

  python3 feedbench/run.py --workload cold-loop --seed 42 --seconds 20 --trace 0
  python3 feedbench/run.py --self-test

Build output goes to stderr; the last stdout line is the result JSON object
({"correct", "attempted", "failed", "metrics"}).  The exit code is non-zero
when the build fails, the correctness gate fails, or the checkout holds no
repository to build.  `--self-test` checks that the gate can fail: runs
against a perturbed copy of the committed digests must be refused, runs
against the committed digests accepted.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "feedbench")
BINARY = os.path.join(BUILD, "feedbench")
EXPECTED = os.path.join(HERE, "expected_digests.txt")
WORKLOADS = ("cold-loop", "warm-loop", "point-queries")


def build():
    """Configures (once) and builds the feedbench target; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("feedbench: no dtse sources next to the benchmark; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("feedbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "feedbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("feedbench: build failed")


def feedbench_command(workload, seed, seconds, trace, expected=EXPECTED):
    return [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--expected", expected,
            "--work-dir", os.path.join(BUILD, "work"), "--out-dir", os.path.join(BUILD, "out")]


def self_test():
    """The gate must refuse a perturbed committed digest and accept the real one."""
    perturbed = os.path.join(BUILD, "perturbed_digests.txt")
    with open(EXPECTED) as source, open(perturbed, "w") as out:
        for line in source:
            fields = line.split()
            if len(fields) == 2 and not line.startswith("#"):
                digit = "0" if fields[1][-1] != "0" else "1"
                line = "%s %s%s\n" % (fields[0], fields[1][:-1], digit)
            out.write(line)
    ok = True
    for workload in ("point-queries", "cold-loop"):
        for expected, want_correct in ((EXPECTED, True), (perturbed, False)):
            run = subprocess.run(feedbench_command(workload, 42, 1, 0, expected),
                                 stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            correct = bool(lines) and json.loads(lines[-1]).get("correct") is True
            as_intended = correct == want_correct and (run.returncode == 0) == want_correct
            ok = ok and as_intended
            print("%-14s %-22s exit %d, correct %s: %s" % (
                workload, os.path.basename(expected), run.returncode, correct,
                "as intended" if as_intended else "NOT AS INTENDED"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    return subprocess.run(feedbench_command(args.workload, args.seed, args.seconds,
                                            args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
