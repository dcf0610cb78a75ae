#!/usr/bin/env python3
"""Build and run the Minuet wall-clock benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Builds the library and the benchmark program from source into $CARGO_TARGET_DIR
(default .bench_build) with CMake in Release mode, then runs one workload.
The program prints every metric as "name value unit" and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}; this script
passes its output through and exits with its exit code. Build output goes
to stderr. Durable workloads keep their WAL and checkpoints under
<build dir>/data, removed when the run ends.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; returns the program path or None."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", build_dir, "-j", "4"]):
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    return os.path.join(build_dir, "minuet_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    data_dir = os.path.join(build_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
