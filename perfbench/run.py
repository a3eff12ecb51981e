#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and compiles
the library and the perfbench program (Release) under .bench_build/ (or
$CARGO_TARGET_DIR when set, relative to the checkout root); later calls
rebuild only what changed. Build output goes to standard error, so the last
line of standard output is the program's JSON result. The exit code is the
program's, or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lwdc-sharded-serve", "open-cosine-topk", "swdc-live-ooc")


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--parallel", "4"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    return compiled.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(out_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_name = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                         os.getpid())
    sys.stdout.flush()
    bench = subprocess.run(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--work-dir", os.path.join(out_root, "perfbench-work", run_name),
         "--trace-path", os.path.join(out_root, "perfbench-traces",
                                      run_name + ".json")],
        cwd=ROOT, env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
