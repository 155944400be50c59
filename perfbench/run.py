#!/usr/bin/env python3
"""Build and run the flopsim benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flopsim checkout. The first call configures and
builds the library and the benchmark program flopbench (perfbench/CMakeLists.txt)
under .bench_build/; later calls only bring that build up to date. The
program's report goes to stdout and ends in one JSON line holding exactly
the metrics BENCHMARK.json lists: its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1. Exits non-zero, without that line,
when the build or the run fails; with it, but non-zero, when an output
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("unit_sweep", "matmul_campaign", "serve_mix")
BUILD_TIMEOUT_S = 840
MAX_SECONDS = 60
RUN_TIMEOUT_MARGIN_S = 50


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(bdir):
    """Configure once, then build flopbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no flopsim sources (src/CMakeLists.txt) beside perfbench/")
        return None
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "flopbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            log(f"build failed: {e}")
            return None
    return os.path.join(bdir, "flopbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        p.error(f"--seed must be >= 0 and --seconds in 1..{MAX_SECONDS}")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = [m["name"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2

    bdir = os.path.join(build_root(), "perfbench")
    exe = build(bdir)
    if exe is None:
        return 2

    workdir = os.path.join(build_root(), "runs",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # The measured seconds, plus set-up, the traced run's probes and the
    # correctness checks, which take at most as long again.
    timeout_s = RUN_TIMEOUT_MARGIN_S + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s} s and was killed")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        missing = [n for n in wanted if n not in metrics]
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stdout.write(proc.stdout)
        log(f"flopbench exited {proc.returncode} without a result line")
        return proc.returncode or 1
    print("\n".join(lines[:-1]), flush=True)
    if missing:
        log(f"flopbench did not report {', '.join(missing)}")
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: metrics[n] for n in wanted}}),
          flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
