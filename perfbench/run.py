#!/usr/bin/env python3
"""Build and run the wall-clock PVM benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload storm|make|ipc --seed N \
        --seconds S --trace 0|1 [--spans-out FILE]

builds perfbench/main.exe with dune, runs it, and passes its output
through: a human-readable summary, then one JSON line with the fields
"correct", "attempted", "failed" and "metrics".  Untraced runs
(--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
per-layer metrics.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and prints each end-to-end metric by name
and unit, one table row per metric and workload.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["storm", "make", "ipc"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # The benchmark links the repository's own libraries, so it needs
    # the whole source tree, not only the benchmark's directory.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a full checkout" % need)
    try:
        out = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")


def run(args):
    try:
        out = subprocess.run(
            [EXE] + args, capture_output=True, text=True, timeout=RUN_TIMEOUT
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail("benchmark exited with code %d" % out.returncode)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    return lines


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def main(argv):
    build()
    if "--all" in argv:
        seed = flag(argv, "--seed", "1")
        seconds = flag(argv, "--seconds", "10")
        print("%-8s %-20s %16s  %s" % ("workload", "metric", "value", "unit"))
        for w in WORKLOADS:
            args = ["--workload", w, "--seed", seed, "--seconds", seconds,
                    "--trace", "0"]
            result = json.loads(run(args)[-1])
            for name, m in result["metrics"].items():
                print("%-8s %-20s %16.4f  %s" % (w, name, m["value"], m["unit"]))
            print("%-8s %-20s %16s  (%d of %d ops failed)" % (
                w, "correct", result["correct"], result["failed"],
                result["attempted"]))
        return
    print("\n".join(run(argv)))


if __name__ == "__main__":
    main(sys.argv[1:])
