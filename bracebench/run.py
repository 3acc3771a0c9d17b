#!/usr/bin/env python3
"""Build and run bracebench, BRACE's end-to-end benchmark.

Run from the repository root:

    python3 bracebench/run.py --workload fish-inproc --seed 1 --seconds 20 --trace 0

The Go toolchain builds the benchmark from this checkout's sources into
.bench_build/ (its build cache included), then the benchmark runs with the
checkout root as its working directory. Every argument is passed through;
see bracebench/NOTES.md for the workloads and metrics. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",  # never fetch a toolchain
        GOPROXY="off",  # the module has no external dependencies
        CGO_ENABLED="0",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),  # the compiler's work files
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "bracebench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "bracebench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("bracebench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
