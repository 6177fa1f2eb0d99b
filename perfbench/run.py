#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload line4096-uniform --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built from source into .bench_build/
(its build cache included, so nothing is written outside the checkout) and
then run with the given arguments. Its standard output passes through; the
last line is the JSON result. The exit code is the benchmark's: 0 when every
correctness check passed, 1 when one failed, 2 on a usage or build error.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Seconds a run may take once built; the workloads are sized to finish well
# inside it.
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return False
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", BINARY, "."],
        cwd=HERE,
        env=go_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        print("perfbench: build failed:\n" + proc.stdout, file=sys.stderr)
        return False
    return True


def main():
    if not build():
        return 2
    # The benchmark starts one process per pass; its own session lets a
    # timeout stop all of them.
    proc = subprocess.Popen(
        [BINARY, "--workdir", BUILD] + sys.argv[1:],
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run stopped (limit {RUN_TIMEOUT}s)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
