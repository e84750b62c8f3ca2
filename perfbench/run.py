#!/usr/bin/env python3
"""Build the MAQS benchmark from source and run one workload.

    python3 perfbench/run.py --workload echo-plain --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The Go build cache, the binary and the
traced run's span files all go to .bench_build/ in the checkout; nothing is
read or written outside it. The benchmark's report goes to standard error,
and the last line of standard output is its JSON result. See README.md.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT = 840  # a first build compiles the standard library too
RUN_TIMEOUT = 170


def build_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 3
    os.makedirs(BUILD, exist_ok=True)
    try:
        built = subprocess.run([go, "build", "-o", BINARY, "."], cwd=BENCH, env=build_env(),
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([BINARY, "--spans-dir", BUILD] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
