#!/usr/bin/env python3
"""Build the simbench benchmark from source and run it.

Run from the repository root:

    python3 simbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

The Go build cache, module cache and binary live under the build directory
($CARGO_TARGET_DIR, default .bench_build), so the benchmark reads and writes
only inside the checkout. The benchmark's arguments are passed through.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go") or shutil.which(
        "go", path=os.path.join(os.environ.get("GOROOT", "/usr/local/go"), "bin"))
    if go is None:
        sys.exit("simbench: no go toolchain on PATH or in $GOROOT/bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "simbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.exit("simbench: build failed")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
