#!/usr/bin/env python3
"""Build the Treaty benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-write --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the command's binary, the cluster's data and
the traced run's spans and profiles all go under the build directory
($CARGO_TARGET_DIR, else .bench_build) inside the current directory. The
last line printed is the run's JSON result; a failed build or run exits
non-zero without one.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = os.path.join(build, "perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(work, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process with the benchmark, so a signal meant for the
    # run reaches it and nothing is left behind.
    os.execve(binary, [binary, "--work", work] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
