#!/usr/bin/env python3
"""Build the dmpbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 dmpbench/run.py --workload grizzly-week --seed 1 --seconds 25 --trace 0

Every build product, the Go build cache included, stays under .bench_build/
in the checkout. The benchmark's standard output is passed through: its last
line is the result object. A failed build exits non-zero without printing a
result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "go-path"),
        # The Go command keeps its telemetry and env files in the user
        # config directory; point it into the checkout as well.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = go_env()
    binary = os.path.join(BUILD, "dmpbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print("dmpbench: cannot run the go command: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("dmpbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
