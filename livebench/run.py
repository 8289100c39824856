#!/usr/bin/env python3
"""Build and run the live two-node overlay benchmark.

Run from the root of a vnetp checkout:

    python3 livebench/run.py --workload small_stream --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (build cache
included, so nothing is written outside the checkout) and then run with
the same arguments. Its last line of output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "livebench")


def die(msg):
    print("livebench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of the module's Go sources, identifying the code under test
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    gomod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(gomod) or not os.path.isdir(os.path.join(ROOT, "internal", "overlay")):
        die("not run from a vnetp checkout: %s has no module to build" % ROOT)
    with open(gomod) as f:
        if "module vnetp\n" not in f.read():
            die("%s is not the vnetp module" % gomod)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOTMPDIR=os.path.join(BUILD, "tmp"),
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               GOENV="off", CGO_ENABLED="0")
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed")
    args = [BINARY] + sys.argv[1:] + ["--commit", commit(), "--src", source_hash()]
    try:
        return subprocess.run(args, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        die("run exceeded 175 s")


if __name__ == "__main__":
    sys.exit(main())
