#!/usr/bin/env python3
"""Build and run the standing UFP benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it once with the given
arguments plus the checkout's provenance (source revision, online
processors), and passes its output through: the last line of standard
output is the JSON result. Exits non-zero, without a result, when the
build or the run fails. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "perfbench/main.exe"


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: neither dune nor opam is on PATH")


def source_revision():
    """The git commit of the checkout, when it is a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def online_processors():
    """What `nproc` prints: the processors this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 0


def main():
    env = dict(os.environ)
    # Keep the build inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ".", "./" + TARGET],
            capture_output=True,
            text=True,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.exit("run.py: the build failed")
    exe = os.path.join("_build", "default", TARGET)
    cmd = [exe] + sys.argv[1:] + [
        "--commit",
        source_revision(),
        "--nproc",
        str(online_processors()),
    ]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
