#!/usr/bin/env python3
"""Build the benchmark driver from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds `.bench_build/` (the library under
src/ plus perfbench/*.cc); later calls only let the build tool confirm
it is up to date. Build output goes to stderr so the driver's result is
the last line of stdout. The driver then replaces this process (exec),
so the benchmark is one process and its timings, peak RSS and threads
are its own.

PCCS_* environment variables are removed before the driver starts: the
benchmark measures the default shipped configuration, and variables such
as PCCS_JOBS, PCCS_DRAM_FASTPATH or PCCS_MC_SHARDS would change it.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pccs_perfbench")


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure step that failed or was cut leaves no Makefile.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "pccs_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the library and driver sources (path + bytes), so
    results from checkouts without git history stay attributable."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main() -> int:
    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCCS_")}
    args = [BINARY] + sys.argv[1:] + [
        "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(BINARY, args, env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
