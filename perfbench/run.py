#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig11-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The C++ benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build), which also holds the
benchmark's pmap caches (one per library source digest), its sockets and its
trace files.  Build output goes to stderr; the benchmark's stdout is passed
through, and its last line is the JSON result.  A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def git_sha(root):
    """git HEAD for the result's metadata; "none" outside a git checkout."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(root, build_dir):
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(root, ".bench_build")))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--source", git_sha(root)]
    sys.stdout.flush()
    return subprocess.run([binary, *args, "--out-dir", build_dir],
                          cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
