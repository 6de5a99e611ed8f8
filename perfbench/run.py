#!/usr/bin/env python3
"""Builds and runs the end-to-end PPRL benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark binary
(Release, from source) under .bench_build/perfbench; later runs only rebuild
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's result object. Results and trace artifacts
are written under .bench_build/perfbench-out.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "pprl_perfbench")
# A run must finish within 180 s; stop the benchmark binary a little
# earlier rather than leave it behind.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("error: configuring the benchmark failed")
            return False
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pprl_perfbench"]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("error: building the benchmark failed")
        return False
    return True


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_benchmark(args, timeout=RUN_TIMEOUT_S):
    """Runs the built benchmark binary with `args`, passing its output through."""
    command = [BINARY] + args + ["--out-dir", OUT_DIR, "--commit", source_id()]
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"error: benchmark did not finish within {timeout} s")
        return 1


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("error: library sources (src/) not found next to perfbench/")
        return 1
    if not build():
        return 1
    sys.stdout.flush()
    return run_benchmark(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
