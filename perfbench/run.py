#!/usr/bin/env python3
"""Build and run the BBB host-performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig7|crash_campaign|litmus \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the simulator library plus the
bbb_perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary. It prints a `host:` line
describing the machine and build, the binary's own lines, and as the last
line the binary's JSON result. A traced run also writes its spans to
spans-<workload>-<seed>.jsonl in the build directory. See NOTES.md.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7", "crash_campaign", "litmus")
BUILD_TYPE = "RelWithDebInfo"
# A run measures for --seconds; the slowest single pass (fig7, ~12 s on
# a 4-CPU host) and the traced pass fit well inside this.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr only on failure."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        die(f"failed ({p.returncode}): {' '.join(cmd)}", 1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "bbb_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bbb_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(build_dir):
    """Compiler id and version as CMake detected them."""
    files = os.path.join(build_dir, "CMakeFiles")
    for sub in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            text = open(path).read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            return f"{cid.group(1) if cid else '?'} " \
                   f"{ver.group(1) if ver else '?'}"
    return "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=30)
        return p.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="fig7: print this seed's digest lines to record")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(build_dir),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
    }
    host_json = json.dumps(host, sort_keys=True)
    print(f"host: {host_json}", flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "fig7_digests.txt"),
           "--host", host_json]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.record:
        cmd.append("--record")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stdout)
        die(f"bbb_perfbench exited with {p.returncode} and no result", 1)
    sys.stdout.write(p.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
