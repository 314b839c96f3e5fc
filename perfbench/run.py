#!/usr/bin/env python3
"""Build and run the ftsched benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign|certify|certifyd \
        --seed N --seconds S --trace 0|1 [--size full|smoke] \
        [--plant-wrong-answer]

Configures perfbench/CMakeLists.txt as a Release build under
$CARGO_TARGET_DIR (default .bench_build), builds it, and runs the ftbench
binary from the repository root. An untraced run is split over five
processes of S/5 seconds each, so that what is settled once per process
(memory layout, which malloc arena each thread gets) is sampled five
times; each metric is the median of the five. Build output goes to
standard error; the last line of standard output is the combined result
object.
Traces and result files land in <build root>/perfbench-out. Exits non-zero
without a result when the library sources are missing, the build fails or
a run fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PROCESSES = 5

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def configured_for_here(build_dir):
    """True when build_dir holds a CMake cache of this source directory."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(HERE)
    return False


def build(build_dir):
    """Configures (once) and builds ftbench; returns its path or None."""
    if not configured_for_here(build_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    compile_ = ["cmake", "--build", build_dir, "--target", "ftbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "ftbench")


def git_commit():
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "certify", "certifyd"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "smoke"])
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="self-test: perturb one known answer per "
                             "workload so the checks must fail")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "data"))):
        print("run.py: no ftsched sources (src/, data/) beside perfbench/",
              file=sys.stderr)
        return 2

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    processes = 1 if args.trace == "1" else PROCESSES
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes),
               "--trace", args.trace, "--size", args.size,
               "--out-dir", out_dir, "--commit", git_commit()]
    if args.plant_wrong_answer:
        command.append("--plant-wrong-answer")
    results = []
    for _ in range(processes):
        result = run_once(command)
        if result is None:
            return 1
        results.append(result)
    print(json.dumps(results[0] if processes == 1 else combine(results)))
    return 0


def run_once(command):
    """Runs ftbench once; echoes all but its result line, returns the result."""
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    print("\n".join(lines if result is None else lines[:-1]), flush=True)
    if result is None:
        print(f"run.py: ftbench exited {proc.returncode} without a result",
              file=sys.stderr)
    return result


def combine(results):
    """One result of several processes: counts summed, each metric the
    median of the processes' values."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
