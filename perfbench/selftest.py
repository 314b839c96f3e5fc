#!/usr/bin/env python3
"""Self-tests of the ftsched benchmark, at smoke size.

Usage (from the repository root):  python3 perfbench/selftest.py

Checks that
  * every workload prints a result object with exactly the contract's keys,
    every end-to-end metric of BENCHMARK.json with its unit, correct=true
    and failed=0;
  * the traced run prints every per-layer metric of BENCHMARK.json, each
    finite and, apart from the pruning counters (which read 0 once the
    library drops the subtree memo), non-zero;
  * a planted wrong known answer makes every workload report failures
    (error_rate > 0, correct=false), so the checks are shown to catch errors;
  * no file of the untraced run names an API that exists only for
    certification pruning;
  * run.py exits non-zero without a result when only BENCHMARK.json and
    perfbench/ are present.
Exits 0 when all hold.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["campaign", "certify", "certifyd"]
# Identifiers that exist only for pruning; "memory" is not one of them.
PRUNING_ONLY = re.compile(
    r"\bprune\b|\bmemo(?!ry)\w*|CertifyMemo|branch_digest|slack_cuts")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--size", "smoke", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def metrics_match(result, specs):
    metrics = result["metrics"]
    return (set(metrics) == {m["name"] for m in specs} and
            all(metrics[m["name"]]["unit"] == m["unit"] for m in specs))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    for workload in WORKLOADS:
        code, result = run(workload, "0")
        check(code == 0 and result is not None and
              set(result) == {"correct", "attempted", "failed", "metrics"} and
              result["correct"] and result["failed"] == 0 and
              result["attempted"] >= 1 and
              metrics_match(result, bench["end_to_end"]),
              f"{workload}: correct result with every end-to-end metric")

        code, result = run(workload, "0", "--plant-wrong-answer")
        check(code == 0 and result is not None and not result["correct"] and
              result["failed"] > 0,
              f"{workload}: a planted wrong answer makes error_rate non-zero "
              f"({result and result['failed']} of "
              f"{result and result['attempted']} failed)")

    code, result = run("certify", "1")
    check(code == 0 and result is not None and result["correct"] and
          metrics_match(result, bench["per_layer"]),
          "traced run: correct result with every per-layer metric")
    for name, metric in sorted((result or {}).get("metrics", {}).items()):
        value = metric["value"]
        may_be_zero = bool(PRUNING_ONLY.search(name))
        check(math.isfinite(value) and (may_be_zero or value != 0),
              f"traced run: {name} = {value} is finite"
              + ("" if may_be_zero else " and non-zero"))

    for name in sorted(os.listdir(HERE)):
        if name.endswith((".cpp", ".hpp")) and name != "pruning_layer.cpp":
            with open(os.path.join(HERE, name), encoding="utf-8") as f:
                hits = PRUNING_ONLY.findall(f.read())
            check(not hits, f"{name}: names no pruning-only API {hits or ''}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the library sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
