"""Smoke run and self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at tiny sizes (``--smoke``) and
checks that:

- each run prints, as its last line, the result object with every
  end-to-end metric (``--trace 0``) or per-layer metric (``--trace 1``),
  each with the unit BENCHMARK.json names;
- two traced runs with the same seed give identical counts;
- a deliberately bad operation (a config without ``[problem] n``, so
  ``invreg synth`` exits 2) is counted as failed, not dropped;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = run.ROOT


def bench_run(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.relpath(BENCH, ROOT), "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)
            print("FAIL", message)

    def report(what: str, errors_before: int) -> None:
        print("ok  " if len(errors) == errors_before else "FAIL", what)

    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect({w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY,
           "BENCHMARK.json workload reasons differ from workloads.WHY")

    for w in spec["workloads"]:
        name = w["name"]
        before = len(errors)
        proc, res = bench_run(name, 0)
        expect(proc.returncode == 0 and res is not None, f"{name}: run failed\n{proc.stderr}")
        if res is None:
            continue
        expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
               f"{name}: result keys {sorted(res)}")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{name}: smoke run not correct: {res}\n{proc.stderr}")
        expect({k: v["unit"] for k, v in res["metrics"].items()}
               == {m["name"]: m["unit"] for m in spec["end_to_end"]},
               f"{name}: end-to-end metrics {sorted(res['metrics'])}")
        counts = []
        for _ in range(2):
            proc, res = bench_run(name, 1)
            if res is None:
                expect(False, f"{name}: traced run failed\n{proc.stderr}")
                break
            expect(res["correct"], f"{name}: traced run not correct\n{proc.stderr}")
            expect({k: v["unit"] for k, v in res["metrics"].items()}
                   == {m["name"]: m["unit"] for m in spec["per_layer"]},
                   f"{name}: per-layer metrics {sorted(res['metrics'])}")
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if k in run.COUNT_METRICS})
        if len(counts) == 2:
            diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            expect(not diff, f"{name}: counts differ between two traced runs: {diff}")
        report(name, before)

    before = len(errors)
    proc, res = bench_run("bad_config", 0)
    expect(res is not None and res["failed"] == res["attempted"] >= 1
           and res["correct"] is False and "exited 2" in proc.stderr
           and "fail_frac = 1 " in proc.stdout,
           f"bad_config: failure not counted: {res}\n{proc.stderr}")
    report("bad_config counted as failed", before)

    before = len(errors)
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, os.path.relpath(BENCH, ROOT)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc, res = bench_run(spec["workloads"][0]["name"], 0, cwd=bare)
        expect(proc.returncode != 0 and res is None,
               f"bare directory: exit {proc.returncode}, result {res}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("bare directory refused", before)

    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
