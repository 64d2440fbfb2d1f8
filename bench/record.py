"""Record a perf-trajectory entry: repeated runs of every workload.

    python3 bench/record.py --label baseline --seeds 1-10

Runs ``bench/run.py`` once per seed and workload of BENCHMARK.json with
``--trace 0`` (and once per workload with ``--trace 1``, on the first
seed), then writes
``bench/results/BENCH_<label>.json``: per workload, the median, quartiles
and quartile spread (as a share of the median) of every end-to-end metric
over the seeds, the per-layer metrics of the traced run, and the
environment line of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs, env = [], None
        for seed in seeds:
            t0 = time.time()
            res, run_env = one_run(name, seed, seconds, 0)
            env = env or run_env
            runs.append(res)
            print(f"{name} seed {seed}: {time.time() - t0:.1f} s, correct {res['correct']}, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced, _ = one_run(name, seeds[0], seconds, 1)
        entry = {
            "env": env,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: summary([r["metrics"][m]["value"] for r in runs])
                           for m in bounds},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        record["workloads"][name] = entry
        for m, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[m] else "  OVER BOUND"
            print(f"{name} {m}: median {s['median']:.5g}, spread {s['spread']:.3f} "
                  f"(bound {bounds[m]}){flag}", flush=True)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results", f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
