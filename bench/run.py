"""End-to-end and per-layer benchmark of the ``invreg`` CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload rates_shipped --seed 1 --seconds 25 --trace 0

It imports ``invreg`` from ``src/`` of the checkout it sits in and drives
the CLI in process through ``invreg.cli.main``.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
operations with traced ones, which run with timing wrappers around each
layer's public functions, and prints per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = list(workloads.WHY)
SETUP_PROBES = 21
# ru_maxrss is read once the warm-up and three timed operations have run, so
# that it does not creep with the number of operations a run fits in.
RSS_AFTER_OPS = 4

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = (
    [(f"{name}.calls", "count") for name in tracing.SPAN_NAMES]
    + [(f"{name}.self_s", "s") for name in tracing.SPAN_NAMES]
    + [("operator.svd_coefficients.bytes_computed", "B"),
       ("regularizers.candidates_built", "count"),
       ("selection.candidates_scored", "count"),
       ("concentration.eta_squared_samples.samples", "count"),
       ("concentration.samples_per_matrix", "ratio"),
       ("configio.write_csv.bytes", "B"),
       ("configio.read_csv_columns.bytes", "B"),
       ("trace.overhead_s", "s"),
       ("process.cpu_s", "s"),
       ("process.cpu_per_wall", "ratio")]
)
TIME_METRICS = {name for name, unit in PER_LAYER if unit == "s"}
COUNT_METRICS = {name for name, unit in PER_LAYER
                 if unit in ("count", "B") or name == "concentration.samples_per_matrix"}


@dataclass
class OpResult:
    ok: bool
    wall: float
    cpu: float
    phases: dict = field(default_factory=dict)
    digest: str = ""
    problems: list = field(default_factory=list)


class Runner:
    """Runs operations of one workload and keeps every result."""

    def __init__(self, plan: workloads.Plan, main):
        self.plan = plan
        self.main = main
        self.results: list[OpResult] = []
        self.first_digest = None
        self.peak_rss_mb = math.nan

    def run_op(self, main=None) -> OpResult:
        main = main or self.main
        for d in self.plan.out_dirs:
            shutil.rmtree(d, ignore_errors=True)
        # Start every operation from a collected heap, as a fresh CLI process would.
        gc.collect()
        phases, problems = {}, []
        cpu0 = time.process_time()
        t_start = perf_counter()
        for phase, argv in self.plan.phases:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv)
            except SystemExit as exc:          # argparse rejects the arguments
                rc = exc.code
            except Exception:                  # keep measuring; report the failure
                rc = "exception"
                err.write(traceback.format_exc())
            phases[phase] = perf_counter() - t0
            if rc != 0:
                problems.append(f"{phase} exited {rc}: {err.getvalue().strip()}")
                break
        wall = perf_counter() - t_start
        cpu = time.process_time() - cpu0
        res = OpResult(not problems, wall, cpu, phases, problems=problems)
        if res.ok:
            try:
                res.problems = self.plan.check()
                res.digest = workloads.digest(self.plan.data_files)
            except (OSError, KeyError, ValueError) as exc:
                res.problems = [f"output check failed: {exc}"]
            if self.first_digest is None:
                self.first_digest = res.digest
            elif res.digest != self.first_digest:
                res.problems.append("data CSVs differ from the first operation "
                                    "of this run with the same seed")
            res.ok = not res.problems
        for p in res.problems:
            print(f"FAILED operation {len(self.results) + 1}: {p}", file=sys.stderr)
        self.results.append(res)
        if len(self.results) == RSS_AFTER_OPS:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return res

    def measure(self, seconds: float, between) -> list[OpResult]:
        """Run operations until the next one would overrun ``seconds``, and at
        least until ``peak_rss_mb`` is read.

        ``between`` runs after each operation, outside the time budget.
        """
        done = []
        deadline = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            done.append(self.run_op())
            took = perf_counter() - t0
            if len(done) >= RSS_AFTER_OPS - 1 and perf_counter() + took > deadline:
                return done
            t1 = perf_counter()
            between()
            deadline += perf_counter() - t1


def describe(name: str, values: list[float], unit: str, what: str) -> str:
    """Median, sample count and the highest percentile with ten samples above."""
    v = sorted(values)
    line = (f"{name} = {statistics.median(v):.6g} {unit} (median of {len(v)} {what}; "
            f"min {v[0]:.6g}, max {v[-1]:.6g}")
    if len(v) > 10:
        line += f", p{100 * (len(v) - 10) // len(v)} {v[len(v) - 11]:.6g}"
    return line + ")"


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> dict:
    """Vendor, version and thread count of the BLAS numpy loaded."""
    import numpy as np
    info = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _source_id() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "invreg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def environment(args, plan: workloads.Plan) -> dict:
    import numpy as np
    env = _source_id()
    env.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "work_per_operation": plan.work,
    })
    return env


# ---------------------------------------------------------------------------
# measurements


def setup_probe() -> float:
    """Wall time for a fresh interpreter to import invreg.cli and build its parser."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import invreg.cli as cli; cli.build_parser()")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    took = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing invreg.cli failed:\n{proc.stderr}")
    return took


def traced_phase(runner: Runner, seconds: float):
    """Untraced and traced operations in turn, for ``seconds``.

    The wrappers are installed around each traced operation only, so that
    each traced operation has an untraced neighbour run under the same
    machine conditions.  Returns (untraced results, traced results, per
    traced operation (counts, self times), spans).
    """
    import invreg.cli
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli", invreg.cli.main)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        plain.append(runner.run_op())
        tracer.op += 1
        undo = tracing.install(tracer)
        try:
            traced.append(runner.run_op(traced_main))
        finally:
            tracing.uninstall(undo)
        took = perf_counter() - t0
        if len(traced) >= 2 and perf_counter() + took > deadline:
            break
    per_op = [tracing.layer_metrics(tracer, op) for op in range(1, len(traced) + 1)]
    return plain, traced, per_op, tracer.spans


def write_spans(spans, workload: str, seed: int) -> str:
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    path = os.path.join(WORK, "spans", f"{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op]) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["bad_config"],
                    help="bad_config is the self-test's deliberately failing workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "invreg", "__init__.py")):
        print(f"error: no invreg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import invreg.cli
    if not os.path.abspath(invreg.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported invreg from {invreg.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        try:
            plan = workloads.plan(args.workload, args.seed, ROOT, work, args.smoke)
        except FileNotFoundError as exc:
            print(f"error: missing input {exc}", file=sys.stderr)
            return 2
        return run_workload(args, plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, plan: workloads.Plan) -> int:
    import invreg.cli
    env = environment(args, plan)
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{workloads.WHY.get(args.workload, 'self-test: config lacks [problem] n')}")
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(plan, invreg.cli.main)
    runner.run_op()                                  # untimed warm-up
    setup = []
    if args.trace:
        timed, traced, per_op, spans = traced_phase(runner, args.seconds)
    else:
        # Set-up probes run between operations, spread evenly over the
        # operations' time, so that a slow phase of the machine does not hit
        # all of them at once; the first probe only warms the file cache.
        setup_probe()
        probes = 2 if args.smoke else SETUP_PROBES
        probe_every = args.seconds / probes

        def probe_between():
            op_time = sum(r.wall for r in runner.results[1:])
            while len(setup) < min(probes, 1 + int(op_time / probe_every)):
                setup.append(setup_probe())

        timed = runner.measure(args.seconds, probe_between)
        while len(setup) < probes:
            setup.append(setup_probe())
    peak_rss_mb = runner.peak_rss_mb

    walls = [r.wall for r in timed if r.ok] or [r.wall for r in timed]
    wall = statistics.median(walls)
    if setup:
        print(describe("setup_s", setup, "s", "fresh interpreters"))
    print(describe("wall_s", walls, "s", "warm operations"))
    for phase in ("synth", "select"):
        times = [r.phases[phase] for r in timed if r.ok and phase in r.phases]
        if len(plan.phases) > 1 and times:
            print(describe(f"{phase}_s", times, "s", f"{phase} commands"))
    if not args.trace:
        print(f"peak_rss_mb = {peak_rss_mb:.6g} MB (high-water mark of this process "
              f"after {RSS_AFTER_OPS} operations)")

    metrics = {}
    correct = True
    if args.trace:
        counts = [c for c, _ in per_op]
        for i, c in enumerate(counts[1:], start=2):
            diff = {k: (counts[0].get(k), c.get(k)) for k in counts[0].keys() | c.keys()
                    if c.get(k) != counts[0].get(k)}
            if diff:
                correct = False
                print(f"COUNT MISMATCH: traced operation {i} differs from the first: "
                      f"{diff}", file=sys.stderr)
        print(f"trace: {len(spans)} spans over {len(traced)} operations, written to "
              f"{os.path.relpath(write_spans(spans, args.workload, args.seed), ROOT)}")
        # Each traced operation ran right after an untraced one; the median of
        # the paired differences cancels the machine's slow drift.
        paired = [t.wall - u.wall for u, t in zip(timed, traced) if u.ok and t.ok]
        overhead = statistics.median(paired or [t.wall - u.wall
                                                for u, t in zip(timed, traced)])
        print(f"trace.overhead_s = {overhead:.6g} s (median of {len(paired)} paired "
              f"traced minus untraced operations)")
        cpu = statistics.median([r.cpu for r in timed if r.ok] or [r.cpu for r in timed])
        derived = {
            "trace.overhead_s": overhead,
            "process.cpu_s": cpu,
            "process.cpu_per_wall": cpu / wall,
        }
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif name in TIME_METRICS:
                value = statistics.median(t[name] for _, t in per_op)
            else:
                value = counts[0].get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    attempted = len(runner.results)
    failed = sum(not r.ok for r in runner.results)
    digests = sorted({r.digest for r in runner.results if r.digest})
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} "
          f"operations attempted, warm-up included)")
    print(f"data digest (information, not a gate): {', '.join(digests) or 'none'}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
