"""Spans and counters recorded from outside the ``invreg`` package.

``install`` wraps the public functions of each layer at run time.  A
function is wrapped at every module binding that refers to it (names are
imported by value, so ``invreg.cli.monte_carlo_risk`` and
``invreg.experiments.monte_carlo_risk`` are separate bindings), and a
method is wrapped on its class.  ``uninstall`` puts the originals back.

A span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in memory; ``layer_metrics`` turns the spans and
counters of one operation into per-layer numbers, where a span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.matrices: dict[int, dict] = defaultdict(dict)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: int | float) -> None:
        with self._lock:
            self.counts[self.op][key] += value

    def wrap(self, name: str, fn, count=None):
        """Time ``fn`` as span ``name``; ``count(tracer, args, kwargs, result)``
        records counters after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread starts with an empty stack; its work belongs to
            # the span the main thread has open (the fan-out point).
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            op = tracer.op
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, op))
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters computed at the layer boundary


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _svd_bytes(tracer, args, kwargs, result):
    op = args[0]
    tracer.add("operator.svd_coefficients.bytes_computed", 8 * op.d * op.n)


def _family_built(tracer, args, kwargs, result):
    tracer.add("regularizers.candidates_built", len(result))


def _candidates_scored(tracer, args, kwargs, result):
    tracer.add("selection.candidates_scored", len(_arg(args, kwargs, 0, "family")))


def _eta_samples(tracer, args, kwargs, result):
    spec = args[0]
    tracer.add("concentration.eta_squared_samples.samples", spec.replications)
    key = (hashlib.sha1(spec.A.tobytes()).hexdigest(), spec.A.shape, spec.seed)
    with tracer._lock:
        tracer.matrices[tracer.op][key] = spec.replications


def _written_bytes(tracer, args, kwargs, result):
    tracer.add("configio.write_csv.bytes",
               os.path.getsize(_arg(args, kwargs, 0, "path")))


def _read_bytes(tracer, args, kwargs, result):
    tracer.add("configio.read_csv_columns.bytes",
               os.path.getsize(_arg(args, kwargs, 0, "path")))


# (home module, function, span name, counter)
FUNCTIONS = [
    ("operator", "discretize_operator", "operator.discretize_operator", None),
    ("operator", "build_design_matrix", "operator.build_design_matrix", None),
    ("operator", "diagnostics", "operator.diagnostics", None),
    ("regularizers", "tikhonov_family", "regularizers.family_build", _family_built),
    ("regularizers", "projection_family", "regularizers.family_build", _family_built),
    ("selection", "select", "selection.select", _candidates_scored),
    ("selection", "kraft_sum", "selection.kraft_sum", None),
    ("selection", "select_by_threshold", "selection.select_by_threshold", None),
    ("selection", "default_weights", "selection.default_weights", None),
    ("experiments", "monte_carlo_risk", "experiments.monte_carlo_risk", None),
    ("experiments", "synth_problem", "experiments.synth_problem", None),
    ("experiments", "fit_rate", "experiments.fit_rate", None),
    ("concentration", "tail_check", "concentration.tail_check", None),
    ("concentration", "moment_check", "concentration.moment_check", None),
    ("concentration", "projection_identity_check",
     "concentration.projection_identity_check", None),
    ("configio", "write_csv", "configio.write_csv", _written_bytes),
    ("configio", "read_csv_columns", "configio.read_csv_columns", _read_bytes),
]

# (home module, class, method, span name, counter)
METHODS = [
    ("operator", "DiscretizedOperator", "svd_coefficients",
     "operator.svd_coefficients", _svd_bytes),
    ("concentration", "QuadFormSpec", "eta_squared_samples",
     "concentration.eta_squared_samples", _eta_samples),
    ("configio", "RunManifest", "finish", "configio.manifest", None),
]

SPAN_NAMES = sorted({f[2] for f in FUNCTIONS} | {m[3] for m in METHODS} | {"cli"})


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding of the traced functions; returns the undo list."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "invreg" or name.startswith("invreg."))]
    undo = []
    for home, attr, span, count in FUNCTIONS:
        orig = getattr(sys.modules[f"invreg.{home}"], attr)
        traced = tracer.wrap(span, orig, count)
        bound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, traced)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding of invreg.{home}.{attr} found")
    for home, cls_name, attr, span, count in METHODS:
        cls = getattr(sys.modules[f"invreg.{home}"], cls_name)
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(span, orig, count))
    return undo


def uninstall(undo) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


# ---------------------------------------------------------------------------
# per-operation aggregation


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the cover of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


def layer_metrics(tracer: Tracer, op: int) -> tuple[dict, dict]:
    """(counts, self times) of one operation, keyed by metric name."""
    spans = [s for s in tracer.spans if s.op == op]
    selfs = self_times(spans)
    counts: dict[str, float] = {f"{name}.calls": 0 for name in SPAN_NAMES}
    times: dict[str, float] = {f"{name}.self_s": 0.0 for name in SPAN_NAMES}
    for s in spans:
        counts[f"{s.name}.calls"] += 1
        times[f"{s.name}.self_s"] += selfs[s.sid]
    counts.update(tracer.counts[op])
    distinct = sum(tracer.matrices[op].values())
    samples = counts.get("concentration.eta_squared_samples.samples", 0)
    counts["concentration.samples_per_matrix"] = samples / distinct if distinct else 0.0
    return counts, times
