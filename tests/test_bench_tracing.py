"""The benchmark's tracer still finds every layer it wraps.

``bench/tracing.py`` looks up ``invreg`` functions and methods by name, so a
renamed function or a method turned into a property breaks only the traced
benchmark run.  This runs the tracer around tiny ``rates`` and
``concentration`` invocations.
"""

import importlib.util
import os

from invreg import (
    QuadFormSpec,
    SpectralSynthetic,
    choose_m0,
    cosine_basis,
    discretize_operator,
    midpoint_grid,
    projection_family,
    tikhonov_family,
)
from invreg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

RATES_CFG = """
[problem]
p = 1.0
nu = 0.5
sigma = 0.1

[family]
kind = both

[experiment]
n_grid = 64, 128, 256, 512
replications = 3
seed = 2
"""

CONC_CFG = """
[concentration]
matrices = identity:4 regularizer:4x16
replications = 200
identity_trials = 2
"""


def _candidates_in_traced_runs() -> int:
    """Summed size of the families the two runs build, from the families."""
    total = 0
    for n in (64, 128, 256, 512):   # RATES_CFG: both families at every n
        op = discretize_operator(SpectralSynthetic(p=1.0), cosine_basis(),
                                 midpoint_grid(n), choose_m0(n, 1.0))
        total += len(tikhonov_family(op)) + len(projection_family(op))
    # CONC_CFG's regularizer:4x16 is one candidate of a tikhonov family
    op = discretize_operator(SpectralSynthetic(p=1.0), cosine_basis(),
                             midpoint_grid(16), 4)
    return total + len(tikhonov_family(op, alpha_max=0.25, count=1))


def test_traced_run_counts_the_monte_carlo_layers(tmp_path):
    rates = tmp_path / "rates.ini"
    rates.write_text(RATES_CFG)
    conc = tmp_path / "conc.ini"
    conc.write_text(CONC_CFG)
    original = QuadFormSpec.__dict__["eta_squared_samples"]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        codes = [main(["rates", "--config", str(rates), "--out", str(tmp_path / "r")]),
                 main(["concentration", "--config", str(conc),
                       "--out", str(tmp_path / "c")])]
    finally:
        tracing.uninstall(undo)
    assert codes == [0, 0]
    assert QuadFormSpec.__dict__["eta_squared_samples"] is original
    counts, _ = tracing.layer_metrics(tracer, tracer.op)
    assert counts["operator.svd_coefficients.calls"] > 0
    assert counts["concentration.eta_squared_samples.calls"] > 0
    assert counts["concentration.samples_per_matrix"] == 1.0
    assert counts["regularizers.family_build.calls"] > 0
    assert counts["regularizers.candidates_built"] == _candidates_in_traced_runs()
