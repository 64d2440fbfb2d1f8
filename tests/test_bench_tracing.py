"""The benchmark's tracer still finds every layer it wraps.

``bench/tracing.py`` looks up ``invreg`` functions and methods by name, so a
renamed function or a method turned into a property breaks only the traced
benchmark run.  This runs the tracer around tiny ``rates``,
``concentration``, ``synth`` and ``select --data`` invocations (the last
once on a full-prefix projection family, whose thresholding cross-check
reads the same coefficients and penalties) and checks that every family
they build and every CSV and manifest they write passes through the traced
layers.  The risk study works in singular coordinates and ``select --data``
takes the singular coefficients from its streamed pass, so neither reaches
the sample-space projection ``svd_coefficients`` nor ``select_by_threshold``.
"""

import importlib.util
import os

from invreg import (
    QuadFormSpec,
    SpectralSynthetic,
    choose_m0,
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

SYNTH_CFG = """
[problem]
n = 16
p = 1.0
nu = 0.5
sigma = 0.1
seed = 1

[family]
kind = tikhonov

[penalty]
sigma2 = 0.01
"""

# the full-prefix projection family: select cross-checks it by thresholding
PROJ_CFG = SYNTH_CFG.replace("kind = tikhonov", "kind = projection")

CONC_CFG = """
[concentration]
matrices = identity:4 regularizer:4x16
replications = 200
identity_trials = 2
"""


def _candidates_in_traced_runs() -> int:
    """Summed size of the families the traced runs build, from the families,
    each built from its singular values j^(-1) and its n."""
    spectrum = SpectralSynthetic(p=1.0).values
    total = 0
    for n in (64, 128, 256, 512):   # RATES_CFG: both families at every n
        lam = spectrum(choose_m0(n, 1.0))
        total += len(tikhonov_family(lam, n, 1.0)) + len(projection_family(lam, n))
    # CONC_CFG's regularizer:4x16 is one candidate of a tikhonov family
    total += len(tikhonov_family(spectrum(4), 16, 1.0, alpha_max=0.25, count=1))
    # SYNTH_CFG's select: the default tikhonov family on the synth model size
    lam = spectrum(choose_m0(16, 1.0))
    total += len(tikhonov_family(lam, 16, 1.0))
    # PROJ_CFG's select builds the prefix family once
    return total + len(projection_family(lam, 16))


def test_traced_run_counts_the_monte_carlo_layers(tmp_path):
    rates = tmp_path / "rates.ini"
    rates.write_text(RATES_CFG)
    conc = tmp_path / "conc.ini"
    conc.write_text(CONC_CFG)
    synth = tmp_path / "synth.ini"
    synth.write_text(SYNTH_CFG)
    proj = tmp_path / "proj.ini"
    proj.write_text(PROJ_CFG)
    original = QuadFormSpec.__dict__["eta_squared_samples"]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        codes = [main(["rates", "--config", str(rates), "--out", str(tmp_path / "r")]),
                 main(["concentration", "--config", str(conc),
                       "--out", str(tmp_path / "c")]),
                 main(["synth", "--config", str(synth), "--out", str(tmp_path / "s")]),
                 main(["select", "--config", str(synth), "--data", str(tmp_path / "s"),
                       "--out", str(tmp_path / "sel")]),
                 main(["select", "--config", str(proj), "--data", str(tmp_path / "s"),
                       "--out", str(tmp_path / "proj")])]
    finally:
        tracing.uninstall(undo)
    assert codes == [0, 0, 0, 0, 0]
    assert QuadFormSpec.__dict__["eta_squared_samples"] is original
    counts, _ = tracing.layer_metrics(tracer, tracer.op)
    assert counts["operator.svd_coefficients.calls"] == 0
    assert counts["concentration.eta_squared_samples.calls"] > 0
    assert counts["concentration.samples_per_matrix"] == 1.0
    assert counts["regularizers.family_build.calls"] > 0
    assert counts["regularizers.candidates_built"] == _candidates_in_traced_runs()
    assert counts["selection.select_by_threshold.calls"] == 0
    files = [os.path.join(tmp_path, d, name) for d in ("r", "c", "s", "sel", "proj")
             for name in os.listdir(tmp_path / d)]
    csvs = [f for f in files if f.endswith(".csv")]
    assert counts["configio.write_csv.calls"] == len(csvs)
    assert counts["configio.write_csv.bytes"] == sum(map(os.path.getsize, csvs))
    assert counts["configio.manifest.calls"] == sum(
        os.path.basename(f) == "manifest.json" for f in files)
