"""The benchmark's workloads: inputs made from the seed, and output checks.

An operation is a list of ``invreg`` CLI invocations (phases).  Each
workload builds its inputs in a work directory from the benchmark seed,
which reaches the program only as ``--seed N`` and inside the generated
config files.  After every operation the workload checks the outputs;
an operation fails on a nonzero exit or a failed check.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

# Slope tolerance of the acceptance suite (RATE_TOL in tests/test_acceptance.py).
RATE_TOL = 0.15
IDENTITY_GAP = 1e-10

WHY = {
    "rates_shipped": (
        "README protocol rates.ini with --threads 2 (n = 256..8192, 200 reps, "
        "both families): small arrays and Python loops, selection ~60% of the "
        "time; the only workload on the risk driver's thread pool"),
    "rates_large": (
        "scaled-up rates protocol (n = 4096..65536, 200 reps, --threads 1): work "
        "grows with n, so the design SVD, svd_coefficients and noise draws "
        "dominate; bypasses the thread pool"),
    "concentration_shipped": (
        "concentration.ini (10^4 reps x 3 tiny matrices): eta_squared_samples "
        "takes ~99% of the time, each matrix drawn twice; operator and selection "
        "layers idle"),
    "select_roundtrip": (
        "synth, select --data, diagnostics --data at n = 16384: the only workload "
        "where configio does real work (~9.8 MB of CSV written and read back) and "
        "the only one on the general QR+SVD discretization path"),
}

# Inputs for ``--smoke``: the same commands at tiny sizes.
SMOKE = {
    "rates": {"n_grid": "256, 512, 1024, 2048", "replications": "10"},
    "concentration": {"replications": "500", "identity_trials": "3"},
    "roundtrip_n": 4096,  # smallest n whose model size reaches the dims 1..16
}


@dataclass
class Plan:
    """What one operation of a workload runs and how its outputs are checked."""

    phases: list[tuple[str, list[str]]]
    out_dirs: list[str]
    data_files: list[str]
    check: Callable[[], list[str]]
    work: dict = field(default_factory=dict)


def _write_ini(path: str, sections: dict) -> str:
    cp = configparser.ConfigParser()
    for section, items in sections.items():
        cp[section] = {k: str(v) for k, v in items.items()}
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _derived_config(src: str, dst: str, overrides: dict) -> str:
    """Copy a shipped config with some keys replaced (same keys otherwise)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(src) as fh:
        cp.read_file(fh)
    sections = {s: dict(cp.items(s)) for s in cp.sections()}
    for (section, key), value in overrides.items():
        sections[section][key] = value
    return _write_ini(dst, sections)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def digest(paths: list[str]) -> str:
    """sha256 over the named files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def check_rates(out: str) -> list[str]:
    problems = []
    for row in _rows(os.path.join(out, "rates.csv")):
        gap = abs(float(row["slope"]) - float(row["theoretical"]))
        if not gap <= RATE_TOL:
            problems.append(f"{row['method']} slope {row['slope']} is {gap:.3f} "
                            f"from theoretical {row['theoretical']}")
    for row in _rows(os.path.join(out, "risk.csv")):
        if row["method"] == "projection" and float(row["threshold_agreement"]) != 1.0:
            problems.append(f"n={row['n']}: threshold_agreement "
                            f"{row['threshold_agreement']}")
    return problems


def check_concentration(out: str) -> list[str]:
    # Exit 0 already means no tail violations (the command exits 4 otherwise).
    return [f"identity trial {row['trial']}: gap {row['gap']}"
            for row in _rows(os.path.join(out, "identity.csv"))
            if not float(row["gap"]) <= IDENTITY_GAP]


def check_select(out: str) -> list[str]:
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    if summary.get("threshold_agreement") != "1":
        return [f"threshold_agreement = {summary.get('threshold_agreement')}"]
    return []


def plan(workload: str, seed: int, root: str, work: str, smoke: bool) -> Plan:
    """Write the workload's inputs under ``work`` and describe one operation."""
    configs = os.path.join(root, "configs")
    seed_arg = ["--seed", str(seed)]
    if workload in ("rates_shipped", "rates_large"):
        out = os.path.join(work, "rates")
        shipped = os.path.join(configs, "rates.ini")
        if not os.path.isfile(shipped):
            raise FileNotFoundError(shipped)
        if smoke:
            cfg = _derived_config(shipped, os.path.join(work, "rates.ini"),
                                  {("experiment", k): v
                                   for k, v in SMOKE["rates"].items()})
        elif workload == "rates_large":
            cfg = _derived_config(shipped, os.path.join(work, "rates_large.ini"), {
                ("experiment", "n_grid"): "4096, 8192, 16384, 32768, 65536",
                ("experiment", "replications"): "200",
            })
        else:
            cfg = shipped
        threads = "2" if workload == "rates_shipped" else "1"
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(cfg)
        n_grid = cp.get("experiment", "n_grid").replace(",", " ").split()
        reps = cp.getint("experiment", "replications")
        families = 2 if cp.get("family", "kind") == "both" else 1
        return Plan(
            [("rates", ["rates", "--config", cfg, "--out", out,
                        "--threads", threads] + seed_arg)],
            [out],
            [os.path.join(out, f) for f in ("risk.csv", "rates.csv")],
            lambda: check_rates(out),
            {"replications": reps, "grid_points": len(n_grid), "families": families,
             "n_max": int(n_grid[-1]), "threads": int(threads)},
        )
    if workload == "concentration_shipped":
        out = os.path.join(work, "conc")
        shipped = os.path.join(configs, "concentration.ini")
        if not os.path.isfile(shipped):
            raise FileNotFoundError(shipped)
        cfg = shipped
        if smoke:
            cfg = _derived_config(shipped, os.path.join(work, "concentration.ini"),
                                  {("concentration", k): v
                                   for k, v in SMOKE["concentration"].items()})
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(cfg)
        return Plan(
            [("concentration", ["concentration", "--config", cfg, "--out", out]
              + seed_arg)],
            [out],
            [os.path.join(out, f) for f in ("tails.csv", "moments.csv", "identity.csv")],
            lambda: check_concentration(out),
            {"matrices": len(cp.get("concentration", "matrices").split()),
             "replications": cp.getint("concentration", "replications")},
        )
    if workload in ("select_roundtrip", "bad_config"):
        n = SMOKE["roundtrip_n"] if smoke else 16384
        problem = {"n": n, "p": "1.0", "nu": "0.5", "sigma": "0.1", "seed": seed}
        if workload == "bad_config":
            # Self-test only: a config that lacks a required key, so synth exits 2.
            del problem["n"]
        cfg = _write_ini(os.path.join(work, "roundtrip.ini"), {
            "problem": problem,
            "family": {"kind": "projection"},
            "penalty": {"sigma2": "0.01", "r": "2.5"},
            "diagnostics": {"dims": "1, 2, 4, 8, 16"},
        })
        data, sel, diag = (os.path.join(work, d) for d in ("synth", "select", "diag"))
        return Plan(
            [("synth", ["synth", "--config", cfg, "--out", data] + seed_arg),
             ("select", ["select", "--config", cfg, "--data", data, "--out", sel]),
             ("diagnostics", ["diagnostics", "--config", cfg, "--data", data,
                              "--out", diag])],
            [data, sel, diag],
            [os.path.join(data, f) for f in ("grid.csv", "operator.csv", "truth.csv",
                                             "data.csv")]
            + [os.path.join(sel, f) for f in ("selection.csv", "family.csv",
                                              "summary.txt")]
            + [os.path.join(diag, "diagnostics.txt")],
            lambda: check_select(sel),
            {"n": n, "phases": 3},
        )
    raise ValueError(f"unknown workload {workload!r}")
