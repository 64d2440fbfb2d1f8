"""Command-line front end: synth, select, risk, rates, concentration, diagnostics.

Every command reads a flat key=value config, is deterministic given
(config, seed), writes CSV outputs plus a manifest.json, and exits 0 on
success, 3 when a file under ``--data`` is at fault, 4 when an internal
acceptance check is violated and 2 on every other invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from . import concentration as conc
from . import configio as cio
from .configio import ConfigError, DataError, cfg_list, cfg_value
from .errors import InvregError, RankError
from .experiments import (
    ExperimentConfig,
    RiskRow,
    SourceSpec,
    fit_rate,
    monte_carlo_risk,
    synth_problem,
)
from .operator import (
    DesignGrid,
    SpectralSynthetic,
    build_design_matrix,
    diagnostics,
    discretize_operator,
    midpoint_grid,
)
from .regularizers import projection_family, tikhonov_family
from .selection import (
    CandidateRow,
    PenaltyConfig,
    default_weights,
    select,
    select_by_threshold,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VIOLATION = 4


class ViolationError(InvregError):
    """An internal acceptance check failed (nonzero violation flags)."""


def _seed(cp, section: str, seed_override) -> int:
    """``--seed`` if given, else ``[section] seed`` (default 0)."""
    if seed_override is not None:
        return seed_override
    seed = cfg_value(cp, section, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"[{section}] seed must be nonnegative, got {seed}")
    return seed


def _problem_from_config(cp, seed_override):
    n = cfg_value(cp, "problem", "n", int, required=True)
    p = cfg_value(cp, "problem", "p", float, required=True)
    nu = cfg_value(cp, "problem", "nu", float, 0.5)
    rho = cfg_value(cp, "problem", "rho", float, 1.0)
    sigma = cfg_value(cp, "problem", "sigma", float, 0.1)
    seed = _seed(cp, "problem", seed_override)
    omega = cfg_value(cp, "problem", "omega", str, "log-uniform")
    d_ext = cfg_value(cp, "problem", "d_ext", int, None)
    source = SourceSpec(nu, rho, omega)
    return synth_problem(p, nu, rho, n, seed, sigma, source, d_ext), seed


def cmd_synth(args) -> int:
    cp = cio.load_config(args.config)
    prob, seed = _problem_from_config(cp, args.seed)
    man = cio.RunManifest("synth", cio.config_echo(cp), seed, args.out).start()
    op = prob.op
    t = op.grid.points

    man.csv("grid.csv", ["t"], t[:, None])
    man.csv("operator.csv", [f"phi{j + 1}" for j in range(op.d)], op.sample_matrix)
    man.csv("truth.csv", ["j", "x0"], enumerate(prob.x0.tolist(), start=1))
    rng = np.random.default_rng((seed, op.n, 0))
    y = prob.clean + (rng.normal(0.0, prob.sigma, op.n) if prob.sigma > 0
                      else np.zeros(op.n))
    man.csv("data.csv", ["t", "clean", "y"], np.column_stack([t, prob.clean, y]))
    man.finish()
    print(f"synth: wrote {len(man.outputs)} files to {args.out}")
    return 0


def _operator_from_data(cp, data_dir: str):
    """The operator sampled in ``data_dir``; any fault found while building it
    from the files is a data error (exit 3)."""
    p = cfg_value(cp, "problem", "p", float, 1.0)
    if not p > 0:
        raise ConfigError(f"[problem] p must be positive, got {p}")
    try:
        grid_cols = cio.read_csv_columns(os.path.join(data_dir, "grid.csv"), ["t"])
        grid = DesignGrid(grid_cols["t"])
        S = cio.read_matrix_csv(os.path.join(data_dir, "operator.csv"))
        if S.shape[0] != grid.n:
            raise DataError(f"operator.csv has {S.shape[0]} rows, grid has {grid.n}")
        return discretize_operator(S, grid, S.shape[1], p)
    except InvregError as exc:
        raise DataError(str(exc)) from exc


def _family_from_config(cp, op):
    kind = cfg_value(cp, "family", "kind", str, "tikhonov")
    if kind == "tikhonov":
        return tikhonov_family(
            op.singular_values, op.n, op.p,
            cfg_value(cp, "family", "alpha_max", float, 1.0),
            cfg_value(cp, "family", "ratio", float, 0.5),
            cfg_value(cp, "family", "count", int, None),
        )
    if kind == "projection":
        return projection_family(op.singular_values, op.n,
                                 cfg_list(cp, "family", "dims", int, None))
    raise ConfigError(f"unknown family kind {kind!r}")


def cmd_select(args) -> int:
    cp = cio.load_config(args.config)
    op = _operator_from_data(cp, args.data)
    data = cio.read_csv_columns(os.path.join(args.data, "data.csv"), ["t", "y"])
    y = data["y"]
    if y.size != op.n:
        raise DataError(f"data.csv has {y.size} observations, grid has {op.n}")
    back = op.svd_coefficients(y) / op.singular_values
    with np.errstate(over="ignore"):
        overflow = not np.isfinite(np.dot(back, back))
    if overflow:
        raise DataError("data.csv overflows the inversion on the maximal model")

    sigma2 = cfg_value(cp, "penalty", "sigma2", float, None)
    if sigma2 is None:
        raise ConfigError(
            "missing [penalty] sigma2: the noise variance must be known "
            "(noise moment assumption AN); pass it explicitly")
    try:
        family = _family_from_config(cp, op)
    except RankError as exc:
        # a squared filter overflows on the singular values of the files
        raise DataError(f"operator.csv: {exc}") from exc
    base = PenaltyConfig(sigma2=sigma2,
                         r=cfg_value(cp, "penalty", "r", float, 2.5),
                         kraft_d=cfg_value(cp, "penalty", "kraft_d", float, 1.0))
    weights_key = cfg_value(cp, "penalty", "weights", str, "auto")
    if weights_key == "auto":
        target = cfg_value(cp, "penalty", "kraft_target", float, 1.0)
        w = default_weights(family, base, target=target)
    elif weights_key == "zero":
        w = np.zeros(len(family))
    else:
        w = np.array(cfg_list(cp, "penalty", "weights", float, required=True))
    pcfg = PenaltyConfig(sigma2=sigma2, r=base.r, weights=w,
                         kraft_d=base.kraft_d)

    seed = args.seed if args.seed is not None else 0
    man = cio.RunManifest("select", cio.config_echo(cp), seed, args.out).start()
    result = select(family, pcfg, op, y)
    agreement = ""
    # The thresholding form covers nested prefixes {1..j}, j = 1..m only.
    m = len(family)
    if family.kind == "projection" and family.parameters == list(range(1, m + 1)):
        thr = select_by_threshold(op, y, pcfg, m0=m)
        agreement = str(int(thr.chosen == result.chosen))

    man.csv("selection.csv", [f.name for f in fields(CandidateRow)],
            [astuple(r) for r in result.per_candidate])
    stats = zip(family.parameters, family.trace_stats.tolist(),
                family.radius_stats.tolist())
    man.csv("family.csv", ["k", "kind", "parameter", "trace_stat", "radius_stat"],
            [[k, family.kind, *s] for k, s in enumerate(stats)])
    chosen = result.chosen_row()
    summary = [
        f"chosen_k = {result.chosen}",
        f"chosen_label = {chosen.label}",
        f"chosen_parameter = {chosen.parameter!r}",
        f"objective = {chosen.objective!r}",
        f"kraft_sum = {result.kraft_sum!r}",
        f"r = {pcfg.r!r}",
        f"sigma2 = {pcfg.sigma2!r}",
        f"weight_policy = {weights_key}",
        f"weight_common = {float(w[0]) if w.size else 0.0!r}",
    ]
    if agreement:
        summary.append(f"threshold_agreement = {agreement}")
    man.text("summary.txt", "\n".join(summary) + "\n")
    man.finish()
    print("\n".join(summary))
    return 0


def _experiment_config(cp, seed_override) -> ExperimentConfig:
    n_grid = cfg_list(cp, "experiment", "n_grid", int,
                      [256, 512, 1024, 2048, 4096, 8192])
    return ExperimentConfig(
        p=cfg_value(cp, "problem", "p", float, 1.0),
        nu=cfg_value(cp, "problem", "nu", float, 0.5),
        rho=cfg_value(cp, "problem", "rho", float, 1.0),
        sigma=cfg_value(cp, "problem", "sigma", float, 0.1),
        n_grid=tuple(n_grid),
        replications=cfg_value(cp, "experiment", "replications", int, 200),
        family=cfg_value(cp, "family", "kind", str, "both"),
        r=cfg_value(cp, "penalty", "r", float, 2.5),
        kraft_target=cfg_value(cp, "penalty", "kraft_target", float, 1.0),
        kraft_d=cfg_value(cp, "penalty", "kraft_d", float, 1.0),
        seed=_seed(cp, "experiment", seed_override),
        alpha_max=cfg_value(cp, "family", "alpha_max", float, 1.0),
        alpha_ratio=cfg_value(cp, "family", "ratio", float, 0.5),
        ext_factor=cfg_value(cp, "problem", "ext_factor", int, 4),
        omega=cfg_value(cp, "problem", "omega", str, "log-uniform"),
    )


def _write_risk(man, report) -> None:
    man.csv("risk.csv", [f.name for f in fields(RiskRow)],
            [astuple(r) for r in report.rows])


def cmd_risk(args) -> int:
    cp = cio.load_config(args.config)
    cfg = _experiment_config(cp, args.seed)
    man = cio.RunManifest("risk", cio.config_echo(cp), cfg.seed, args.out).start()
    report = monte_carlo_risk(cfg)
    _write_risk(man, report)
    man.csv("plotdata.csv", ["method", "log_n", "log_risk"], report.plot_rows())
    man.finish()
    print(f"risk: {len(report.rows)} cells "
          f"({'/'.join(cfg.methods())}, n in {list(cfg.n_grid)})")
    return 0


def cmd_rates(args) -> int:
    cp = cio.load_config(args.config)
    cfg = _experiment_config(cp, args.seed)
    if len(set(cfg.n_grid)) < 4:
        raise ConfigError(
            f"rate fit needs at least 4 distinct n values, got {len(set(cfg.n_grid))}")
    man = cio.RunManifest("rates", cio.config_echo(cp), cfg.seed, args.out).start()
    report = monte_carlo_risk(cfg)
    _write_risk(man, report)
    fits = [fit_rate(report, m) for m in cfg.methods()]
    man.csv("rates.csv", ["method", "slope", "half_width", "theoretical", "n_count"],
            [[f.method, f.slope, f.half_width, f.theoretical, len(f.n_values)]
             for f in fits])
    man.finish()
    for f in fits:
        print(f"rates: {f.method} slope {f.slope:+.4f} +- {f.half_width:.4f} "
              f"(theoretical {f.theoretical:+.4f})")
    return 0


def _concentration_matrix(token: str, op_cache: dict) -> np.ndarray:
    name, _, size = token.partition(":")
    # default size: d, or d x n for a regularizer
    default = {"identity": "4", "decay": "8", "regularizer": "4x16"}.get(name)
    if default is None:
        raise ConfigError(f"unknown concentration matrix {token!r}")
    try:
        dims = tuple(int(v) for v in (size or default).split("x"))
    except ValueError:
        dims = ()
    if len(dims) != default.count("x") + 1 or min(dims) < 1:
        raise ConfigError(f"bad size in concentration matrix {token!r}: "
                          f"need positive integers shaped like {default}")
    if name == "identity":
        return np.eye(dims[0])
    if name == "decay":
        return np.diag(1.0 / np.arange(1.0, dims[0] + 1.0))
    if dims not in op_cache:
        d, n = dims
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(n), d)
        fam = tikhonov_family(op.singular_values, n, op.p, alpha_max=0.25, count=1)
        op_cache[dims] = op.regularizer(fam.filter_matrix[0])
    return op_cache[dims]


def cmd_concentration(args) -> int:
    cp = cio.load_config(args.config)
    seed = _seed(cp, "concentration", args.seed)
    reps = cfg_value(cp, "concentration", "replications", int, 10_000)
    u_count = cfg_value(cp, "concentration", "u_count", int, 8)
    weight = cfg_value(cp, "concentration", "weight", float, 1.0)
    sigma = cfg_value(cp, "concentration", "sigma", float, 1.0)
    moment_q = cfg_value(cp, "concentration", "moment_q", int, 1)
    tokens = cfg_value(cp, "concentration", "matrices", str,
                       "identity:4 decay:8 regularizer:4x16").split()
    trials = cfg_value(cp, "concentration", "identity_trials", int, 20)
    if not tokens or trials < 1:
        raise ConfigError("[concentration] needs at least one matrix and "
                          "identity_trials >= 1")
    cache: dict = {}
    noise = conc.GaussianNoise(sigma)
    pcfg = PenaltyConfig(sigma2=sigma ** 2,
                         r=cfg_value(cp, "penalty", "r", float, 2.5),
                         weights=np.array([weight]),
                         kraft_d=cfg_value(cp, "penalty", "kraft_d", float, 1.0))
    specs = [(token, conc.QuadFormSpec(_concentration_matrix(token, cache),
                                       noise, reps, seed))
             for token in tokens]
    man = cio.RunManifest("concentration", cio.config_echo(cp), seed,
                          args.out).start()

    tail_rows, moment_rows, comments = [], [], []
    total_violations = 0
    for token, spec in specs:
        etasq = spec.eta_squared_samples()
        rep = conc.tail_check(spec, etasq, pcfg, conc.default_u_grid(spec.A, u_count))
        total_violations += rep.violations
        comments.append(f"# {token}: " + "; ".join(
            l.lstrip("# ") for l in rep.header_lines()))
        tail_rows.extend([token, *r] for r in zip(
            rep.thresholds.tolist(), rep.empirical_tail.tolist(), rep.stderr.tolist(),
            rep.theoretical_bound.tolist(), rep.violation_flags().tolist()))
        mom = conc.moment_check(spec, etasq, pcfg, moment_q)
        moment_rows.append([token, mom.q, mom.empirical_moment, mom.bound_shape,
                            mom.ratio, mom.defined])

    man.csv("tails.csv", ["matrix", "u", "empirical", "stderr", "bound", "violation"],
            tail_rows, comments)
    man.csv("moments.csv",
            ["matrix", "q", "empirical", "bound_shape", "ratio", "defined"],
            moment_rows)

    rng = np.random.default_rng((seed, 0xA11))
    id_rows = []
    for trial in range(trials):
        n = int(rng.integers(8, 33))
        d = int(rng.integers(1, min(n, 8) + 1))
        G = build_design_matrix(midpoint_grid(n), d)
        eps = rng.normal(0.0, sigma, n)
        chk = conc.projection_identity_check(eps, G, seed=trial)
        id_rows.append([trial, n, d, chk.lhs, chk.rhs, chk.gap])
    man.csv("identity.csv", ["trial", "n", "d", "lhs", "rhs", "gap"], id_rows)
    man.finish()
    print(f"concentration: {total_violations} tail violations over "
          f"{len(tokens)} matrices")
    if total_violations > 0:
        raise ViolationError(f"{total_violations} tail-bound violations")
    return 0


def cmd_diagnostics(args) -> int:
    cp = cio.load_config(args.config)
    if args.data:
        op = _operator_from_data(cp, args.data)
        seed = args.seed if args.seed is not None else 0
    else:
        prob, seed = _problem_from_config(cp, args.seed)
        op = prob.op
    dims = cfg_list(cp, "diagnostics", "dims", int, list(range(1, op.d + 1)))
    man = cio.RunManifest("diagnostics", cio.config_echo(cp), seed, args.out).start()
    diag = diagnostics(op, dims)
    man.text("diagnostics.txt", diag.to_report())
    man.finish()
    sys.stdout.write(diag.to_report())
    return 0


def nonnegative_int(text: str) -> int:
    """argparse type for ``--seed``; a ValueError becomes a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invreg",
        description="Adaptive selection of regularization operators for "
                    "discretized linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=False):
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=nonnegative_int, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
        if data:
            sp.add_argument("--data", default=None,
                            help="directory with grid/operator/data CSVs")

    common(sub.add_parser("synth", help="generate a synthetic problem"))
    sp = sub.add_parser("select", help="run the penalized selection on data")
    common(sp, data=True)
    sp.set_defaults(needs_data=True)
    common(sub.add_parser("risk", help="Monte Carlo risk study"))
    common(sub.add_parser("rates", help="risk study plus rate fits"))
    common(sub.add_parser("concentration", help="tail and moment checks"))
    common(sub.add_parser("diagnostics", help="ill-posedness diagnostics"),
           data=True)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "select": cmd_select,
    "risk": cmd_risk,
    "rates": cmd_rates,
    "concentration": cmd_concentration,
    "diagnostics": cmd_diagnostics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_data", False) and not args.data:
        print("error: select requires --data", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](args)
    except ViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvregError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
