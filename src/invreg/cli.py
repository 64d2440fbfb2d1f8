"""Command-line front end: synth, select, risk, rates, concentration, diagnostics.

Every command reads a flat key=value config, is deterministic given
(config, seed), writes CSV outputs plus a manifest.json, and exits 0 on
success, 2 on config errors, 3 on data errors, 4 when an internal
acceptance check is violated.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import concentration as conc
from . import configio as cio
from .configio import ConfigError, DataError, cfg_list, cfg_value
from .errors import InsufficientDataError, InvregError, ParameterError
from .experiments import (
    ExperimentConfig,
    SourceSpec,
    fit_rate,
    monte_carlo_risk,
    synth_problem,
)
from .operator import (
    DesignGrid,
    SpectralSynthetic,
    build_design_matrix,
    cosine_basis,
    diagnostics,
    discretize_operator,
    midpoint_grid,
)
from .regularizers import projection_family, tikhonov_family
from .selection import (
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


@contextmanager
def _from_config():
    """A ParameterError raised while building objects from config values is
    a config error (exit 2); raised on data files it stays a data error."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _problem_from_config(cp, seed_override):
    n = cfg_value(cp, "problem", "n", int, required=True)
    p = cfg_value(cp, "problem", "p", float, required=True)
    nu = cfg_value(cp, "problem", "nu", float, 0.5)
    rho = cfg_value(cp, "problem", "rho", float, 1.0)
    sigma = cfg_value(cp, "problem", "sigma", float, 0.1)
    seed = seed_override if seed_override is not None else \
        cfg_value(cp, "problem", "seed", int, 0)
    omega = cfg_value(cp, "problem", "omega", str, "log-uniform")
    d_ext = cfg_value(cp, "problem", "d_ext", int, None)
    with _from_config():
        source = SourceSpec(nu, rho, omega)
        return synth_problem(p, nu, rho, n, seed, sigma, source, d_ext), seed


def cmd_synth(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    prob, seed = _problem_from_config(cp, args.seed)
    man = cio.RunManifest("synth", cio.config_echo(cp), seed).start()
    op = prob.op

    cio.write_csv(man.add(os.path.join(out, "grid.csv")), ["t"],
                  [[cio.fmt(float(t))] for t in op.grid.points])
    header = [f"phi{j + 1}" for j in range(op.d)]
    cio.write_csv(man.add(os.path.join(out, "operator.csv")), header,
                  [[cio.fmt(float(v)) for v in row] for row in op.sample_matrix])
    cio.write_csv(man.add(os.path.join(out, "truth.csv")), ["j", "x0"],
                  [[j + 1, cio.fmt(float(v))] for j, v in enumerate(prob.x0)])
    rng = np.random.default_rng((seed, op.n, 0))
    y = prob.clean + (rng.normal(0.0, prob.sigma, op.n) if prob.sigma > 0
                      else np.zeros(op.n))
    cio.write_csv(man.add(os.path.join(out, "data.csv")), ["t", "clean", "y"],
                  [[cio.fmt(float(t)), cio.fmt(float(c)), cio.fmt(float(v))]
                   for t, c, v in zip(op.grid.points, prob.clean, y)])
    man.finish(out)
    print(f"synth: wrote {len(man.outputs)} files to {out}")
    return 0


def _operator_from_data(cp, data_dir: str):
    grid_cols = cio.read_csv_columns(os.path.join(data_dir, "grid.csv"), ["t"])
    grid = DesignGrid(grid_cols["t"])
    S = cio.read_matrix_csv(os.path.join(data_dir, "operator.csv"))
    if S.shape[0] != grid.n:
        raise DataError(f"operator.csv has {S.shape[0]} rows, grid has {grid.n}")
    p = cfg_value(cp, "problem", "p", float, 1.0)
    return discretize_operator(S, cosine_basis(), grid, S.shape[1], p)


def _family_from_config(cp, op):
    kind = cfg_value(cp, "family", "kind", str, "tikhonov")
    if kind == "tikhonov":
        return tikhonov_family(
            op,
            cfg_value(cp, "family", "alpha_max", float, 1.0),
            cfg_value(cp, "family", "ratio", float, 0.5),
            cfg_value(cp, "family", "count", int, None),
        ), kind
    if kind == "projection":
        dims = cfg_list(cp, "family", "dims", int, None)
        return projection_family(op, dims), kind
    raise ConfigError(f"unknown family kind {kind!r}")


def cmd_select(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    op = _operator_from_data(cp, args.data)
    data = cio.read_csv_columns(os.path.join(args.data, "data.csv"), ["t", "y"])
    y = data["y"]
    if y.size != op.n:
        raise DataError(f"data.csv has {y.size} observations, grid has {op.n}")

    sigma2 = cfg_value(cp, "penalty", "sigma2", float, None)
    if sigma2 is None:
        raise ConfigError(
            "missing [penalty] sigma2: the noise variance must be known "
            "(noise moment assumption AN); pass it explicitly")
    with _from_config():
        family, kind = _family_from_config(cp, op)
        base = PenaltyConfig(sigma2=sigma2,
                             r=cfg_value(cp, "penalty", "r", float, 2.5),
                             kraft_d=cfg_value(cp, "penalty", "kraft_d", float, 1.0))
        weights_key = cfg_value(cp, "penalty", "weights", str, "auto")
        if weights_key == "auto":
            w = default_weights(family, base,
                                target=cfg_value(cp, "penalty", "kraft_target",
                                                 float, 1.0))
        elif weights_key == "zero":
            w = np.zeros(len(family))
        else:
            w = np.array(cfg_list(cp, "penalty", "weights", float, required=True))
        pcfg = PenaltyConfig(sigma2=sigma2, r=base.r, weights=w,
                             kraft_d=base.kraft_d)

    seed = args.seed if args.seed is not None else 0
    man = cio.RunManifest("select", cio.config_echo(cp), seed).start()
    result = select(family, pcfg, op, y)
    agreement = ""
    # The thresholding form covers nested prefixes {1..j}, j = 1..m only.
    m = len(family)
    if kind == "projection" and family.parameters == list(range(1, m + 1)):
        thr = select_by_threshold(op, y, pcfg, m0=m)
        agreement = str(int(thr.chosen == result.chosen))

    header, rows = result.to_csv_rows()
    cio.write_csv(man.add(os.path.join(out, "selection.csv")), header, rows)
    cio.write_csv(man.add(os.path.join(out, "family.csv")),
                  ["k", "kind", "parameter", "trace_stat", "radius_stat"],
                  [[k, kd, cio.fmt(float(par)), cio.fmt(tr), cio.fmt(rad)]
                   for k, kd, par, tr, rad in family.statistics_rows()])
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
    spath = man.add(os.path.join(out, "summary.txt"))
    with open(spath, "w") as fh:
        fh.write("\n".join(summary) + "\n")
    man.finish(out)
    print("\n".join(summary))
    return 0


def _experiment_config(cp, seed_override) -> ExperimentConfig:
    seed = seed_override if seed_override is not None else \
        cfg_value(cp, "experiment", "seed", int, 0)
    n_grid = cfg_list(cp, "experiment", "n_grid", int,
                      [256, 512, 1024, 2048, 4096, 8192])
    with _from_config():
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
            seed=seed,
            alpha_max=cfg_value(cp, "family", "alpha_max", float, 1.0),
            alpha_ratio=cfg_value(cp, "family", "ratio", float, 0.5),
            ext_factor=cfg_value(cp, "problem", "ext_factor", int, 4),
            omega=cfg_value(cp, "problem", "omega", str, "log-uniform"),
        )


def cmd_risk(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    cfg = _experiment_config(cp, args.seed)
    man = cio.RunManifest("risk", cio.config_echo(cp), cfg.seed).start()
    report = monte_carlo_risk(cfg)
    header, rows = report.to_csv_rows()
    cio.write_csv(man.add(os.path.join(out, "risk.csv")), header, rows)
    cio.write_csv(man.add(os.path.join(out, "plotdata.csv")),
                  ["method", "log_n", "log_risk"],
                  [[m, cio.fmt(a), cio.fmt(b)] for m, a, b in report.plot_rows()])
    man.finish(out)
    print(f"risk: {len(report.rows)} cells "
          f"({'/'.join(cfg.methods())}, n in {list(cfg.n_grid)})")
    return 0


def cmd_rates(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    cfg = _experiment_config(cp, args.seed)
    if len(set(cfg.n_grid)) < 4:
        raise InsufficientDataError(
            f"rate fit needs at least 4 distinct n values, got {len(set(cfg.n_grid))}")
    man = cio.RunManifest("rates", cio.config_echo(cp), cfg.seed).start()
    report = monte_carlo_risk(cfg)
    header, rows = report.to_csv_rows()
    cio.write_csv(man.add(os.path.join(out, "risk.csv")), header, rows)
    fits = [fit_rate(report, m) for m in cfg.methods()]
    cio.write_csv(man.add(os.path.join(out, "rates.csv")),
                  ["method", "slope", "half_width", "theoretical", "n_count"],
                  [[f.method, cio.fmt(f.slope), cio.fmt(f.half_width),
                    cio.fmt(f.theoretical), len(f.n_values)] for f in fits])
    man.finish(out)
    for f in fits:
        print(f"rates: {f.method} slope {f.slope:+.4f} +- {f.half_width:.4f} "
              f"(theoretical {f.theoretical:+.4f})")
    return 0


def _concentration_matrix(token: str, op_cache: dict) -> np.ndarray:
    name, _, size = token.partition(":")
    if name == "identity":
        return np.eye(int(size or 4))
    if name == "decay":
        d = int(size or 8)
        return np.diag(1.0 / np.arange(1.0, d + 1.0))
    if name == "regularizer":
        dims = size or "4x16"
        d, n = (int(v) for v in dims.split("x"))
        key = (d, n)
        if key not in op_cache:
            op = discretize_operator(SpectralSynthetic(p=1.0), cosine_basis(),
                                     midpoint_grid(n), d)
            fam = tikhonov_family(op, alpha_max=0.25, count=1)
            op_cache[key] = fam.candidates[0].matrix
        return op_cache[key]
    raise ConfigError(f"unknown concentration matrix {token!r}")


def cmd_concentration(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    seed = args.seed if args.seed is not None else \
        cfg_value(cp, "concentration", "seed", int, 0)
    reps = cfg_value(cp, "concentration", "replications", int, 10_000)
    u_count = cfg_value(cp, "concentration", "u_count", int, 8)
    weight = cfg_value(cp, "concentration", "weight", float, 1.0)
    sigma = cfg_value(cp, "concentration", "sigma", float, 1.0)
    moment_q = cfg_value(cp, "concentration", "moment_q", int, 1)
    tokens = cfg_value(cp, "concentration", "matrices", str,
                       "identity:4 decay:8 regularizer:4x16").split()
    cache: dict = {}
    with _from_config():
        pcfg = PenaltyConfig(sigma2=sigma ** 2,
                             r=cfg_value(cp, "penalty", "r", float, 2.5),
                             weights=np.array([weight]),
                             kraft_d=cfg_value(cp, "penalty", "kraft_d", float, 1.0))
        specs = [(token, conc.QuadFormSpec(_concentration_matrix(token, cache),
                                           conc.GaussianNoise(sigma), reps, seed))
                 for token in tokens]
    man = cio.RunManifest("concentration", cio.config_echo(cp), seed).start()

    tail_rows, moment_rows, comments = [], [], []
    total_violations = 0
    for token, spec in specs:
        etasq = spec.eta_squared_samples()
        rep = conc.tail_check(spec, etasq, pcfg, conc.default_u_grid(spec.A, u_count))
        total_violations += rep.violations
        comments.append(f"# {token}: " + "; ".join(
            l.lstrip("# ") for l in rep.header_lines()))
        _, rows = rep.to_csv_rows()
        tail_rows.extend([[token] + r for r in rows])
        mom = conc.moment_check(spec, etasq, pcfg, moment_q)
        moment_rows.append([token, mom.q, cio.fmt(mom.empirical_moment),
                            cio.fmt(mom.bound_shape), cio.fmt(mom.ratio),
                            int(mom.defined)])

    cio.write_csv(man.add(os.path.join(out, "tails.csv")),
                  ["matrix", "u", "empirical", "stderr", "bound", "violation"],
                  tail_rows, comments=comments)
    cio.write_csv(man.add(os.path.join(out, "moments.csv")),
                  ["matrix", "q", "empirical", "bound_shape", "ratio", "defined"],
                  moment_rows)

    rng = np.random.default_rng((seed, 0xA11))
    id_rows = []
    for trial in range(cfg_value(cp, "concentration", "identity_trials", int, 20)):
        n = int(rng.integers(8, 33))
        d = int(rng.integers(1, min(n, 8) + 1))
        G = build_design_matrix(cosine_basis(), midpoint_grid(n), d)
        eps = rng.normal(0.0, sigma, n)
        chk = conc.projection_identity_check(eps, G, seed=trial)
        id_rows.append([trial, n, d, cio.fmt(chk.lhs), cio.fmt(chk.rhs),
                        cio.fmt(chk.gap)])
    cio.write_csv(man.add(os.path.join(out, "identity.csv")),
                  ["trial", "n", "d", "lhs", "rhs", "gap"], id_rows)
    man.finish(out)
    print(f"concentration: {total_violations} tail violations over "
          f"{len(tokens)} matrices")
    if total_violations > 0:
        raise ViolationError(f"{total_violations} tail-bound violations")
    return 0


def cmd_diagnostics(args) -> int:
    cp = cio.load_config(args.config)
    out = _ensure_out(args.out)
    if args.data:
        op = _operator_from_data(cp, args.data)
        seed = args.seed if args.seed is not None else 0
    else:
        prob, seed = _problem_from_config(cp, args.seed)
        op = prob.op
    dims = cfg_list(cp, "diagnostics", "dims", int, list(range(1, op.d + 1)))
    man = cio.RunManifest("diagnostics", cio.config_echo(cp), seed).start()
    diag = diagnostics(op, dims)
    path = man.add(os.path.join(out, "diagnostics.txt"))
    with open(path, "w") as fh:
        fh.write(diag.to_report())
    man.finish(out)
    sys.stdout.write(diag.to_report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invreg",
        description="Adaptive selection of regularization operators for "
                    "discretized linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=False):
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
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
    except (ConfigError, InsufficientDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
