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
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np

from . import concentration as conc
from . import configio as cio
from .configio import ConfigError, DataError, cfg_keys, cfg_list, cfg_value
from .errors import InvregError, RankError
from .experiments import (
    ExperimentConfig,
    RiskRow,
    fit_rate,
    monte_carlo_risk,
    synth_problem,
)
from .operator import (
    RANK_RTOL,
    DesignGrid,
    SampledProjection,
    SpectralSynthetic,
    _sampled_blocks,
    cosine_design,
    midpoint_grid,
)
from .regularizers import projection_family, tikhonov_family
from .selection import (
    CandidateRow,
    PenaltyConfig,
    default_weights,
    select_coefficients,
    threshold_objectives,
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
    kw = cfg_keys(cp, "problem", sigma=float, omega=str, d_ext=int)
    seed = _seed(cp, "problem", seed_override)
    prob = synth_problem(p, nu, rho, n, seed, **kw)
    # the rank cliff that SampledProjection applies to the files of synth
    if prob.lam[-1] <= RANK_RTOL * prob.lam[0]:
        raise ConfigError(f"[problem] p = {prob.p!r} is so large that the projected "
                          "operator has a numerically zero singular value")
    return prob, seed


def cmd_synth(args) -> int:
    cp = cio.load_config(args.config)
    prob, seed = _problem_from_config(cp, args.seed)
    man = cio.RunManifest("synth", cio.config_echo(cp), seed, args.out).start()
    t, n = prob.grid.points, prob.grid.n

    man.csv("grid.csv", ["t"], t[:, None])
    man.csv("operator.csv", [f"phi{j + 1}" for j in range(prob.d)],
            prob.operator_blocks())
    man.csv("truth.csv", ["j", "x0"], enumerate(prob.x0.tolist(), start=1))
    rng = np.random.default_rng((seed, n, 0))
    y = prob.clean + rng.normal(0.0, prob.sigma, n)
    man.csv("data.csv", ["t", "clean", "y"], np.column_stack([t, prob.clean, y]))
    man.finish()
    print(f"synth: wrote {len(man.outputs)} files to {args.out}")
    return 0


def _operator_from_data(cp, data_dir: str, with_y: bool = False) -> SampledProjection:
    """The operator sampled in ``data_dir``, projected in one pass over its
    row blocks (``SampledProjection``): grid.csv, then with ``with_y`` the
    ``y`` column of data.csv on the same grid, then operator.csv, read one
    row block at a time (``_operator_rows``).  Any fault found in the files,
    or a singular value whose square is not a normal double, is a data error
    (exit 3)."""
    p = cfg_value(cp, "problem", "p", float, 1.0)
    if not p > 0:
        raise ConfigError(f"[problem] p must be positive, got {p}")
    try:
        grid_cols = cio.read_csv_columns(os.path.join(data_dir, "grid.csv"), ["t"])
        grid = DesignGrid(grid_cols["t"])
        y = data_fault = None
        if with_y:
            # read before the pass that folds y, but a fault of data.csv is
            # reported after any fault of operator.csv
            try:
                y = _y_on_grid(data_dir, grid)
            except DataError as exc:
                data_fault = exc
        with cio.open_table(os.path.join(data_dir, "operator.csv")) as (header, take):
            op = SampledProjection(grid, len(header),
                                   _operator_rows(take, grid.n, len(header)), p, y)
    except InvregError as exc:
        raise DataError(str(exc)) from exc
    lam_min = float(op.singular_values[-1])
    if lam_min < np.sqrt(np.finfo(float).tiny):
        raise DataError(f"operator.csv: smallest singular value {lam_min!r} is below "
                        "1.5e-154, so its square is not a normal double")
    if data_fault is not None:
        raise data_fault
    return op


def _operator_rows(take, n: int, d: int):
    """The row blocks of ``_sampled_blocks(n, d)`` read from operator.csv by
    ``take``, up to the first short block; at the end, a body of other than
    n rows is a DataError, its rows past the grid's counted for the
    message."""
    count = 0
    for rows in _sampled_blocks(n, d):
        S_b = take(rows.stop - rows.start)
        count += len(S_b)
        if count < rows.stop:
            break
        yield S_b
    else:
        while len(extra := take(rows.stop - rows.start)):
            count += len(extra)
    if count != n:
        raise DataError(f"operator.csv has {count} rows, grid has {n}")


def _y_on_grid(data_dir: str, grid: DesignGrid) -> np.ndarray:
    """The ``y`` column of data.csv, whose ``t`` must repeat the grid."""
    data = cio.read_csv_columns(os.path.join(data_dir, "data.csv"), ["t", "y"])
    y = data["y"]
    if not np.array_equal(data["t"], grid.points):
        raise DataError(f"data.csv: column t ({y.size} values) does not repeat "
                        f"grid.csv ({grid.n} points)")
    return y


def _family_from_config(cp, op):
    kind = cfg_value(cp, "family", "kind", str, "tikhonov")
    if kind == "tikhonov":
        return tikhonov_family(op.singular_values, op.n, op.p, **cfg_keys(
            cp, "family", alpha_max=float, ratio=float, count=int))
    if kind == "projection":
        return projection_family(op.singular_values, op.n,
                                 **cfg_keys(cp, "family", dims=[int]))
    raise ConfigError(f"unknown family kind {kind!r}")


def cmd_select(args) -> int:
    cp = cio.load_config(args.config)
    op = _operator_from_data(cp, args.data, with_y=True)
    lam_max = float(op.singular_values[0])
    if (1.0 / lam_max) ** 2 / op.n < np.finfo(float).tiny:
        raise DataError(f"operator.csv: largest singular value {lam_max!r} is so large "
                        "that 1/(n lambda_1^2), the smallest projection statistic, "
                        "is not a normal double")
    c = op.coefficients
    back = c / op.singular_values
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
    base = PenaltyConfig(sigma2, **cfg_keys(cp, "penalty", r=float, kraft_d=float))
    weights_key = cfg_value(cp, "penalty", "weights", str, "auto")
    if weights_key == "auto":
        w = default_weights(family, base, **cfg_keys(
            cp, "penalty", target=("kraft_target", float)))
    elif weights_key == "zero":
        w = np.zeros(len(family))
    else:
        w = np.array(cfg_list(cp, "penalty", "weights", float, required=True))
    pcfg = replace(base, weights=w)

    seed = args.seed if args.seed is not None else 0
    man = cio.RunManifest("select", cio.config_echo(cp), seed, args.out).start()
    result = select_coefficients(family, pcfg, c, op.x_vectors)

    _write_rows(man, "selection.csv", CandidateRow, result.per_candidate)
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
        f"weight_common = {float(w[0])!r}",
    ]
    if family.nested:   # the thresholding form covers the prefix ladder only
        # the same coefficients and penalties, in thresholding form
        K = len(family)
        pens = np.array([row.penalty for row in result.per_candidate])
        _, thr = threshold_objectives(family.lam[:K], c[None, :K], pens)
        summary.append(f"threshold_agreement = {int(np.argmin(thr[0]) == result.chosen)}")
    man.text("summary.txt", "\n".join(summary) + "\n")
    man.finish()
    print("\n".join(summary))
    return 0


def _experiment_config(cp, seed_override) -> ExperimentConfig:
    return ExperimentConfig(
        **cfg_keys(cp, "problem", p=float, nu=float, rho=float, sigma=float,
                   ext_factor=int, omega=str),
        **cfg_keys(cp, "experiment", n_grid=[int], replications=int),
        **cfg_keys(cp, "family", family=("kind", str), alpha_max=float,
                   alpha_ratio=("ratio", float)),
        **cfg_keys(cp, "penalty", r=float, kraft_target=float, kraft_d=float),
        seed=_seed(cp, "experiment", seed_override),
    )


def _write_rows(man, name: str, cls, rows) -> None:
    """One CSV row per dataclass instance of ``cls``: its fields in order, read
    as a shallow tuple (``dataclasses.astuple`` would deep-copy every value)."""
    names = [f.name for f in fields(cls)]
    man.csv(name, names, map(attrgetter(*names), rows))


def cmd_risk(args) -> int:
    cp = cio.load_config(args.config)
    cfg = _experiment_config(cp, args.seed)
    man = cio.RunManifest("risk", cio.config_echo(cp), cfg.seed, args.out).start()
    report = monte_carlo_risk(cfg)
    _write_rows(man, "risk.csv", RiskRow, report.rows)
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
    _write_rows(man, "risk.csv", RiskRow, report.rows)
    fits = [fit_rate(report, m) for m in cfg.methods()]
    man.csv("rates.csv", ["method", "slope", "half_width", "theoretical", "n_count"],
            [[f.method, f.slope, f.half_width, f.theoretical, len(f.n_values)]
             for f in fits])
    man.finish()
    for f in fits:
        print(f"rates: {f.method} slope {f.slope:+.4f} +- {f.half_width:.4f} "
              f"(theoretical {f.theoretical:+.4f})")
    return 0


def _concentration_matrix(token: str) -> np.ndarray:
    name, _, size = token.partition(":")
    # default size: d, or d x n for a regularizer
    default = {"identity": "4", "decay": "8", "regularizer": "4x16"}.get(name)
    if default is None:
        raise ConfigError(f"unknown concentration matrix {token!r}")
    try:
        dims = tuple(int(v) for v in (size or default).split("x"))
    except ValueError:
        dims = ()
    if (len(dims) != default.count("x") + 1 or min(dims) < 1
            or name == "regularizer" and not 2 <= dims[0] <= dims[1]):
        raise ConfigError(f"bad [concentration] matrices token {token!r}: need positive "
                          f"integers shaped like {default}, and 2 <= d <= n for dxn")
    if name == "identity":
        return np.eye(dims[0])
    if name == "decay":
        return np.diag(1.0 / np.arange(1.0, dims[0] + 1.0))
    # the d x n matrix op.regularizer(f) of the midpoint grid is f Psi / n, as
    # V = I there, and Psi Psi^t = n I, so its singular values are f / sqrt(n):
    # diag(f / sqrt(n)) has the same trace, radius and law of eta^2
    d, n = dims
    f = tikhonov_family(SpectralSynthetic(1.0).values(d), n, 1.0, alpha_max=0.25,
                        count=1).filter_matrix[0]
    return np.diag(f / np.sqrt(n))


def cmd_concentration(args) -> int:
    cp = cio.load_config(args.config)
    seed = _seed(cp, "concentration", args.seed)
    spec_kw = cfg_keys(cp, "concentration", replications=int)
    grid_kw = cfg_keys(cp, "concentration", count=("u_count", int))
    weight = cfg_value(cp, "concentration", "weight", float, 1.0)
    noise = conc.GaussianNoise(**cfg_keys(cp, "concentration", sigma=float))
    moment_q = cfg_value(cp, "concentration", "moment_q", int, 1)
    tokens = cfg_value(cp, "concentration", "matrices", str,
                       "identity:4 decay:8 regularizer:4x16").split()
    trials = cfg_value(cp, "concentration", "identity_trials", int, 20)
    if not tokens or trials < 1:
        raise ConfigError("[concentration] needs at least one matrix and "
                          "identity_trials >= 1")
    if moment_q < 1:
        raise ConfigError(f"[concentration] moment_q = {moment_q} must be at least 1")
    pcfg = PenaltyConfig(noise.sigma ** 2, weights=np.array([weight]),
                         **cfg_keys(cp, "penalty", r=float, kraft_d=float))
    specs = [(token, conc.QuadFormSpec(_concentration_matrix(token), noise,
                                       seed=seed, **spec_kw))
             for token in tokens]
    # each matrix's u grid, tail levels and moment bound shape are checked
    # before the first draw and the output directory
    u_grids = []
    for _, spec in specs:
        u_grids.append(conc.default_u_grid(spec, **grid_kw))
        conc.tail_levels(spec, pcfg.r, weight, u_grids[-1])
        conc.moment_bound_shape(spec, pcfg, moment_q, weight)
    man = cio.RunManifest("concentration", cio.config_echo(cp), seed,
                          args.out).start()

    tail_rows, moment_rows, comments = [], [], []
    total_violations = 0
    for (token, spec), u_grid in zip(specs, u_grids):
        etasq = spec.eta_squared_samples()
        rep = conc.tail_check(spec, etasq, pcfg, u_grid, weight)
        total_violations += rep.violations
        comments.append(f"# {token}: " + "; ".join(
            l.lstrip("# ") for l in rep.header_lines()))
        tail_rows.extend([token, *r] for r in zip(
            rep.thresholds.tolist(), rep.empirical_tail.tolist(), rep.stderr.tolist(),
            rep.theoretical_bound.tolist(), rep.violation_flags().tolist()))
        mom = conc.moment_check(spec, etasq, pcfg, moment_q, weight)
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
        G = cosine_design(midpoint_grid(n), d)
        eps = rng.normal(0.0, noise.sigma, n)
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
    if args.data is not None:
        op = _operator_from_data(cp, args.data)
        seed = args.seed if args.seed is not None else 0
    else:
        # the samples synth writes to operator.csv, folded as they are formed
        prob, seed = _problem_from_config(cp, args.seed)
        op = SampledProjection(prob.grid, prob.d, prob.operator_blocks(), prob.p)
    dims = cfg_list(cp, "diagnostics", "dims", int, list(range(1, op.d + 1)))
    man = cio.RunManifest("diagnostics", cio.config_echo(cp), seed, args.out).start()
    diag = op.diagnostics(dims)
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

    def common(sp, data=None):
        """``data`` None: no --data; False: optional; True: required."""
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=nonnegative_int, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
        if data is not None:
            sp.add_argument("--data", required=data,
                            help="directory with grid/operator/data CSVs")

    common(sub.add_parser("synth", help="generate a synthetic problem"))
    common(sub.add_parser("select", help="run the penalized selection on data"),
           data=True)
    common(sub.add_parser("risk", help="Monte Carlo risk study"))
    common(sub.add_parser("rates", help="risk study plus rate fits"))
    common(sub.add_parser("concentration", help="tail and moment checks"))
    common(sub.add_parser("diagnostics", help="ill-posedness diagnostics"),
           data=False)
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
