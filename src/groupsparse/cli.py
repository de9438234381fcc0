"""Command-line surface.

Subcommands: fit (estimate coefficients from CSV data), simulate (write a
synthetic problem to disk), benchmark (Monte Carlo campaign), arx (lagged
time-series regression with k-step validation).  CSV files are headerless
and comma-separated; structured outputs are JSON.  Exit codes: 0 success,
2 usage or data error, 3 numerical failure.

Option precedence: command-line flags, then a JSON config file given with
--config, then built-in defaults.
"""

import argparse
import json
import os
import sys
import numpy as np

from .model import GroupedDesign
from .convex import ConvexFitConfig, kkt_residual_mkl, solve_glasso, \
    solve_lasso, solve_mkl_lambda
from .hglasso import kkt_residual_hgl
from .selection import SelectionConfig, estimate_sigma2_ls, fit_hglasso
from . import experiments as ex

FIT_METHODS = ("hgla", "hglb", "hglc", "mkl", "glasso", "lasso", "adalasso")


class CliError(Exception):
    """Usage or data error; maps to exit code 2."""


# ============================================================
# I/O helpers
# ============================================================

def read_csv_matrix(path):
    rows = []
    width = None
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(str(exc))
    with fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                raise CliError("%s: malformed CSV at line %d" % (path, ln))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CliError("%s: ragged CSV at line %d" % (path, ln))
            rows.append(row)
    if not rows:
        raise CliError("%s: empty CSV" % path)
    return np.asarray(rows)


def write_csv_matrix(path, A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w") as fh:
        for row in A:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def parse_groups(text, m):
    """Either a comma list of block sizes or a single uniform size."""
    try:
        sizes = [int(x) for x in str(text).split(",")]
    except ValueError:
        raise CliError("bad --groups %r" % text)
    if len(sizes) == 1 and sizes[0] != m:
        k = sizes[0]
        if k < 1 or m % k:
            raise CliError("uniform group size %d does not divide %d columns"
                           % (k, m))
        sizes = [k] * (m // k)
    if sum(sizes) != m:
        raise CliError("group sizes sum to %d, design has %d columns"
                       % (sum(sizes), m))
    return sizes


def result_to_json(res, path_or_none):
    doc = {
        "theta": [float(x) for x in res.theta],
        "lambda": None if res.lam is None else [float(x) for x in res.lam],
        "selected": [int(i) for i in res.selected],
        "gamma": None if res.gamma is None else float(res.gamma),
        "diagnostics": {
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "objective": None if np.isnan(res.objective)
            else float(res.objective),
            **{k: (float(v) if isinstance(v, (int, float, np.floating))
                   else v) for k, v in res.extra.items()},
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path_or_none:
        with open(path_or_none, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ============================================================
# subcommands
# ============================================================

def _data_errors(fit, *args):
    """fit(*args) with its data errors (e.g. a validation split too short
    to estimate sigma2 when none is given, or to hold a row) reported as
    usage errors."""
    try:
        return fit(*args)
    except ValueError as exc:
        raise CliError(str(exc))


def _hgla_ctx(y, design, args):
    """Estimator context holding the hgla stage that est_mkl (and through
    it est_glasso) centres its gamma grid on, fitted with --sigma2."""
    return {"hgla": _data_errors(fit_hglasso, y, design, SelectionConfig(
        variant="hgla", sigma2=args.sigma2))}


def cmd_fit(args):
    G = read_csv_matrix(args.data_g)
    y = read_csv_matrix(args.data_y)
    if 1 not in y.shape and y.ndim > 1:
        raise CliError("%s: y must be a single column" % args.data_y)
    y = y.reshape(-1)
    if y.size != G.shape[0]:
        raise CliError("y has %d rows, G has %d" % (y.size, G.shape[0]))
    if args.groups is None:
        raise CliError("--groups is required for fit")
    try:
        design = GroupedDesign(G, parse_groups(args.groups, G.shape[1]))
    except ValueError as exc:
        raise CliError(str(exc))
    if args.method not in FIT_METHODS:
        raise CliError("unknown method %r; choose from %s"
                       % (args.method, FIT_METHODS))

    if args.sigma2 is not None:
        sigma2 = args.sigma2
        if sigma2 <= 0:
            raise CliError("--sigma2 must be positive")
    elif design.n > design.m:
        sigma2 = estimate_sigma2_ls(y, design.G)
        sigma2 = max(sigma2, 1e-12)
    else:
        raise CliError("n <= m: supply --sigma2 explicitly")

    gamma = args.gamma
    if args.method in ("hgla", "hglb", "hglc"):
        if gamma is not None and gamma <= 0:
            raise CliError("--gamma must be positive")
        # a given gamma is a one-point grid: one cut of the greedy path
        cfg = SelectionConfig(variant=args.method, sigma2=args.sigma2,
                              grid_lo=args.grid_lo, grid_hi=args.grid_hi,
                              grid_n=args.grid_n,
                              gamma_grid=None if gamma is None else [gamma])
        res, trace = _data_errors(fit_hglasso, y, design, cfg)
        res.extra["kkt_residual"] = None
        if args.method == "hglb":
            res.extra["kkt_residual"] = kkt_residual_hgl(
                res.lam, y, design, res.extra["sigma2"], res.gamma)
        elif args.method == "hglc":
            # hglc pins the blocks outside its set at zero: certify the set
            chosen = trace.chosen_set
            res.extra["kkt_residual"] = kkt_residual_hgl(
                res.lam[chosen], y, design.subdesign(chosen),
                res.extra["sigma2"], 0.0) if chosen else 0.0
    elif args.method == "mkl":
        if gamma is not None and gamma <= 0:
            raise CliError("mkl requires positive gamma")
        if gamma is None:
            res = ex.est_mkl(y, design, sigma2, _hgla_ctx(y, design, args))
        else:
            res = solve_mkl_lambda(y, design, sigma2, gamma)
        res.extra["kkt_residual"] = kkt_residual_mkl(res.lam, y, design,
                                                     sigma2, res.gamma)
    elif args.method in ("glasso", "lasso"):
        if gamma is not None and gamma < 0:
            raise CliError("--gamma must be nonnegative")
        if gamma is None and args.method == "glasso":
            res = ex.est_glasso(y, design, sigma2, _hgla_ctx(y, design, args))
        elif gamma is None:
            res = _data_errors(ex.est_lasso, y, design, sigma2, {})
        elif args.method == "glasso":
            res = solve_glasso(y, design, sigma2,
                               ConvexFitConfig(reg_param=gamma))
        else:
            res = solve_lasso(y, design.G, ConvexFitConfig(reg_param=gamma),
                              sigma2=sigma2)
    else:  # adalasso
        res = _data_errors(ex.est_adalasso, y, design, sigma2, {})

    result_to_json(res, args.out)
    return 3 if not res.converged else 0


def cmd_simulate(args):
    cfg = ex.McConfig(experiment=args.experiment, runs=1,
                      master_seed=args.seed, estimators=[])
    design, theta, y, sigma2 = ex.gen_problem(cfg, 0)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    write_csv_matrix(os.path.join(out, "G.csv"), design.G)
    write_csv_matrix(os.path.join(out, "y.csv"), y.reshape(-1, 1))
    write_csv_matrix(os.path.join(out, "theta.csv"), theta.theta.reshape(-1, 1))
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump({"experiment": args.experiment, "seed": args.seed,
                   "groups": design.group_sizes, "sigma2_true": sigma2},
                  fh, indent=2, sort_keys=True)
    print("wrote y.csv, G.csv, theta.csv, meta.json to %s" % out)
    return 0


def cmd_benchmark(args):
    estimators = [s for s in args.estimators.split(",") if s]
    try:
        cfg = ex.McConfig(experiment=args.experiment, runs=args.runs,
                          master_seed=args.seed, estimators=estimators,
                          threads=args.threads)
    except ValueError as exc:
        raise CliError(str(exc))
    report = ex.run_monte_carlo(cfg)
    if args.out:
        report.to_json(args.out + ".json")
        report.to_csv(args.out + ".csv")
    print("%-10s %12s %12s %10s" % ("method", "mean err %", "median %",
                                    "sparsity"))
    for name in estimators:
        agg = report.aggregates[name]
        print("%-10s %12s %12s %10s" % (
            name,
            "-" if agg["mean_pct_error"] is None
            else "%.1f" % agg["mean_pct_error"],
            "-" if agg["median_pct_error"] is None
            else "%.1f" % agg["median_pct_error"],
            "-" if agg["sparsity_index"] is None
            else "%.1f" % agg["sparsity_index"]))
    return 0


def cmd_arx(args):
    series = read_csv_matrix(args.data)
    if series.shape[0] < args.q + 2:
        raise CliError("series length %d shorter than q+2=%d"
                       % (series.shape[0], args.q + 2))
    n_tr = int(np.ceil(args.split * series.shape[0]))
    train, test = series[:n_tr], series[n_tr:]
    try:
        prob = ex.build_arx(train, args.q)
    except ValueError as exc:
        raise CliError(str(exc))
    design, y = prob.design, prob.y
    if args.sigma2 is not None:
        sigma2 = args.sigma2
        if sigma2 <= 0:
            raise CliError("--sigma2 must be positive")
    elif design.n > design.m:
        sigma2 = max(estimate_sigma2_ls(y, design.G), 1e-12)
    else:
        raise CliError("training rows <= regressors: supply --sigma2")

    if args.method in ("hgla", "hglb", "hglc"):
        res, _ = _data_errors(fit_hglasso, y, design, SelectionConfig(
            variant=args.method, sigma2=args.sigma2))
    elif args.method == "mkl":
        res = ex.est_mkl(y, design, sigma2, _hgla_ctx(y, design, args))
    else:
        raise CliError("arx supports methods hgla/hglb/hglc/mkl")
    model = ex.ArxModel(theta=res.theta, q=args.q, n_inputs=prob.n_inputs,
                        means=prob.means, stds=prob.stds)

    try:
        cods = [(k, ex.cod_k(model, test, k))
                for k in range(1, args.horizon + 1)]
    except ValueError as exc:
        raise CliError(str(exc))
    out = args.out or "arx_report"
    write_csv_matrix(out + ".csv", np.asarray(cods))
    norms = [float(np.linalg.norm(res.theta[design.slices[i]]))
             for i in range(design.p)]
    with open(out + ".json", "w") as fh:
        json.dump({"method": args.method, "q": args.q,
                   "cod": {str(k): c for k, c in cods},
                   "selected": [int(i) for i in res.selected],
                   "block_norms": norms}, fh, indent=2, sort_keys=True)
    print("\n".join("COD_%d = %.4f" % kc for kc in cods))
    return 0


# ============================================================
# argument plumbing
# ============================================================

def build_parser():
    ap = argparse.ArgumentParser(
        prog="groupsparse",
        description="Group-sparse linear regression toolkit")
    ap.add_argument("--config", help="JSON file with default option values")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (or prefix)")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="estimate coefficients from CSV data")
    common(p)
    p.add_argument("--method", default="hgla")
    p.add_argument("--data-y", required=True)
    p.add_argument("--data-g", required=True)
    p.add_argument("--groups", help="comma list of block sizes, or one "
                                    "uniform size")
    p.add_argument("--sigma2", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--grid-lo", type=float, default=1e-2)
    p.add_argument("--grid-hi", type=float, default=1e4)
    p.add_argument("--grid-n", type=int, default=30)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="write a synthetic problem to disk")
    seeded(p)
    p.add_argument("--experiment", default="exp1",
                   choices=list(ex.EXPERIMENTS))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="Monte Carlo estimator comparison")
    seeded(p)
    p.add_argument("--experiment", default="exp1",
                   choices=list(ex.EXPERIMENTS))
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--estimators", default="hgla,mkl",
                   help="comma list from the estimator registry")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("SPARSEGRP_THREADS", "1")))
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("arx", help="lagged time-series regression")
    common(p)
    p.add_argument("--data", required=True,
                   help="CSV time series, output in column 0")
    p.add_argument("--method", default="hglc")
    p.add_argument("--q", type=int, default=20, help="lag order")
    p.add_argument("--split", type=float, default=0.5,
                   help="train prefix fraction")
    p.add_argument("--horizon", type=int, default=10,
                   help="largest prediction horizon k")
    p.add_argument("--sigma2", type=float)
    p.set_defaults(func=cmd_arx)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print("error: bad config file: %s" % exc, file=sys.stderr)
            return 2
        # flags win over the config file, which wins over defaults
        tokens = list(argv if argv is not None else sys.argv[1:])
        for key, val in file_cfg.items():
            attr = key.replace("-", "_")
            flag = "--" + attr.replace("_", "-")
            supplied = any(t == flag or t.startswith(flag + "=")
                           for t in tokens)
            if hasattr(args, attr) and not supplied:
                setattr(args, attr, val)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
