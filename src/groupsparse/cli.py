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
import functools
import json
import math
import os
import sys
import warnings
import numpy as np

from .model import GroupedDesign
from .selection import SelectionConfig, estimate_sigma2
from . import experiments as ex

FIT_METHODS = tuple(m for m in ex.ESTIMATORS if m != "oracle")
# methods whose `selected` lists columns; the others list blocks
COLUMN_SELECTED = ("lasso", "adalasso")
# methods that walk no grid the --grid-* flags set
NO_GRID = ("lasso", "adalasso")


class CliError(Exception):
    """Usage or data error; maps to exit code 2."""


# ============================================================
# I/O helpers
# ============================================================

def _scan_csv(fh, path):
    """The rows of a CSV file read line by line, blank lines skipped;
    names the first malformed or ragged line."""
    rows = []
    width = None
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
    return np.asarray(rows)


def read_csv_matrix(path):
    """The matrix in a headerless CSV file of numbers, one row per nonblank
    line, parsed by np.loadtxt.  Where loadtxt refuses the file, _scan_csv
    reads it again, so that a malformed or ragged line is named by its line
    number (and what loadtxt alone refuses, such as a line of spaces, is
    read as before).  An empty file or a nan or inf entry is an error."""
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(str(exc))
    with fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            A = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            fh.seek(0)
            A = _scan_csv(fh, path)
    if not A.size:
        raise CliError("%s: empty CSV" % path)
    if not np.all(np.isfinite(A)):
        raise CliError("%s: non-finite entry (nan or inf)" % path)
    return A


def write_csv_matrix(path, A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in A.tolist())


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


def _plain(v):
    """v in plain JSON types: dicts, lists, tuples and arrays item by
    item, a bool as a bool, an integer (a count) as an int, any other
    number as a float, and a float that is not finite as None, which JSON
    writes as null."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_plain(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    return v


def result_to_json(res, path_or_none):
    """The fit as a JSON document, to a file or standard output.  Numbers
    that are not finite (an objective or KKT residual can overflow) are
    written as null, so the output is always valid JSON."""
    doc = {"theta": res.theta, "lambda": res.lam, "selected": res.selected,
           "gamma": res.gamma,
           "diagnostics": {"converged": res.converged,
                           "iterations": res.iterations,
                           "objective": res.objective, **res.extra}}
    text = json.dumps(_plain(doc), indent=2, sort_keys=True,
                      allow_nan=False)
    if path_or_none:
        with open(path_or_none, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ============================================================
# subcommands
# ============================================================

def _estimate(args, y, design):
    """ESTIMATORS[args.method] on (y, design), the one fit of fit and arx.

    sigma2 is --sigma2, or else the floored least-squares residual
    variance, estimate_sigma2 (n > m).  The ctx holds --gamma and a
    SelectionConfig with --sigma2 and the --grid-* flags given, which
    NO_GRID methods reject.  Data errors of the fit (e.g. a split too
    short to estimate sigma2 or to hold a row) are usage errors.  A
    LinAlgError from the fit, and a non-finite estimate, are numerical
    failures (exit 3)."""
    if args.method not in FIT_METHODS:
        raise CliError("unknown method %r; choose from %s"
                       % (args.method, FIT_METHODS))
    flags = vars(args)  # arx has no --gamma or --grid-* flags
    for flag in ("sigma2", "gamma"):
        if flags.get(flag) is not None and not np.isfinite(flags[flag]):
            raise CliError("--%s must be finite" % flag)
    if args.sigma2 is not None and args.sigma2 <= 0:
        raise CliError("--sigma2 must be positive")
    if args.sigma2 is None and design.n <= design.m:
        raise CliError("n <= m: supply --sigma2 explicitly")
    sigma2 = args.sigma2 if args.sigma2 is not None else \
        estimate_sigma2(y, design.G)
    grid = {k: flags[k] for k in ("grid_lo", "grid_hi", "grid_n")
            if flags.get(k) is not None}
    if grid and flags.get("gamma") is not None:
        raise CliError("--grid-* flags do not apply with a fixed --gamma")
    if grid and args.method in NO_GRID:
        raise CliError("--grid-* flags do not apply to " + args.method)
    try:
        ctx = {"selection": SelectionConfig(sigma2=args.sigma2, **grid),
               "gamma": flags.get("gamma")}
        res = ex.ESTIMATORS[args.method](y, design, sigma2, ctx)
    except np.linalg.LinAlgError:
        raise                         # a ValueError, but a numerical one
    except ValueError as exc:
        raise CliError(str(exc))
    if not np.isfinite(res.theta).all():
        raise np.linalg.LinAlgError("the %s estimate is not finite"
                                    % args.method)
    return res


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
    res = _estimate(args, y, design)
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
    if args.out:   # an unwritable --out fails here, not after the campaign
        for ext in (".json", ".csv"):
            open(args.out + ext, "a").close()
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
    if not 0 < args.split < 1:
        raise CliError("--split must be in (0, 1)")
    for flag in ("q", "horizon"):
        if getattr(args, flag) < 1:
            raise CliError("--%s must be >= 1" % flag)
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
    res = _estimate(args, prob.y, prob.design)
    model = ex.ArxModel(theta=res.theta, q=args.q, means=prob.means,
                        stds=prob.stds)

    try:
        cods = [(k, ex.cod_k(model, test, k))
                for k in range(1, args.horizon + 1)]
    except ValueError as exc:
        raise CliError(str(exc))
    out = args.out or "arx_report"
    write_csv_matrix(out + ".csv", np.asarray(cods))
    design, selected = prob.design, res.selected
    if args.method in COLUMN_SELECTED:  # the blocks of the chosen columns
        selected = np.unique(design.owner[np.asarray(selected, dtype=int)])
    with open(out + ".json", "w") as fh:
        json.dump({"method": args.method, "q": args.q,
                   "cod": {str(k): c for k, c in cods},
                   "selected": [int(i) for i in selected],
                   "block_norms": design.block_norms(res.theta).tolist()},
                  fh, indent=2, sort_keys=True)
    print("\n".join("COD_%d = %.4f" % kc for kc in cods))
    return 0


# ============================================================
# argument plumbing
# ============================================================

@functools.cache
def build_parser():
    """The parser, built once per process (about 1 ms): main only reads it
    and sets values on the Namespace it returns."""
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
    p.add_argument("--grid-lo", type=float)
    p.add_argument("--grid-hi", type=float)
    p.add_argument("--grid-n", type=int)
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
    p.add_argument("--threads", type=int, default=1)
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
    # flags in full only: main's --config precedence matches them so
    for p in (ap, *sub.choices.values()):
        p.allow_abbrev = False
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
            if not isinstance(file_cfg, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print("error: bad config file: %s" % exc, file=sys.stderr)
            return 2
        # flags win over the config file, which wins over defaults; a file
        # value goes through its flag's type and choices as if typed on the
        # command line
        tokens = list(argv if argv is not None else sys.argv[1:])
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        # each command's options; a key of another command is ignored, so
        # one file can serve several commands, and a key of none is an error
        options = {name: {a.dest: a for a in p._actions
                          if not isinstance(a, argparse._HelpAction)}
                   for name, p in sub.choices.items()}
        actions = options[args.command]
        for key, val in file_cfg.items():
            attr = key.replace("-", "_")
            if not any(attr in opts for opts in options.values()):
                print("error: config key %r is an option of no command"
                      % key, file=sys.stderr)
                return 2
            flag = "--" + attr.replace("_", "-")
            supplied = any(t == flag or t.startswith(flag + "=")
                           for t in tokens)
            if attr not in actions or supplied:
                continue
            convert, choices = actions[attr].type, actions[attr].choices
            if convert is not None and val is not None:
                try:
                    val = convert(str(val))
                except ValueError:
                    print("error: config key %r: %r is not a valid %s"
                          % (key, val, convert.__name__), file=sys.stderr)
                    return 2
            if choices is not None and val not in choices:
                print("error: config key %r: %r is not one of %s"
                      % (key, val, list(choices)), file=sys.stderr)
                return 2
            setattr(args, attr, val)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:  # OSError: an unwritable --out
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
