"""Synthetic problem generators, metrics, ARX utilities and the Monte Carlo
benchmark harness.

Experiments:
  exp1           i.i.d. standard normal design, 10 blocks of 4
  exp2           columns follow G[:,j] = G[:,j-1] + 0.2 v (correlated design)
  exp2_noisy_a/b/c  exp2 with noise variance = signal variance / 5, 2, 1
  ada            8 scalar coefficients (3, 1.5, 0, 0, 2, 0, 0, 0), rows with
                 covariance beta^|i-j|, beta ~ U(0.5, 1)

Block activation for exp1/exp2: blocks 1-5 always zero, block 6 always
active, blocks 7-10 active with probability one half; active blocks get
components uniform on [-a, a] with a ~ U(0, 100).  The default noise
variance is the sample variance of the noiseless output divided by 25.
Estimators always receive a noise variance estimated from least-squares
residuals, never the generator's true value.
"""

import csv
import json
import numpy as np
from dataclasses import dataclass, field, asdict, replace

from .model import BlockVector, EstimateResult, GroupedDesign
from .convex import ConvexFitConfig, glasso_path, kkt_residual_mkl, \
    lasso_path, solve_adalasso, solve_glasso, solve_lasso, solve_mkl_lambda
from .selection import SelectionConfig, _split, estimate_sigma2_ls, \
    fit_hglasso, polish_hglasso

EXPERIMENTS = ("exp1", "exp2", "exp2_noisy_a", "exp2_noisy_b", "exp2_noisy_c",
               "ada")
_NOISE_DIVISOR = {"exp1": 25.0, "exp2": 25.0, "exp2_noisy_a": 5.0,
                  "exp2_noisy_b": 2.0, "exp2_noisy_c": 1.0}
ADA_THETA = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])

ZERO_TOL = 1e-10


@dataclass
class McConfig:
    experiment: str = "exp1"
    runs: int = 50
    master_seed: int = 0
    estimators: list = field(default_factory=lambda: ["hgla", "mkl"])
    p: int = 10
    k: int = 4
    n: int = 100
    sigma2: float = 1.0     # ada only; block experiments derive it per run
    threads: int = 1

    def __post_init__(self):
        if self.runs < 1 or self.threads < 1:
            raise ValueError("runs and threads must be >= 1")
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment %r; choose from %s"
                             % (self.experiment, EXPERIMENTS))
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError("unknown estimator %r; registry: %s"
                                 % (name, sorted(ESTIMATORS)))


def run_seed(master_seed, run_index):
    """Deterministic per-run seed material."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(run_index),))
    return ss, int(ss.generate_state(1)[0])


def gen_problem(config, run_index):
    """Draw one problem instance: (design, theta_true, y, sigma2_true)."""
    ss, _ = run_seed(config.master_seed, run_index)
    rng = np.random.default_rng(ss)
    if config.experiment == "ada":
        n = config.n
        m = ADA_THETA.size
        beta = rng.uniform(0.5, 1.0)
        cov = beta ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        G = rng.multivariate_normal(np.zeros(m), cov, size=n,
                                    method="cholesky")
        design = GroupedDesign(G, [1] * m)
        theta = BlockVector(ADA_THETA.copy(), [1] * m)
        sigma2 = config.sigma2
        y = G @ theta.theta + np.sqrt(sigma2) * rng.standard_normal(n)
        return design, theta, y, sigma2

    p, k, n = config.p, config.k, config.n
    m = p * k
    if config.experiment == "exp1":
        G = rng.standard_normal((n, m))
    else:
        G = np.empty((n, m))
        G[:, 0] = rng.standard_normal(n)
        for j in range(1, m):
            G[:, j] = G[:, j - 1] + 0.2 * rng.standard_normal(n)
    design = GroupedDesign(G, [k] * p)

    # blocks 1..5 silent, block 6 active, the rest a coin flip each
    active = np.zeros(p, dtype=bool)
    active[5] = True
    active[6:] = rng.random(p - 6) < 0.5
    theta = np.zeros(m)
    for i in np.nonzero(active)[0]:
        a = rng.uniform(0.0, 100.0)
        theta[design.slices[i]] = rng.uniform(-a, a, size=k)
    noiseless = G @ theta
    sigma2 = float(np.var(noiseless)) / _NOISE_DIVISOR[config.experiment]
    sigma2 = max(sigma2, 1e-12)
    y = noiseless + np.sqrt(sigma2) * rng.standard_normal(n)
    return design, BlockVector(theta, [k] * p), y, sigma2


# ============================================================
# metrics
# ============================================================

def percentage_error(theta_hat, theta_true):
    """100 ||theta_true - theta_hat|| / ||theta_true||."""
    t = np.asarray(getattr(theta_true, "theta", theta_true), dtype=float)
    h = np.asarray(getattr(theta_hat, "theta", theta_hat), dtype=float)
    norm = np.linalg.norm(t)
    if norm == 0:
        raise ValueError("percentage error undefined for a zero true theta")
    return float(100.0 * np.linalg.norm(t - h) / norm)


def zero_pattern(result, design):
    """Per-block estimated-zero flags.

    Uses lambda when the estimator produced one, otherwise block norms of
    theta; "zero" means below 1e-10 times max(largest value, 1).
    """
    if result.lam is not None:
        v = np.asarray(result.lam, dtype=float)
    else:
        v = design.block_norms(np.asarray(result.theta, dtype=float))
    thr = ZERO_TOL * max(float(np.max(v, initial=0.0)), 1.0)
    return [bool(x <= thr) for x in v]


def sparsity_index(per_run_outcomes):
    """Percent of truly-zero blocks correctly estimated zero, pooled.

    per_run_outcomes: iterable of (estimated_zero_flags, true_zero_flags).
    """
    hit = tot = 0
    for est, true in per_run_outcomes:
        for e, t in zip(est, true):
            if t:
                tot += 1
                hit += bool(e)
    if tot == 0:
        raise ValueError("no truly-zero blocks to score")
    return 100.0 * hit / tot


# ============================================================
# ARX
# ============================================================

@dataclass
class ArxProblem:
    design: GroupedDesign
    y: np.ndarray
    q: int
    n_inputs: int
    means: np.ndarray   # per-channel normalization offsets (output first)
    stds: np.ndarray


@dataclass
class ArxModel:
    theta: np.ndarray
    q: int
    n_inputs: int
    means: np.ndarray
    stds: np.ndarray


def build_arx(series, q):
    """Lagged regression for y_t on its own past and each input's past.

    series: (T, 1 + n_inputs) array, output in column 0.  Channels are
    normalized to zero mean and unit variance; rows are t = q .. T-1 with
    regressor groups [output lags 1..q, input-1 lags 1..q, ...].
    """
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[0] <= q + 1:
        raise ValueError("series length %d too short for lag order %d"
                         % (series.shape[0], q))
    T, chans = series.shape
    means = series.mean(axis=0)
    stds = series.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    z = (series - means) / stds
    rows = T - q
    cols = []
    for c in range(chans):
        for lag in range(1, q + 1):
            cols.append(z[q - lag:T - lag, c])
    G = np.column_stack(cols)
    y = z[q:, 0]
    return ArxProblem(design=GroupedDesign(G, [q] * chans), y=y, q=q,
                      n_inputs=chans - 1, means=means, stds=stds)


def cod_k(model, test_series, k):
    """Coefficient of determination of k-step-ahead predictions.

    The k-step prediction iterates the one-step ARX predictor, feeding
    predicted outputs into the output-lag slots and measured inputs into the
    input-lag slots.  COD = 1 - sum (y - yhat)^2 / sum (y - mean y)^2 on the
    usable test rows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    series = np.atleast_2d(np.asarray(test_series, dtype=float))
    q = model.q
    if series.shape[0] <= q + k:
        raise ValueError("test series too short")
    z = (series - model.means) / model.stds
    T = series.shape[0]
    chans = series.shape[1]
    th = model.theta.reshape(chans, q)

    preds, truth = [], []
    for t in range(q + k - 1, T):
        ybuf = z[:, 0].copy()  # predictions overwrite entries > t-k
        for tt in range(t - k + 1, t + 1):
            acc = 0.0
            for c in range(chans):
                src = ybuf if c == 0 else z[:, c]
                acc += th[c] @ src[tt - q:tt][::-1]  # lags 1..q
            ybuf[tt] = acc
        preds.append(ybuf[t])
        truth.append(z[t, 0])
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    denom = np.sum((truth - truth.mean()) ** 2)
    if denom == 0:
        raise ValueError("test output is constant")
    return float(1.0 - np.sum((truth - preds) ** 2) / denom)


def gen_arx_series(T, seed, n_inputs=3):
    """Documented synthetic sparse ARX system used in place of real data.

    Three white-noise inputs; only the first input drives the output:
    y_t = 0.6 y_{t-1} - 0.2 y_{t-2} + 0.8 u1_{t-1} + 0.4 u1_{t-2} + e_t,
    e ~ N(0, 0.1).  Returns a (T, 1 + n_inputs) array, output first.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((T, n_inputs))
    y = np.zeros(T)
    e = np.sqrt(0.1) * rng.standard_normal(T)
    for t in range(2, T):
        y[t] = (0.6 * y[t - 1] - 0.2 * y[t - 2]
                + 0.8 * u[t - 1, 0] + 0.4 * u[t - 2, 0] + e[t])
    return np.column_stack([y, u])


ARX_TRUE_ACTIVE_CHANNELS = 2  # output lags + input 1


# ============================================================
# estimator registry
# ============================================================
# ESTIMATORS[name](y, design, sigma2, ctx).  ctx is shared by the fits of
# one problem: it caches the hgla stage ("hgla") and mkl ("mkl"), and may
# hold a SelectionConfig ("selection"), the names of the fit --grid-* flags
# that set its grid ("grid_flags"), a fixed penalty ("gamma") and, for the
# oracle, the true coefficients ("theta_true").

def _no_grid(ctx, name):
    """Rejects any fit --grid-* flag given (ctx["grid_flags"]), whatever
    its value, for an estimator that walks no such grid."""
    if ctx.get("grid_flags"):
        raise ValueError("--grid-* flags do not apply to " + name)


def _hgla_stage(y, design, sigma2, ctx):
    """The hgla fit and its trace, cached in ctx["hgla"]: the stage the hgl
    variants polish and mkl centres its grid on, run with ctx["selection"]
    (default SelectionConfig()).  A fixed gamma is a one-point grid."""
    if "hgla" not in ctx:
        cfg = replace(ctx.get("selection", SelectionConfig()), variant="hgla")
        gamma = ctx.get("gamma")
        if gamma is not None:
            if gamma <= 0:
                raise ValueError("--gamma must be positive")
            cfg = replace(cfg, gamma_grid=[gamma])
        ctx["hgla"] = fit_hglasso(y, design, cfg)
    return ctx["hgla"]


def _est_hgl(variant):
    """hgla reads the cached stage; hglb/hglc polish its selection, the
    same result fit_hglasso(variant=...) gives."""
    def fit(y, design, sigma2, ctx):
        res, trace = _hgla_stage(y, design, sigma2, ctx)
        if variant == "hgla":
            return res
        return polish_hglasso(y, design, trace, replace(
            ctx.get("selection", SelectionConfig()), variant=variant))
    return fit


def _validate(y, design, path):
    """The convex estimators' validation: path(y_tr, d_tr) fits the
    training half of _split along a grid and returns (grid, its
    PenaltyPath).  Every row of theta is scored at once on the validation
    half; returns the gamma that predicts it best (ties: the smaller
    gamma) and the path."""
    y_tr, y_val, d_tr, d_val = _split(y, design)
    grid, fits = path(y_tr, d_tr)
    errs = np.linalg.norm(y_val[:, None] - d_val.G @ fits.theta.T, axis=0)
    return grid[np.lexsort((grid, errs))[0]], fits


def _counted(res, fits, work):
    """The full-data fit res after the validation path fits (None at a
    fixed gamma): converged only if no point of either failed, the
    failures counted in extra["unconverged_solves"], and work, the
    full-data fit's counts, totalled with the path's into extra."""
    unconverged = int(not res.converged)
    if fits is not None:
        unconverged += int(np.count_nonzero(~fits.converged))
        work = {k: n + fits.work[k] for k, n in work.items()}
    res.converged = unconverged == 0
    res.extra.update(unconverged_solves=unconverged, **work)
    return res


def est_mkl(y, design, sigma2, ctx):
    """Kernel-scale estimator: the Group Lasso fit of solve_mkl_lambda,
    whose lam holds the scales, at a fixed ctx["gamma"] or at the gamma
    _validate picks on a grid spanning [1e-2, 1e4] times the hgla stage's.
    The 30 validation fits are one Group Lasso path (glasso_path) at
    penalties sqrt(2 gamma), and the full-data solve starts from zero.
    extra["kkt_residual"] is kkt_residual_mkl, and extra["newton_steps"],
    ["blocks_added"] and ["retreats"] (glasso_path's retreat runs) total
    the work of the path and the full-data solve.  Cached in ctx["mkl"],
    where est_glasso reads it."""
    if "mkl" in ctx:
        return ctx["mkl"]
    gamma, fits = ctx.get("gamma"), None
    if gamma is None:
        ref = _hgla_stage(y, design, sigma2, ctx)[1].chosen_gamma
        grid = np.logspace(np.log10(1e-2 * ref), np.log10(1e4 * ref), 30)
        gamma, fits = _validate(y, design, lambda y_tr, d_tr: (
            grid, glasso_path(y_tr, d_tr, sigma2, np.sqrt(2.0 * grid))))
    res = solve_mkl_lambda(y, design, sigma2, gamma)
    res = _counted(res, fits, {"newton_steps": res.extra["newton_steps"],
                               "blocks_added": res.extra["blocks_added"],
                               "retreats": res.iterations})
    res.extra["kkt_residual"] = kkt_residual_mkl(res.lam, y, design, sigma2,
                                                 gamma)
    ctx["mkl"] = res
    return res


def est_glasso(y, design, sigma2, ctx):
    """Group Lasso at a fixed ctx["gamma"], or else est_mkl's full-data fit
    at penalty sqrt(2 gamma), so converged and extra (unconverged solves
    and the path's work) cover the MKL stage too."""
    gamma = ctx.get("gamma")
    if gamma is not None:
        if gamma < 0:
            raise ValueError("--gamma must be nonnegative")
        return solve_glasso(y, design, sigma2, gamma)
    mkl = est_mkl(y, design, sigma2, ctx)
    return replace(mkl, lam=None, gamma=np.sqrt(2.0 * mkl.gamma),
                   extra={k: mkl.extra[k] for k in (
                       "unconverged_solves", "newton_steps", "blocks_added",
                       "retreats")})


def _lasso_grid(y, G, sigma2):
    gmax = np.max(np.abs(G.T @ y)) / sigma2
    return np.logspace(np.log10(1e-4 * gmax), np.log10(gmax), 30)


def est_lasso(y, design, sigma2, ctx):
    """Lasso at a fixed ctx["gamma"], or at the gamma _validate picks on
    _lasso_grid; the validation fits are exact grid points of one homotopy
    pass (lasso_path).  The full-data fit is solve_lasso (iterations
    counts its breakpoints, extra["kkt_residual"] is its certificate);
    extra["breakpoints"] and ["factorizations"] total the work of the
    validation path and the full-data fit."""
    _no_grid(ctx, "lasso")

    def path(y_tr, d_tr):
        grid = _lasso_grid(y_tr, d_tr.G, sigma2)
        return grid, lasso_path(d_tr.gram(), d_tr.G.T @ y_tr, grid, sigma2)

    gamma, fits = ctx.get("gamma"), None
    if gamma is None:
        gamma, fits = _validate(y, design, path)
    elif gamma < 0:
        raise ValueError("--gamma must be nonnegative")
    res = solve_lasso(y, design.G, ConvexFitConfig(reg_param=gamma),
                      sigma2=sigma2)
    return _counted(res, fits, {"breakpoints": res.iterations,
                                "factorizations": res.extra["factorizations"]})


def est_adalasso(y, design, sigma2, ctx):
    """Adaptive Lasso (solve_adalasso) on _lasso_grid of the training half;
    it validates gamma with eta, so ctx may fix neither gamma nor a grid."""
    _no_grid(ctx, "adalasso")
    if ctx.get("gamma") is not None:
        raise ValueError("adalasso validates its gamma; it takes no --gamma")
    y_tr, _, d_tr, _ = _split(y, design)
    return solve_adalasso(y, design.G, sigma2,
                          {"gamma": _lasso_grid(y_tr, d_tr.G, sigma2)})


def est_oracle(y, design, sigma2, ctx):
    """Returns the true coefficients; for harness tests only."""
    theta = ctx["theta_true"].theta
    lam = (design.block_norms(theta) > 0).astype(float)
    return EstimateResult(theta=theta.copy(), lam=lam,
                          selected=list(np.nonzero(lam)[0]))


ESTIMATORS = {
    "hgla": _est_hgl("hgla"),
    "hglb": _est_hgl("hglb"),
    "hglc": _est_hgl("hglc"),
    "mkl": est_mkl,
    "glasso": est_glasso,
    "lasso": est_lasso,
    "adalasso": est_adalasso,
    "oracle": est_oracle,
}


# ============================================================
# Monte Carlo harness
# ============================================================

@dataclass
class McReport:
    config: dict
    per_run: list       # dicts: run, seed, method, pct_error, zero_pattern
    aggregates: dict

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump({"config": self.config, "per_run": self.per_run,
                       "aggregates": self.aggregates}, fh, indent=2,
                      sort_keys=True)

    def to_csv(self, path):
        """Rows as run, seed, method, pct_error, zero pattern (0/1 digits)
        and error; a failed run has no pattern, a good one no error."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in self.per_run:
                w.writerow([row["run"], row["seed"], row["method"],
                            row["pct_error"],
                            "".join("1" if z else "0"
                                    for z in row["zero_pattern"] or []),
                            row["error"] or ""])


def _one_run(config, run_index):
    design, theta_true, y, _ = gen_problem(config, run_index)
    _, seed = run_seed(config.master_seed, run_index)
    sigma2 = estimate_sigma2_ls(y, design.G)
    true_zeros = (design.block_norms(theta_true.theta) == 0.0).tolist()
    ctx = {"theta_true": theta_true}
    rows = []
    for name in config.estimators:
        row = {"run": run_index, "seed": seed, "method": name,
               "pct_error": None, "zero_pattern": None,
               "true_zeros": true_zeros, "error": None, "error_type": None}
        try:
            res = ESTIMATORS[name](y, design, sigma2, ctx)
            row.update(pct_error=percentage_error(res, theta_true),
                       zero_pattern=zero_pattern(res, design))
        except Exception as exc:  # recorded, not fatal
            row.update(error=str(exc), error_type=type(exc).__name__)
        rows.append(row)
    return rows


def run_monte_carlo(config):
    """Run the campaign and aggregate; deterministic given the config."""
    per_run = []
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            for rows in pool.map(_one_run, [config] * config.runs,
                                 range(config.runs)):
                per_run.extend(rows)
    else:
        for r in range(config.runs):
            per_run.extend(_one_run(config, r))
    per_run.sort(key=lambda row: (row["run"], row["method"]))

    aggregates = {}
    for name in config.estimators:
        rows = [r for r in per_run if r["method"] == name and r["error"] is None]
        errs = np.array([r["pct_error"] for r in rows], dtype=float)
        outcomes = [(r["zero_pattern"], r["true_zeros"]) for r in rows]
        aggregates[name] = {
            "runs_ok": len(rows),
            "mean_pct_error": float(np.mean(errs)) if errs.size else None,
            "median_pct_error": float(np.median(errs)) if errs.size else None,
            "sparsity_index": sparsity_index(outcomes) if outcomes else None,
        }
    return McReport(config=asdict(config), per_run=per_run,
                    aggregates=aggregates)
