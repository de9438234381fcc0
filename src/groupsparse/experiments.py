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
from .convex import ConvexFitConfig, adalasso_path, glasso_path, \
    kkt_residual_mkl, lasso_path, solve_glasso, solve_lasso, solve_mkl_lambda
from .selection import SelectionConfig, _split, estimate_sigma2, \
    polish_hglasso, select_hglasso
from .selection import estimate_sigma2_ls  # noqa: F401  (benchmarks/run.py)

EXPERIMENTS = ("exp1", "exp2", "exp2_noisy_a", "exp2_noisy_b", "exp2_noisy_c",
               "ada")
_NOISE_DIVISOR = {"exp1": 25.0, "exp2": 25.0, "exp2_noisy_a": 5.0,
                  "exp2_noisy_b": 2.0, "exp2_noisy_c": 1.0}
ADA_THETA = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
ADA_SIGMA2 = 1.0    # ada's noise variance; block experiments derive it per run

ZERO_TOL = 1e-10
ADALASSO_ETAS = np.arange(0.5, 4.01, 0.5)  # adalasso's weight exponents


@dataclass
class McConfig:
    experiment: str = "exp1"
    runs: int = 50
    master_seed: int = 0
    estimators: list = field(default_factory=lambda: ["hgla", "mkl"])
    p: int = 10
    k: int = 4
    n: int = 100
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
        y = G @ theta.theta + np.sqrt(ADA_SIGMA2) * rng.standard_normal(n)
        return design, theta, y, ADA_SIGMA2

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
    means: np.ndarray   # per-channel normalization offsets (output first)
    stds: np.ndarray


@dataclass
class ArxModel:
    theta: np.ndarray
    q: int
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
                      means=means, stds=stds)


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


def gen_arx_series(T, seed):
    """Documented synthetic sparse ARX system used in place of real data.

    Three white-noise inputs; only the first input drives the output:
    y_t = 0.6 y_{t-1} - 0.2 y_{t-2} + 0.8 u1_{t-1} + 0.4 u1_{t-2} + e_t,
    e ~ N(0, 0.1).  Returns a (T, 4) array, output first.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((T, 3))
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
# one problem: it caches the hgl selection stage ("stage") and mkl ("mkl"),
# and may hold a SelectionConfig ("selection"), a fixed penalty ("gamma")
# and, for the oracle, the true coefficients ("theta_true").

def _stage(y, design, ctx):
    """select_hglasso's SelectionTrace, cached in ctx["stage"]: the one
    stage the hgl variants polish and mkl centres its grid on, run with
    ctx["selection"] (default SelectionConfig()).  A fixed gamma is a
    one-point grid."""
    if "stage" not in ctx:
        cfg = ctx.get("selection", SelectionConfig())
        gamma = ctx.get("gamma")
        if gamma is not None:
            if gamma <= 0:
                raise ValueError("--gamma must be positive")
            cfg = replace(cfg, gamma_grid=[gamma])
        ctx["stage"] = select_hglasso(y, design, cfg)
    return ctx["stage"]


def _est_hgl(variant):
    """The variant's polish of the cached stage: what fit_hglasso gives
    with ctx["selection"] and that variant."""
    return lambda y, design, sigma2, ctx: polish_hglasso(
        y, design, _stage(y, design, ctx), variant)


def _validate(y, design, path):
    """The convex estimators' validation: path(y_tr, d_tr) fits the
    training half of _split along a grid and returns (grid, its
    PenaltyPath), one grid entry per row of theta: a gamma, or a row of
    parameters (gamma, eta).  Every row of theta is scored at once on the
    validation half; returns the grid entry that predicts it best (ties:
    the smaller gamma, then the smaller eta) and the path."""
    y_tr, y_val, d_tr, d_val = _split(y, design)
    grid, fits = path(y_tr, d_tr)
    errs = np.linalg.norm(y_val[:, None] - d_val.G @ fits.theta.T, axis=0)
    return grid[np.lexsort((*np.atleast_2d(grid.T)[::-1], errs))[0]], fits


def _counted(res, fits):
    """The full-data fit res after the validation path fits (None at a
    fixed gamma): converged only if no point of either failed, the
    failures counted in extra["unconverged_solves"], and the path's work
    added into res.extra key by key."""
    unconverged = int(not res.converged)
    if fits is not None:
        unconverged += int(np.count_nonzero(~fits.converged))
        for key, count in fits.work.items():
            res.extra[key] += count
    res.converged = unconverged == 0
    res.extra["unconverged_solves"] = unconverged
    return res


def est_mkl(y, design, sigma2, ctx):
    """Kernel-scale estimator: the Group Lasso fit of solve_mkl_lambda,
    whose lam holds the scales, at a fixed ctx["gamma"] or at the gamma
    _validate picks on a grid spanning [1e-2, 1e4] times the chosen gamma
    of the hgl selection stage (_stage).
    The 30 validation fits are one Group Lasso path (glasso_path) at
    penalties sqrt(2 gamma), and the full-data solve starts from the
    path's point at the chosen gamma (from zero at a fixed gamma).
    extra["kkt_residual"] is kkt_residual_mkl, and the rest of extra
    (solve_glasso's work) totals the work of the path and the full-data
    solve (_counted).  converged also needs that certificate to be finite
    (it overflows at a tiny sigma2).  Cached in ctx["mkl"], where
    est_glasso reads it."""
    if "mkl" in ctx:
        return ctx["mkl"]
    gamma, fits, theta0 = ctx.get("gamma"), None, None
    if gamma is None:
        ref = _stage(y, design, ctx).chosen_gamma
        grid = np.logspace(np.log10(1e-2 * ref), np.log10(1e4 * ref), 30)
        gamma, fits = _validate(y, design, lambda y_tr, d_tr: (
            grid, glasso_path(y_tr, d_tr, sigma2, np.sqrt(2.0 * grid))))
        theta0 = fits.theta[grid == gamma][0]
    res = solve_mkl_lambda(y, design, sigma2, gamma, theta0=theta0)
    res = _counted(res, fits)
    kkt = kkt_residual_mkl(res.lam, y, design, sigma2, gamma)
    res.extra["kkt_residual"] = kkt
    res.converged = res.converged and bool(np.isfinite(kkt))
    ctx["mkl"] = res
    return res


def est_glasso(y, design, sigma2, ctx):
    """Group Lasso at a fixed ctx["gamma"], or else est_mkl's full-data fit
    at penalty sqrt(2 gamma), so converged and extra (unconverged solves
    and the path's work, all of est_mkl's but its kkt_residual) cover the
    MKL stage too."""
    gamma = ctx.get("gamma")
    if gamma is not None:
        if gamma < 0:
            raise ValueError("--gamma must be nonnegative")
        return _counted(solve_glasso(y, design, sigma2, gamma), None)
    mkl = est_mkl(y, design, sigma2, ctx)
    return replace(mkl, lam=None, gamma=np.sqrt(2.0 * mkl.gamma),
                   extra={k: v for k, v in mkl.extra.items()
                          if k != "kkt_residual"})


def _lasso_grid(y, G, sigma2):
    """30 penalties log-spaced over [1e-4, 1] times the largest,
    max|G^T y| / sigma2 (1 where G^T y = 0: every penalty then gives
    theta = 0), whose overflow (at a tiny sigma2) is a numerical failure."""
    with np.errstate(over="ignore"):
        gmax = np.max(np.abs(G.T @ y)) / sigma2
    if np.isinf(gmax):
        raise np.linalg.LinAlgError("the Lasso penalty grid overflows at "
                                    "sigma2 = %g" % sigma2)
    gmax = gmax or 1.0
    return np.logspace(np.log10(1e-4 * gmax), np.log10(gmax), 30)


def est_lasso(y, design, sigma2, ctx):
    """Lasso at a fixed ctx["gamma"], or at the gamma _validate picks on
    _lasso_grid; the validation fits are exact grid points of one homotopy
    pass (lasso_path).  The full-data fit is solve_lasso (iterations
    counts its breakpoints, extra["kkt_residual"] is its certificate);
    the rest of extra totals the work of the validation path and the
    full-data fit (_counted)."""

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
    return _counted(res, fits)


def est_adalasso(y, design, sigma2, ctx):
    """Adaptive Lasso (Zou, JASA 2006): gamma (_lasso_grid of the training
    half) and eta (ADALASSO_ETAS) validated together on one adalasso_path,
    then the chosen pair refit on the full data; extra["eta"] is its eta.
    It validates gamma with eta, so ctx may not fix gamma."""
    if ctx.get("gamma") is not None:
        raise ValueError("adalasso validates its gamma; it takes no --gamma")

    def path(y_tr, d_tr):
        gammas = _lasso_grid(y_tr, d_tr.G, sigma2)
        grid = np.stack(np.meshgrid(gammas, ADALASSO_ETAS), -1).reshape(-1, 2)
        return grid, adalasso_path(d_tr.G, y_tr, gammas, ADALASSO_ETAS, sigma2)

    (gamma, eta), fits = _validate(y, design, path)
    fit = adalasso_path(design.G, y, [gamma], [eta], sigma2)
    theta = fit.theta[0]
    return _counted(EstimateResult(
        theta=theta, selected=list(np.flatnonzero(theta)), gamma=gamma,
        converged=bool(fit.converged[0]), extra={"eta": eta, **fit.work}),
        fits)


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
    # per_run: dicts of run, seed, method, pct_error, zero_pattern,
    # converged (None for a fit that raised) and error
    per_run: list
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
    sigma2 = estimate_sigma2(y, design.G)
    true_zeros = (design.block_norms(theta_true.theta) == 0.0).tolist()
    ctx = {"theta_true": theta_true}
    rows = []
    for name in config.estimators:
        row = {"run": run_index, "seed": seed, "method": name,
               "pct_error": None, "zero_pattern": None,
               "true_zeros": true_zeros, "converged": None, "error": None,
               "error_type": None}
        try:
            res = ESTIMATORS[name](y, design, sigma2, ctx)
            row.update(pct_error=percentage_error(res, theta_true),
                       zero_pattern=zero_pattern(res, design),
                       converged=bool(res.converged))
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
            "unconverged": sum(not r["converged"] for r in rows),
            "mean_pct_error": float(np.mean(errs)) if errs.size else None,
            "median_pct_error": float(np.median(errs)) if errs.size else None,
            "sparsity_index": sparsity_index(outcomes) if outcomes else None,
        }
    return McReport(config=asdict(config), per_run=per_run,
                    aggregates=aggregates)
