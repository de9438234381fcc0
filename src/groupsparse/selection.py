"""Selection pipelines: noise and scale estimation, greedy forward selection
over blocks in hyperparameter space, and the three staged estimators.

All three variants start from the same stage: split the data, estimate the
noise variance from training least squares, estimate a common scale kappa,
compute one unpenalized greedy block path on the training data, cut it for
each gamma on a grid (gamma only moves the stopping point, never the order),
and pick gamma by validation error, computed once per distinct selected set.
(The path carries Sigma_y^{-1} G and Sigma_y^{-1} y and updates them by one
rank-k term per accepted block, so it builds no MarginalFactor.)  The
variants differ only in the final polish:

  hgla  posterior mean at the forward-selection scales, no polish
  hglb  projected Newton refinement over all blocks from the selected start
  hglc  projected Newton refinement on the selected blocks alone, gamma=0

select_hglasso is the shared stage and polish_hglasso the polish, so
callers that fit several variants run the stage once.
"""

import numpy as np
from dataclasses import dataclass
from scipy.optimize import minimize_scalar

from .model import EstimateResult, GroupedDesign, posterior_mean
from .hglasso import solve_hgl_pqn

VARIANTS = ("hgla", "hglb", "hglc")


@dataclass
class SelectionConfig:
    gamma_grid: np.ndarray = None      # default: built from kappa, see below
    grid_lo: float = 1e-2              # grid spans [grid_lo/kappa, grid_hi/kappa]
    grid_hi: float = 1e4
    grid_n: int = 30
    variant: str = "hgla"
    sigma2: float = None               # override; otherwise training LS estimate

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if not (0 < self.grid_lo <= self.grid_hi and self.grid_n >= 1):
            raise ValueError("the gamma grid needs 0 < grid_lo <= grid_hi "
                             "and grid_n >= 1")
        if self.gamma_grid is not None:
            g = np.asarray(self.gamma_grid, dtype=float)
            if g.size == 0 or np.any(np.diff(g) <= 0) or np.any(g <= 0):
                raise ValueError("gamma_grid must be nonempty, positive, "
                                 "strictly increasing")
            self.gamma_grid = g


@dataclass
class SelectionTrace:
    gammas: np.ndarray
    selected_sets: list          # I(gamma) per grid point
    gains: list                  # accepted forward-selection gains per grid point
    val_errors: np.ndarray
    chosen_gamma: float
    chosen_set: list
    kappa: float
    sigma2: float
    greedy_order: list           # unpenalized greedy path, in order
    greedy_gains: list           # its unpenalized gains


def estimate_sigma2_ls(y, G):
    """Residual variance of the least-squares fit, ||y - G t||^2 / (n - m).

    Requires more rows than columns; with n <= m the residual is zero by
    construction and the caller must supply sigma2 explicitly.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n, m = G.shape
    if n <= m:
        raise ValueError("need n > m to estimate the noise variance from "
                         "least-squares residuals; supply sigma2 explicitly")
    t, *_ = np.linalg.lstsq(G, y, rcond=None)
    r = y - G @ t
    return float(r @ r) / (n - m)


def estimate_kappa(y_tr, design_tr, sigma2):
    """Common scale: minimize the unpenalized marginal objective over
    lambda = kappa * ones.

    Bounded scalar minimization (scipy.optimize.minimize_scalar) on log
    kappa over [1e-8, 1e8] ||y_tr||^2 / n_tr, then a few Newton polish
    steps on the exact 1-D derivative.  The whole profile reduces to
    the eigenvalues of G G^T, so evaluations are scalar sums.
    """
    y = np.asarray(y_tr, dtype=float)
    if not np.any(y):
        return 0.0
    scale = float(y @ y) / design_tr.n
    # Sigma_y(kappa) = kappa G G^T + sigma2 I: diagonalize once
    w, Q = np.linalg.eigh(design_tr.G @ design_tr.G.T)
    w = np.maximum(w, 0.0)
    yt2 = (Q.T @ y) ** 2

    def f(k):
        den = k * w + sigma2
        return 0.5 * np.sum(np.log(den)) + 0.5 * np.sum(yt2 / den)

    def df(k):
        den = k * w + sigma2
        return 0.5 * np.sum(w / den) - 0.5 * np.sum(w * yt2 / (den * den))

    bounds = (np.log(1e-8 * scale), np.log(1e8 * scale))
    k = float(np.exp(minimize_scalar(lambda t: f(np.exp(t)), bounds=bounds,
                                     method="bounded").x))
    # Newton polish on the derivative
    for _ in range(50):
        g = df(k)
        den = k * w + sigma2
        h = (-0.5 * np.sum(w * w / (den * den))
             + np.sum(w * w * yt2 / (den * den * den)))
        if h <= 0:
            break
        step = g / h
        k_new = k - step
        if k_new <= 0:
            k_new = 0.5 * k
        if abs(k_new - k) <= 1e-12 * max(1.0, k):
            k = k_new
            break
        k = k_new
    # boundary check: a zero scale can beat any interior point
    if f(0.0) <= f(k):
        return 0.0
    return k


def _greedy_path(y_tr, design_tr, sigma2, kappa, floor):
    """Unpenalized greedy block path, shared by every gamma.

    Starting from the empty set, repeatedly add the block with the largest
    gain L(I + {j}) - L(I) at gamma = 0, smallest index on ties, and stop
    at the first step whose best gain is <= floor.  The penalty gamma kappa
    |I| lowers every candidate's gain by the same gamma kappa, so the greedy
    order is the same for every gamma; only the stopping point moves.
    Returns (blocks in order of inclusion, their unpenalized gains), every
    gain > floor.

    With W = Sigma_y(I)^{-1}, S_j = G_j^T W G_j, q_j = G_j^T W y and
    C_j = I_k + kappa S_j, the determinant lemma and Woodbury give

        gain_j = -0.5 logdet C_j + 0.5 kappa q_j^T C_j^{-1} q_j,

    and adding j changes W by the rank-k term -kappa U C_j^{-1} U^T,
    U = W G_j (Tipping & Faul, AISTATS 2003).  So the path carries WG and
    Wy from W = I / sigma2 and updates them by that term after each step;
    it factors nothing larger than C_j.  Blocks of equal size are scored
    together as a stack.
    """
    y = np.asarray(y_tr, dtype=float)
    G = design_tr.G
    sizes = np.asarray(design_tr.group_sizes)
    # per block size k: the blocks of that size and their columns (r x k)
    classes = [(k, np.flatnonzero(sizes == k)) for k in np.unique(sizes)]
    classes = [(k, b, design_tr.starts[b][:, None] + np.arange(k))
               for k, b in classes]
    row = np.empty(design_tr.p, dtype=int)     # a block's row in its class
    for _, blocks, _ in classes:
        row[blocks] = np.arange(blocks.size)
    WG, Wy = G / sigma2, y / sigma2
    out = np.ones(design_tr.p, dtype=bool)     # not yet on the path
    cand = np.empty(design_tr.p)
    order, gains = [], []
    while out.any():
        # score every block (those on the path are masked below)
        scored = {}
        for k, blocks, cols in classes:
            Gb = G[:, cols]                              # n x blocks x k
            C = np.eye(k) + kappa * np.einsum("nri,nrj->rij", Gb, WG[:, cols])
            q = np.einsum("nri,n->ri", Gb, Wy)
            L = np.linalg.cholesky(C)
            z = np.linalg.solve(L, q[..., None])[..., 0]    # L^{-1} q
            logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
            cand[blocks] = -0.5 * logdet + 0.5 * kappa * np.sum(z * z, axis=1)
            scored[k] = L, z
        cand[~out] = -np.inf
        best = int(np.argmax(cand))          # first maximum: smallest index
        if cand[best] <= floor:
            break
        out[best] = False
        order.append(best)
        gains.append(float(cand[best]))
        # W <- W - kappa V V^T with V = U L^{-T}, C_j = L L^T; V^T y = z
        L, z = (a[row[best]] for a in scored[sizes[best]])
        cols = design_tr.slices[best]
        V = np.linalg.solve(L, WG[:, cols].T).T
        WG -= kappa * V @ (V.T @ G)
        Wy -= kappa * V @ z
    return order, gains


def forward_select(y_tr, design_tr, sigma2, kappa, gamma):
    """Greedy block inclusion maximizing the marginal log posterior at gamma.

    The unpenalized greedy path (see _greedy_path) cut at the first gain
    <= gamma kappa: the same set as adding the block with the largest
    penalized gain L(I + {j}) - L(I), smallest index on ties, until the best
    gain is not positive.  Returns (sorted selected indices, accepted
    penalized gains in order of inclusion).
    """
    floor = gamma * kappa
    order, gains = _greedy_path(y_tr, design_tr, sigma2, kappa, floor)
    return sorted(order), [g - floor for g in gains]


def _split(y, design):
    """(y_tr, y_val, design_tr, design_val): the first ceil(n / 2) rows
    train, the rest validate."""
    if design.n < 2:
        raise ValueError("degenerate split")
    n_tr = (design.n + 1) // 2
    d_tr = GroupedDesign(design.G[:n_tr], design.group_sizes)
    d_val = GroupedDesign(design.G[n_tr:], design.group_sizes)
    return y[:n_tr], y[n_tr:], d_tr, d_val


def select_hglasso(y, design, config=None):
    """Stage one, shared by every variant; returns the SelectionTrace.

    Prefix split, training-residual sigma2 (unless overridden), kappa
    estimate, one greedy path cut per gamma on the grid (the same sets
    forward_select returns), gamma chosen by validation error (ties:
    largest gamma).
    """
    cfg = config or SelectionConfig()
    y = np.asarray(y, dtype=float)
    y_tr, y_val, d_tr, d_val = _split(y, design)
    sigma2 = cfg.sigma2 if cfg.sigma2 is not None \
        else estimate_sigma2_ls(y_tr, d_tr.G)
    if sigma2 <= 0:
        sigma2 = max(sigma2, 1e-12)
    kappa = estimate_kappa(y_tr, d_tr, sigma2)
    if cfg.gamma_grid is not None:
        gammas = cfg.gamma_grid
    else:
        k_ref = kappa if kappa > 0 else 1.0
        gammas = np.logspace(np.log10(cfg.grid_lo / k_ref),
                             np.log10(cfg.grid_hi / k_ref), cfg.grid_n)

    order, path_gains = _greedy_path(y_tr, d_tr, sigma2, kappa,
                                     np.min(gammas) * kappa)
    sets, gains_per_gamma, val_errors = [], [], []
    err_of_cut = {}      # validation error per distinct selected set
    for gamma in gammas:
        # gamma accepts the path up to its first gain <= gamma kappa
        floor = gamma * kappa
        t = next((i for i, g in enumerate(path_gains) if g <= floor),
                 len(path_gains))
        if t not in err_of_cut:
            lam = np.zeros(design.p)
            lam[order[:t]] = kappa
            th = posterior_mean(d_tr, lam, sigma2, y_tr)
            err_of_cut[t] = float(np.linalg.norm(y_val - d_val.G @ th))
        sets.append(sorted(order[:t]))
        gains_per_gamma.append([g - floor for g in path_gains[:t]])
        val_errors.append(err_of_cut[t])
    val_errors = np.asarray(val_errors)
    # validation error is exactly flat across gammas sharing a selected set,
    # so break ties toward the largest gamma (the most parsimonious prior)
    best = int(val_errors.size - 1 - np.argmin(val_errors[::-1]))
    return SelectionTrace(gammas=np.asarray(gammas), selected_sets=sets,
                          gains=gains_per_gamma, val_errors=val_errors,
                          chosen_gamma=float(gammas[best]),
                          chosen_set=list(sets[best]), kappa=kappa,
                          sigma2=sigma2, greedy_order=order,
                          greedy_gains=path_gains)


def polish_hglasso(y, design, trace, config=None):
    """Stage two: lambda on the full data for config.variant, starting
    from the forward-selection scales (kappa on trace.chosen_set), and
    theta the posterior mean at that lambda (see the module docstring).

    hglb solves over all blocks at the chosen gamma; hglc solves at gamma
    = 0 on the design restricted to the chosen blocks, which gives the
    same objective as pinning the others at zero (blocks with lambda_i = 0
    add nothing to Sigma_y).  .objective is the solve's final objective,
    extra["kkt_residual"] its kkt_violation_hgl (None for hgla) and
    extra["min_free_hessian_eig"] the smallest eigenvalue of its Hessian
    on the final free blocks (None without a solve or a free block); a
    positive value marks a strict local minimum.  extra["greedy_order"]
    and extra["greedy_gains"] are trace's unpenalized greedy path.
    """
    cfg = config or SelectionConfig()
    y = np.asarray(y, dtype=float)
    i_fs, sigma2 = trace.chosen_set, trace.sigma2
    lam_hat = np.zeros(design.p)
    lam_hat[i_fs] = trace.kappa
    # a solve's theta is the posterior mean at its lam: hglb's on this
    # design, hglc's on the chosen blocks (zero on the others)
    res, theta = None, np.zeros(design.m)
    if cfg.variant == "hglb":
        res = solve_hgl_pqn(y, design, sigma2, trace.chosen_gamma, lam_hat)
        lam_hat, theta = res.lam, res.theta
    elif cfg.variant == "hglc" and i_fs:
        res = solve_hgl_pqn(y, design.subdesign(i_fs), sigma2, 0.0,
                            lam_hat[i_fs])
        lam_hat[i_fs] = res.lam
        theta[np.isin(design.owner, i_fs)] = res.theta
    elif cfg.variant == "hgla":
        theta = posterior_mean(design, lam_hat, sigma2, y)
    if res is not None:
        kkt = res.extra["kkt_residual"]
    else:
        kkt = None if cfg.variant == "hgla" else 0.0
    sel = [i for i in range(design.p) if lam_hat[i] > 0]
    return EstimateResult(
        theta=theta, lam=lam_hat, selected=sel, gamma=trace.chosen_gamma,
        converged=res is None or res.converged,
        iterations=0 if res is None else res.iterations,
        objective=np.nan if res is None else res.objective,
        extra={"kappa": trace.kappa, "sigma2": sigma2,
               "variant": cfg.variant, "kkt_residual": kkt,
               "min_free_hessian_eig": None if res is None
               else res.extra["min_free_hessian_eig"],
               "greedy_order": list(trace.greedy_order),
               "greedy_gains": list(trace.greedy_gains)})


def fit_hglasso(y, design, config=None):
    """Staged group-sparse fit; returns (EstimateResult, SelectionTrace):
    select_hglasso, then polish_hglasso for config.variant."""
    cfg = config or SelectionConfig()
    trace = select_hglasso(y, design, cfg)
    return polish_hglasso(y, design, trace, cfg), trace
