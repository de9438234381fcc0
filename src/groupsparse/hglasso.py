"""Empirical-Bayes group-sparse machinery.

Hyperparameters lambda are estimated by minimizing the penalized negative
log marginal likelihood (an exponential hyperprior with rate gamma gives the
linear penalty), then theta is the conditional posterior mean.  This module
has the projected Newton solve (at fixed tolerances, returning an
EstimateResult like the other estimators), KKT residuals, the closed forms
that exist under orthogonal designs, exact zero probabilities, the
weighted-MSE diagnostic, and the two-group worked example.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import chndtr

from .model import EstimateResult, MarginalFactor

__all__ = [
    "solve_hgl_pqn", "kkt_residual_hgl", "kkt_violation_hgl",
    "closed_form_lambda_orth", "closed_form_lambda_mkl_orth", "lambda_opt",
    "ZeroProbQuery", "prob_lambda_zero", "two_group_thresholds",
    "TwoGroupThresholds", "weighted_mse_profile", "WeightedMseProfile",
]

# solve_hgl_pqn: convergence tolerance on the projected gradient (relative
# to 1 + |f|), iteration cap, Armijo constant and backtracking factor
_GRAD_TOL = 1e-10
_MAX_ITER = 1000
_ARMIJO = 1e-4
_BACKTRACK = 0.5


def _newton_direction(H, g):
    """-(H + mu I)^{-1} g, with mu = 0 when H is positive definite and
    otherwise the first of 1e-8 max|diag H| x 10^j that makes it so."""
    mu = 0.0
    scale = max(float(np.max(np.abs(np.diag(H)))), np.finfo(float).tiny)
    while True:
        try:
            return -cho_solve(cho_factor(H + mu * np.eye(g.size)), g)
        except np.linalg.LinAlgError:
            mu = 1e-8 * scale if mu == 0.0 else 10.0 * mu


def solve_hgl_pqn(y, design, sigma2, gamma, lam0=None):
    """Minimize the penalized negative log marginal over lambda >= 0 by
    projected Newton on the exact Hessian (Bertsekas, SIAM J. Control
    Optim. 1982).

    Each iteration splits the coordinates.  Those within eps of zero whose
    gradient pushes them further down (eps = ||lam - P(lam - g)||_inf, the
    quantity of the test below) move along -g; the others take a Newton
    step on their block of MarginalFactor.block_hessian, damped by mu I
    while that block is not positive definite.  The step is scaled so that
    no free coordinate moves by more than max(1, max lam), and accepted by
    Armijo backtracking (_ARMIJO, _BACKTRACK) along the projection arc, so
    coordinates land on zero exactly; a trial point that passes the
    convergence test is accepted whatever its objective.

    The convergence test is ||lam - P(lam - g)||_inf <= _GRAD_TOL (1 +
    |f|), P the projection on the orthant; converged is False when
    _MAX_ITER iterations did not pass it.  To pin blocks at zero, solve on
    design.subdesign of the others.  The objective is nonconvex; the
    result is a stationary point reached from lam0 (default: zeros),
    returned as an EstimateResult with theta the posterior mean at lam
    (from the final factor) and extra["kkt_residual"]
    (kkt_violation_hgl), extra["grad_norm"] (the test's left side) and
    extra["min_free_hessian_eig"], the smallest eigenvalue of the Hessian
    on the final free coordinates (positive at a strict local minimum;
    None when none is free).
    """
    y = np.asarray(y, dtype=float)
    lam = np.zeros(design.p) if lam0 is None else \
        np.maximum(np.asarray(lam0, dtype=float), 0.0)

    def evaluate(lam):
        fac = MarginalFactor(design, lam, sigma2)
        return (fac,) + fac.neg_log_marginal(y, gamma)

    def pg_norm(lam, g):
        return float(np.max(np.abs(lam - np.maximum(lam - g, 0.0)),
                            initial=0.0))

    fac, f, g = evaluate(lam)
    it = 0
    for it in range(1, _MAX_ITER + 1):
        gnorm = pg_norm(lam, g)
        if gnorm <= _GRAD_TOL * (1.0 + abs(f)):
            break
        free = (lam > gnorm) | (g <= 0.0)
        d = -g
        if free.any():
            H = fac.block_hessian(y)[np.ix_(free, free)]
            d[free] = _newton_direction(H, g[free])
        # no free coordinate moves by more than the largest scale (or 1)
        # in one step, so a far-reaching step cannot jump across the
        # landscape (the projection already stops the binding ones)
        limit = max(1.0, np.max(lam, initial=0.0))
        dmax = np.max(np.abs(d[free]), initial=0.0)
        if dmax > limit:
            d *= limit / dmax
        t, accepted = 1.0, False
        while t > 1e-20:
            lam_t = np.maximum(lam + t * d, 0.0)
            step = lam_t - lam
            if not np.any(step):
                break
            fac_t, f_t, g_t = evaluate(lam_t)
            # a trial passing the convergence test is taken whatever its
            # objective; 1e-13|f| keeps rounding from rejecting decreases
            if pg_norm(lam_t, g_t) <= _GRAD_TOL * (1.0 + abs(f_t)) or \
                    f_t <= f + min(_ARMIJO * (g @ step), 0.0) \
                    + 1e-13 * abs(f):
                accepted = True
                break
            t *= _BACKTRACK
        if not accepted:
            break  # no decrease representable; treat as terminal
        lam, fac, f, g = lam_t, fac_t, f_t, g_t

    gnorm = pg_norm(lam, g)
    free = (lam > gnorm) | (g <= 0.0)     # the final split
    eig = None
    if free.any():     # from fac's cached G^T W G and W y
        eig = float(np.linalg.eigvalsh(
            fac.block_hessian(y)[np.ix_(free, free)])[0])
    return EstimateResult(
        theta=fac.lam_full * fac.gtw_y(y), lam=lam,
        selected=list(np.flatnonzero(lam)), gamma=gamma,
        converged=gnorm <= _GRAD_TOL * (1.0 + abs(f)), iterations=it,
        objective=float(f),
        extra={"kkt_residual": kkt_violation_hgl(lam, 2.0 * g),
               "grad_norm": gnorm, "min_free_hessian_eig": eig})


def kkt_residual_hgl(lam, y, design, sigma2, gamma):
    """Max stationarity violation of the first-order conditions at lambda.

    With e = 2 grad of MarginalFactor.neg_log_marginal, e_i = tr(G^(i)T W
    G^(i)) - ||G^(i)T W y||^2 + 2 gamma: active coordinates must have e_i =
    0, zero coordinates must have e_i >= 0.
    """
    y = np.asarray(y, dtype=float)
    fac = MarginalFactor(design, lam, sigma2)
    return kkt_violation_hgl(fac.lam, 2.0 * fac.neg_log_marginal(y, gamma)[1])


def kkt_violation_hgl(lam, e):
    """kkt_residual_hgl from e, which is twice the gradient of the
    objective of solve_hgl_pqn: max |e_i| if lam_i > 0, else max(0, -e_i)."""
    res = np.where(lam > 0, np.abs(e), np.maximum(0.0, -e))
    return float(np.max(res, initial=0.0))


# ============================================================
# orthogonal-design closed forms
# ============================================================

def closed_form_lambda_orth(theta_ls_block, k, n, sigma2, gamma):
    """Saturated lambda estimate for one block when G^T G = n I.

    gamma > 0:
        max(0, [sqrt(k^2 + 8 gamma ||t||^2) - (k + 4 sigma2 gamma / n)]
               / (4 gamma))
    gamma = 0 (flat hyperprior limit):
        max(0, ||t||^2 / k - sigma2 / n)
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    t2 = float(np.sum(np.square(np.asarray(theta_ls_block, dtype=float))))
    if gamma == 0:
        return max(0.0, t2 / k - sigma2 / n)
    val = (np.sqrt(k * k + 8.0 * gamma * t2)
           - (k + 4.0 * sigma2 * gamma / n)) / (4.0 * gamma)
    return max(0.0, float(val))


def closed_form_lambda_mkl_orth(theta_ls_block, n, sigma2, gamma):
    """Kernel-scale closed form under G^T G = n I: max(0, ||t||/sqrt(2g) - s2/n)."""
    if gamma <= 0:
        raise ValueError("mkl requires positive gamma")
    t = float(np.linalg.norm(np.asarray(theta_ls_block, dtype=float)))
    return max(0.0, t / np.sqrt(2.0 * gamma) - sigma2 / n)


def lambda_opt(theta_true_block, k):
    """MSE-optimal per-block scale ||theta_true^(i)||^2 / k_i."""
    t = np.asarray(theta_true_block, dtype=float)
    return float(t @ t) / k


# ============================================================
# zero probabilities
# ============================================================

@dataclass
class ZeroProbQuery:
    """Inputs for the exact probability that a block's lambda is zero."""

    theta_block_norm2: float
    k: int
    n: int
    sigma2: float
    gamma: float
    estimator: str  # "hgl" or "mkl"

    def __post_init__(self):
        if self.theta_block_norm2 < 0 or self.gamma < 0 or self.sigma2 <= 0:
            raise ValueError("invalid query")
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be >= 1")
        if self.estimator not in ("hgl", "mkl"):
            raise ValueError("estimator must be 'hgl' or 'mkl'")


def prob_lambda_zero(q):
    """Exact P[saturated lambda estimate = 0] under an orthogonal design.

    The estimate vanishes iff a noncentral chi-square variable with k
    degrees of freedom and noncentrality ||theta||^2 n / sigma2 falls below
    an estimator-specific threshold: k + 2 gamma sigma2 / n for the
    marginal-likelihood estimator, 2 gamma sigma2 / n for the kernel one.
    """
    mu = q.theta_block_norm2 * q.n / q.sigma2
    if q.estimator == "hgl":
        thr = q.k + 2.0 * q.gamma * q.sigma2 / q.n
    else:
        thr = 2.0 * q.gamma * q.sigma2 / q.n
    return float(chndtr(thr, q.k, mu))     # the noncentral chi-square cdf


# ============================================================
# two-group worked example
# ============================================================

@dataclass
class TwoGroupThresholds:
    lambda2_hgl: float
    lambda2_mkl: float
    gamma_min_hgl: float
    gamma_min_mkl: float
    theta2_hgl: float
    theta2_mkl: float


def _tg_lambda2_hgl(gamma, y2, sigma2):
    if gamma == 0:
        return max(0.0, y2 * y2 - sigma2)
    r = (-1.0 + np.sqrt(1.0 + 8.0 * gamma * y2 * y2)) / (4.0 * gamma)
    return max(0.0, r - sigma2)


def _tg_lambda2_mkl(gamma, y2, sigma2):
    if gamma == 0:
        return np.inf
    return max(0.0, abs(y2) / np.sqrt(2.0 * gamma) - sigma2)


def _tg_margin(gamma, y2, sigma2, delta, estimator):
    """Margin of the first-block zero condition; nonnegative means lambda1=0
    is stationary.  Evaluated at y = (0, y2) with the second-block scale at
    its own saturated value."""
    if estimator == "hgl":
        lam2 = _tg_lambda2_hgl(gamma, y2, sigma2)
        s = sigma2 + lam2
        trace = 1.0 / sigma2 + delta * delta / s
        score = (delta * y2 / s) ** 2
        return 2.0 * gamma + trace - score
    lam2 = _tg_lambda2_mkl(gamma, y2, sigma2)
    if np.isinf(lam2):
        return 0.0 if gamma == 0 else 2.0 * gamma
    s = sigma2 + lam2
    return 2.0 * gamma - (delta * y2 / s) ** 2


def _tg_gamma_min(y2, sigma2, delta, estimator):
    """Smallest gamma from which the zero condition holds for every larger
    gamma (log-grid scan refined by brentq)."""
    grid = np.concatenate([[0.0], np.logspace(-8, 8, 1601)])
    ok = np.array([_tg_margin(g, y2, sigma2, delta, estimator) >= 0
                   for g in grid])
    if ok.all():
        return 0.0
    last_bad = np.max(np.nonzero(~ok)[0])
    if last_bad + 1 >= grid.size:
        return float("inf")
    return float(brentq(_tg_margin, grid[last_bad], grid[last_bad + 1],
                        args=(y2, sigma2, delta, estimator), xtol=1e-300))


def two_group_thresholds(y2val, sigma2, delta, gamma):
    """Closed-form study of the two-group design G^(1)=[1,d]^T, G^(2)=[0,1]^T.

    Evaluates both estimators' saturated lambda_2 and shrunk theta_2 at the
    given gamma, plus the minimal gamma that zeroes the first block for each
    estimator, all at the observation y = (0, y2val).
    """
    l2h = _tg_lambda2_hgl(gamma, y2val, sigma2)
    l2m = _tg_lambda2_mkl(gamma, y2val, sigma2)
    th2h = l2h * y2val / (sigma2 + l2h)
    th2m = y2val if np.isinf(l2m) else l2m * y2val / (sigma2 + l2m)
    return TwoGroupThresholds(
        lambda2_hgl=l2h,
        lambda2_mkl=l2m,
        gamma_min_hgl=_tg_gamma_min(y2val, sigma2, delta, "hgl"),
        gamma_min_mkl=_tg_gamma_min(y2val, sigma2, delta, "mkl"),
        theta2_hgl=th2h,
        theta2_mkl=th2m,
    )


# ============================================================
# weighted MSE diagnostic
# ============================================================

@dataclass
class WeightedMseProfile:
    lambdas: np.ndarray
    values: np.ndarray
    minimizer: float
    breve_lambda_limit: float


def weighted_mse_profile(d, beta, alpha, n):
    """Weighted MSE of a diagonalized block (d and beta of
    diagonalize_block) over a log grid of 400 lambdas.

    W(lam) = sum_k d_k^alpha (beta_k^2/n + lam^2 d_k^2) / (1/n + lam d_k^2)^2.

    Returns the grid, the curve, its grid minimizer, and the large-n
    analytic limit sum d^(alpha-4) beta^2 / sum d^(alpha-4) of the zero of
    the weighted score.
    """
    if beta is None:
        raise ValueError("diagonalized block lacks beta (true theta not supplied)")
    d = np.asarray(d, dtype=float)
    b = np.asarray(beta, dtype=float)
    wk = d ** (alpha - 4.0)
    limit = float(np.sum(wk * b * b) / np.sum(wk))
    center = limit if limit > 0 else float(np.mean(b * b)) + 1e-12
    lams = np.logspace(np.log10(center) - 4, np.log10(center) + 4, 400)
    vals = np.array([
        np.sum(d ** alpha * (b * b / n + lam * lam * d * d)
               / (1.0 / n + lam * d * d) ** 2)
        for lam in lams
    ])
    return WeightedMseProfile(
        lambdas=lams, values=vals,
        minimizer=float(lams[np.argmin(vals)]),
        breve_lambda_limit=limit,
    )
