"""Convex estimators: Lasso, Group Lasso, the kernel-scale problem, AdaLasso.

The kernel-scale (MKL-style) problem minimizes
    y^T (K(lambda) + sigma2 I)^{-1} y / 2 + gamma sum_i lambda_i
over lambda >= 0 with K^(i) = G^(i) G^(i)^T.  It is Group Lasso in another
parametrization: with theta the Group Lasso solution at regularization
sqrt(2 gamma), lambda_i = ||theta^(i)|| / sqrt(2 gamma) is its minimizer and
theta is the posterior mean at those scales (Bach, JMLR 2008).  So one
block coordinate descent solver (solve_glasso) serves both.
"""

import numpy as np
from dataclasses import dataclass

from .model import EstimateResult, HyperState, MarginalFactor, \
    posterior_mean


@dataclass
class ConvexFitConfig:
    reg_param: float = 0.0
    max_iter: int = 20000
    tol: float = 1e-12

    def __post_init__(self):
        if self.reg_param < 0:
            raise ValueError("reg_param must be nonnegative")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol and max_iter must be positive")


# weight used in place of |theta_ls_j|^(-eta) when the LS coefficient is 0;
# large enough to exclude the variable for any sane gamma
ADALASSO_WEIGHT_CAP = 1e8


def _lasso_objective(y, G, theta, sigma2, gamma):
    r = y - G @ theta
    return (r @ r) / (2.0 * sigma2) + gamma * np.sum(np.abs(theta))


def solve_lasso(y, G, config, sigma2=1.0, theta0=None):
    """L1-penalized least squares by cyclic coordinate descent.

    Minimizes (y - G theta)^T (y - G theta) / (2 sigma2) + reg ||theta||_1
    with exact soft-threshold coordinate updates on the Gram matrix G^T G
    (covariance updates: q = G^T r is kept current in place of the
    residual r), starting from theta0 (default zero).  After every sweep
    the support A and signs s are solved exactly,
    theta_A = (G^T G)_AA^{-1} (G^T y_A - sigma2 reg s); the solve stops
    there when that point is a KKT certificate (signs unchanged and
    |q_j| <= sigma2 reg (1 + 1e-9) off A).  Otherwise it stops when a sweep
    lowers the objective by at most tol relative, or after max_iter sweeps.
    extra["kkt_residual"] is the largest violation of the optimality
    conditions, in units of reg.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    gamma = config.reg_param
    m = G.shape[1]
    H = G.T @ G
    b = G.T @ y
    colsq = np.diag(H).copy()
    theta = np.zeros(m) if theta0 is None else \
        np.array(theta0, dtype=float)
    q = b - H @ theta
    thr = sigma2 * gamma
    obj = _lasso_objective(y, G, theta, sigma2, gamma)
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        for j in range(m):
            if colsq[j] == 0.0:
                continue
            old = theta[j]
            rho = q[j] + colsq[j] * old
            new = np.sign(rho) * max(0.0, abs(rho) - thr) / colsq[j]
            if new != old:
                q -= H[:, j] * (new - old)
                theta[j] = new
        cert = _support_certificate(H, b, theta, thr)
        if cert is not None:
            theta = cert
            obj = _lasso_objective(y, G, theta, sigma2, gamma)
            converged = True
            break
        new_obj = _lasso_objective(y, G, theta, sigma2, gamma)
        if obj - new_obj <= config.tol * (1.0 + abs(new_obj)):
            obj = new_obj
            converged = True
            break
        obj = new_obj
    g = (b - H @ theta) / sigma2
    viol = np.where(theta != 0, np.abs(g - gamma * np.sign(theta)),
                    np.maximum(0.0, np.abs(g) - gamma))
    return EstimateResult(theta=theta, selected=list(np.nonzero(theta)[0]),
                          gamma=gamma, converged=converged, iterations=it,
                          objective=obj,
                          extra={"kkt_residual": float(np.max(viol,
                                                              initial=0.0))})


def _support_certificate(H, b, theta, thr):
    """Exact Lasso solution on theta's support and signs, or None.

    Solves the stationarity equations on A = supp(theta) with the signs of
    theta held fixed; returns the solution when it keeps every sign and no
    coordinate off A violates |q_j| <= thr for q = b - H theta.
    """
    A = np.flatnonzero(theta)
    s = np.sign(theta[A])
    cand = np.zeros_like(theta)
    if A.size:
        try:
            cand[A] = np.linalg.solve(H[np.ix_(A, A)], b[A] - thr * s)
        except np.linalg.LinAlgError:
            return None
        if np.any(np.sign(cand[A]) != s):
            return None
    q = b - H @ cand
    off = np.ones(theta.size, dtype=bool)
    off[A] = False
    if np.any(np.abs(q[off]) > thr * (1.0 + 1e-9)):
        return None
    return cand


def warm_path(solve, gammas):
    """solve(gamma, theta0) at every penalty in gammas, walked from the
    largest down with each solution's theta starting the next solve; fits
    in the order given."""
    fits = [None] * len(gammas)
    start = None
    for i in np.argsort(gammas, kind="stable")[::-1]:
        fits[i] = solve(gammas[i], start)
        start = fits[i].theta
    return fits


def lasso_path(y, G, gammas, sigma2=1.0):
    """solve_lasso at every penalty in gammas, as one warm_path."""
    return warm_path(lambda gamma, theta0: solve_lasso(
        y, G, ConvexFitConfig(reg_param=gamma), sigma2=sigma2,
        theta0=theta0), gammas)


def _glasso_block_update(eigvals, Qtb, bnorm, a):
    """Exact proximal update magnitude for one block.

    Solves sum_k c_k^2 / (s_k t + a)^2 = 1 for t = ||theta_block|| by Newton
    (the left side is convex decreasing so iterates climb monotonically to
    the root), where s = eigenvalues of G^(i)T G^(i), c = Q^T b with b the
    block's correlation with the partial residual, and a = sigma2 gamma.
    """
    c2 = Qtb * Qtb
    t = max(0.0, (bnorm - a) / max(np.max(eigvals), 1e-300))
    for _ in range(50):
        den = eigvals * t + a
        phi = np.sum(c2 / (den * den)) - 1.0
        dphi = -2.0 * np.sum(c2 * eigvals / (den * den * den))
        step = phi / dphi
        t_new = t - step
        if t_new < 0:
            t_new = 0.5 * t
        if abs(t_new - t) <= 1e-12 * max(1.0, t):
            t = t_new
            break
        t = t_new
    return t


def solve_glasso(y, design, sigma2, config, theta0=None):
    """Group Lasso by block coordinate descent with exact block updates.

    Minimizes (y - G theta)^T (y - G theta)/(2 sigma2)
    + reg sum_i ||theta^(i)||, starting from theta0 (default zero) with the
    residual y - G theta0.  A block is set exactly to zero when
    ||G^(i)T r_i|| / sigma2 <= reg for its partial residual r_i; otherwise
    the update magnitude comes from a 1-D Newton root-find.  After every
    sweep the active blocks are solved exactly (_block_certificate); the
    solve stops there when that point satisfies the optimality conditions,
    and otherwise on the same objective-decrease and max_iter rules as
    solve_lasso.
    """
    y = np.asarray(y, dtype=float)
    gamma = config.reg_param
    p = design.p
    theta = np.zeros(design.m) if theta0 is None else \
        np.array(theta0, dtype=float)
    GtG = design.G.T @ design.G
    Gty = design.G.T @ y
    # per-block eigendecompositions, computed once
    eigs, rots = [], []
    for i in range(p):
        Gi = design.block(i)
        w, Q = np.linalg.eigh(Gi.T @ Gi)
        eigs.append(np.maximum(w, 0.0))
        rots.append(Q)
    r = y - design.G @ theta
    a = sigma2 * gamma

    def objective():
        bn = sum(np.linalg.norm(theta[design.slices[i]]) for i in range(p))
        return (r @ r) / (2.0 * sigma2) + gamma * bn

    obj = objective()
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        for i in range(p):
            sl = design.slices[i]
            Gi = design.block(i)
            old = theta[sl].copy()
            b = Gi.T @ r + (Gi.T @ Gi) @ old if np.any(old) else Gi.T @ r
            bnorm = np.linalg.norm(b)
            if a > 0 and bnorm <= a:
                new = np.zeros_like(old)
            elif a == 0:
                new, *_ = np.linalg.lstsq(Gi, r + Gi @ old, rcond=None)
            else:
                Q = rots[i]
                t = _glasso_block_update(eigs[i], Q.T @ b, bnorm, a)
                if t <= 0:
                    new = np.zeros_like(old)
                else:
                    new = Q @ ((Q.T @ b) / (eigs[i] + a / t))
            if np.any(new != old):
                r += Gi @ (old - new)
                theta[sl] = new
        cert = _block_certificate(GtG, Gty, theta, design.slices, a)
        if cert is not None:
            theta = cert
            r = y - design.G @ theta
            obj = objective()
            converged = True
            break
        new_obj = objective()
        if obj - new_obj <= config.tol * (1.0 + abs(new_obj)):
            obj = new_obj
            converged = True
            break
        obj = new_obj
    sel = [i for i in range(p) if np.any(theta[design.slices[i]])]
    return EstimateResult(theta=theta, selected=sel, gamma=gamma,
                          converged=converged, iterations=it, objective=obj)


def _block_certificate(H, b, theta, slices, a):
    """Exact Group Lasso solution on theta's active blocks, or None.

    Newton's method, from theta, on the stationarity equations of the
    active blocks, H_AA x - b_A + a x_i / ||x_i|| = 0 (H = G^T G,
    b = G^T y, a = sigma2 reg); returns the solution when Newton converges
    within 10 steps without turning any block around (for blocks of one, the signs stay
    unchanged) and every inactive block satisfies
    ||b_i - H_iA x|| <= a (1 + 1e-9).
    """
    active = [sl for sl in slices if np.any(theta[sl])]
    cand = np.zeros_like(theta)
    if active:
        idx = np.concatenate([np.arange(sl.start, sl.stop) for sl in active])
        local, off = [], 0
        for sl in active:
            local.append(slice(off, off + sl.stop - sl.start))
            off = local[-1].stop
        H_AA, x = H[np.ix_(idx, idx)], theta[idx].copy()
        for _ in range(10):
            F = H_AA @ x - b[idx]
            J = H_AA.copy()
            for sl in local:
                nrm = np.linalg.norm(x[sl])
                if nrm == 0.0:
                    return None
                u = x[sl] / nrm
                F[sl] += a * u
                J[sl, sl] += (a / nrm) * (np.eye(u.size) - np.outer(u, u))
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                return None
            x_new = x - step
            if any(x_new[sl] @ x[sl] <= 0.0 for sl in local):
                return None  # a block turned around: the support is wrong
            x = x_new
            # convergence is quadratic: after a step this small, what is
            # left of the error is below rounding
            if np.max(np.abs(step)) <= 1e-10 * np.max(np.abs(x)):
                break
        else:
            return None
        cand[idx] = x
    q = b - H @ cand
    for sl in slices:
        if not np.any(cand[sl]) and np.linalg.norm(q[sl]) > a * (1.0 + 1e-9):
            return None
    return cand


def solve_mkl_lambda(y, design, sigma2, gamma, theta0=None):
    """Global minimizer of the convex kernel-scale objective.

    Solves Group Lasso at reg = sqrt(2 gamma) from theta0 (default zero)
    and returns that EstimateResult with lam_i = ||theta^(i)|| / sqrt(2
    gamma), the nonnegative p-vector of scales, and gamma set to gamma.
    The quality of the solve is certified by kkt_residual_mkl.
    """
    if gamma <= 0:
        raise ValueError("mkl requires positive gamma")
    reg = np.sqrt(2.0 * gamma)
    res = solve_glasso(y, design, sigma2, ConvexFitConfig(reg_param=reg),
                       theta0=theta0)
    res.lam = np.array([np.linalg.norm(res.theta[s])
                        for s in design.slices]) / reg
    res.gamma = gamma
    return res


def mkl_recover_theta(lam, y, design, sigma2):
    """Coefficients from kernel scales: theta^(i) = lam_i G^(i)T c with
    c = (K(lam) + sigma2 I)^{-1} y; algebraically the posterior mean."""
    lam = np.asarray(getattr(lam, "lam", lam), dtype=float)
    bv = posterior_mean(design, HyperState(lam, 0.0, sigma2), y)
    sel = [i for i in range(design.p) if lam[i] > 0]
    return EstimateResult(theta=bv.theta, lam=lam, selected=sel)


def kkt_residual_mkl(lam, y, design, sigma2, gamma):
    """Max violation of the kernel-scale optimality conditions at lambda.

    Active coordinates need ||G^(i)T W y||^2 = 2 gamma; zero coordinates
    need ||G^(i)T W y||^2 <= 2 gamma.
    """
    lam = np.asarray(lam, dtype=float)
    y = np.asarray(y, dtype=float)
    sq = MarginalFactor(design, lam, sigma2).block_scores(y)
    res = np.where(lam > 0, np.abs(-sq + 2.0 * gamma),
                   np.maximum(0.0, sq - 2.0 * gamma))
    return float(np.max(res, initial=0.0))


def solve_adalasso(y, G, sigma2, grids):
    """Adaptive Lasso with two-dimensional validation over (gamma, eta).

    grids: mapping with "gamma" (1-D array of penalties) and "eta" (1-D
    array of weight exponents, default 0.5..4 step 0.5).  Weights are
    |theta_ls_j|^(-eta), capped when the LS coefficient vanishes.  Each pair
    is scored by prediction error on the second half of the data after
    fitting on the first half; the winner (ties: smaller gamma, then eta)
    is refit on the full data.  For each eta the gamma grid is one warm
    path (lasso_path); converged is true only if every inner solve
    converged, and extra["unconverged_solves"] counts those that did not.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    gammas = np.asarray(grids["gamma"], dtype=float)
    etas = np.asarray(grids.get("eta", np.arange(0.5, 4.01, 0.5)), dtype=float)
    n = y.size
    n_tr = int(np.ceil(0.5 * n))
    y_tr, y_val = y[:n_tr], y[n_tr:]
    G_tr, G_val = G[:n_tr], G[n_tr:]

    def weights(Gd, yd, eta):
        ls, *_ = np.linalg.lstsq(Gd, yd, rcond=None)
        w = np.where(ls != 0, np.abs(ls) ** (-eta), ADALASSO_WEIGHT_CAP)
        return np.minimum(w, ADALASSO_WEIGHT_CAP)

    def weighted_fits(Gd, yd, gammas, w):
        # substitute u = w * theta: plain lasso on rescaled columns
        fits = lasso_path(yd, Gd / w[None, :], gammas, sigma2)
        return [fit.theta / w for fit in fits], \
            sum(not fit.converged for fit in fits)

    best = None
    unconverged = 0
    for eta in etas:
        thetas, bad = weighted_fits(G_tr, y_tr, gammas, weights(G_tr, y_tr, eta))
        unconverged += bad
        for gamma, th in zip(gammas, thetas):
            err = np.linalg.norm(y_val - G_val @ th)
            key = (err, gamma, eta)
            if best is None or key < best[0]:
                best = (key, gamma, eta)
    _, gamma, eta = best
    (theta,), bad = weighted_fits(G, y, [gamma], weights(G, y, eta))
    unconverged += bad
    return EstimateResult(theta=theta, selected=list(np.nonzero(theta)[0]),
                          gamma=gamma, converged=unconverged == 0,
                          extra={"eta": eta,
                                 "unconverged_solves": unconverged})
