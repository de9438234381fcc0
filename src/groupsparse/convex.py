"""Convex estimators: Lasso, Group Lasso, the kernel-scale problem, AdaLasso.

The kernel-scale (MKL-style) problem minimizes
    y^T (K(lambda) + sigma2 I)^{-1} y / 2 + gamma sum_i lambda_i
over lambda >= 0 with K^(i) = G^(i) G^(i)^T.  It is Group Lasso in another
parametrization: with theta the Group Lasso solution at regularization
sqrt(2 gamma), lambda_i = ||theta^(i)|| / sqrt(2 gamma) is its minimizer and
theta is the posterior mean at those scales (Bach, JMLR 2008).  So one
block coordinate descent solver (solve_glasso) serves both.  The Lasso and
the adaptive Lasso are solved exactly, by one homotopy pass over the
penalty (lasso_path).
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg.lapack import dpotrf, dpotrs

from .model import EstimateResult, HyperState, MarginalFactor, \
    posterior_mean


@dataclass
class ConvexFitConfig:
    reg_param: float = 0.0
    # max_iter and tol bound the Group Lasso sweeps (solve_glasso) only;
    # the Lasso is an exact homotopy (lasso_path) and ignores them
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

# Lasso path events less than _TIE * mu apart in mu happen together
_TIE = 1e-12


def _lasso_objective(y, G, theta, sigma2, gamma):
    r = y - G @ theta
    return (r @ r) / (2.0 * sigma2) + gamma * np.sum(np.abs(theta))


def solve_lasso(y, G, config, sigma2=1.0):
    """L1-penalized least squares at the single penalty config.reg_param.

    Minimizes (y - G theta)^T (y - G theta) / (2 sigma2) + reg ||theta||_1
    exactly: lasso_path walked from ||G^T y||_inf down to mu = sigma2 reg
    (config.max_iter and config.tol do not apply).  iterations is the
    number of breakpoints walked and extra["kkt_residual"] the largest
    violation of the optimality conditions, in units of reg.
    """
    return lasso_path(y, G, [config.reg_param], sigma2)[0]


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


def _lasso_point(y, G, H, b, theta, gamma, sigma2, breakpoints):
    """One grid point of lasso_path: theta read off the path, finished by
    _support_certificate.  converged is true only if the certificate held;
    otherwise theta is the read-off point."""
    cert = _support_certificate(H, b, theta, sigma2 * gamma)
    if cert is not None:
        theta = cert
    g = (b - H @ theta) / sigma2
    viol = np.where(theta != 0, np.abs(g - gamma * np.sign(theta)),
                    np.maximum(0.0, np.abs(g) - gamma))
    return EstimateResult(theta=theta, selected=list(np.nonzero(theta)[0]),
                          gamma=gamma, converged=cert is not None,
                          iterations=breakpoints,
                          objective=_lasso_objective(y, G, theta, sigma2,
                                                     gamma),
                          extra={"kkt_residual": float(np.max(viol,
                                                              initial=0.0))})


def _spd_solve(M, r):
    """M^{-1} r for symmetric positive definite M, or None when M is
    numerically singular (a pivot below 1e-12 of its diagonal entry: a
    column in the span of the others)."""
    if not r.size:
        return r
    # LAPACK directly: on these small systems the checks of the
    # scipy.linalg wrappers cost more than the factorization
    L, info = dpotrf(M, lower=1, clean=0)
    if info != 0 or np.any(np.diag(L) ** 2 <= 1e-12 * np.diag(M)):
        return None
    return dpotrs(L, r, lower=1)[0]


def _path_slope(HE, s, zero, held):
    """Slope of the Lasso path just below a breakpoint.

    HE is H restricted to E, the coordinates whose correlation is at the
    bound, s their signs, and zero marks those of them that are zero at
    the breakpoint.  The slope d (theta_E moves by delta d as mu falls by
    delta) minimizes d^T HE d / 2 - s^T d subject to s_j d_j >= 0 where
    zero holds: the coordinates that move keep their correlations at the
    bound and the ones held at zero see theirs fall at least as fast as
    mu, which settles ties and simultaneous joins and drops (Efron et al.,
    Ann. Stat. 2004).  Primal active-set method from d = 0, with the zero
    coordinates in held (those that just dropped) held at first.  A zero
    coordinate whose column lies in the span of the moving ones (more
    than rank G of them) stays held.  Returns d, or None when the nonzero
    coordinates alone are singular.
    """
    held = held.copy()
    barred = np.zeros_like(zero)
    d = np.zeros(s.size)
    freed = None
    while True:
        free = ~held
        target = np.zeros(s.size)
        sol = _spd_solve(HE[free][:, free], s[free])
        if sol is None:
            if freed is not None:
                held[freed] = barred[freed] = True
            elif np.any(free & zero):
                held |= zero  # free them one at a time instead
            else:
                return None
            freed = None
            continue
        target[free] = sol
        # step towards target, stopped where a free zero coordinate would
        # take the wrong sign; that coordinate is held again
        cross = np.flatnonzero(free & zero & (s * target < 0))
        if cross.size:
            sd, st = s[cross] * d[cross], s[cross] * target[cross]
            ratio = sd / (sd - st)
            k = np.argmin(ratio)
            d += ratio[k] * (target - d)
            d[cross[k]] = 0.0
            held[cross[k]] = True
            continue
        d = target
        if not held.any():
            return d
        mult = np.where(held & ~barred, s * (HE @ d) - 1.0, np.inf)
        j = np.argmin(mult)
        if mult[j] >= -1e-10:
            return d
        held[j] = False
        freed = j


def lasso_path(y, G, gammas, sigma2=1.0):
    """Exact Lasso solutions at every penalty in gammas, fits in the order
    given, by one homotopy pass (Osborne, Presnell & Turlach, IMA J.
    Numer. Anal. 2000; LARS-Lasso, Efron et al. 2004).

    With H = G^T G, b = G^T y and mu = sigma2 gamma the solution is
    piecewise linear in mu.  The walk starts at theta = 0 at mu_max =
    ||b||_inf and keeps the active set A and signs s, so that on a segment
    theta_A(mu) = H_AA^{-1} (b_A - mu s); the next breakpoint is the
    largest mu below the current one at which an inactive correlation
    c_j = b_j - H_j theta reaches +-mu (a join) or an active coefficient
    reaches 0 (a drop).  Events within _TIE mu of each other are taken
    together, and the slope below a breakpoint comes from _path_slope,
    which also keeps the active set within rank G when m > n.  Events
    below _TIE mu_max are rounding: the last segment runs on to mu = 0,
    where it ends at least squares when n > m.  Each grid point is read
    off its segment and finished by _support_certificate (_lasso_point),
    so converged is true only where that certificate holds; iterations
    counts the breakpoints walked to reach the point.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    gammas = np.asarray(gammas, dtype=float)
    H = G.T @ G
    b = G.T @ y
    m = b.size
    mus = sigma2 * gammas
    todo = list(np.argsort(mus, kind="stable"))  # next grid point last
    fits = [None] * gammas.size
    theta = np.zeros(m)
    mu = mu_max = np.max(np.abs(b), initial=0.0)
    at_bound = np.zeros(m, dtype=bool)
    dropped = np.zeros(m, dtype=bool)
    breaks = 0

    def read_off(stop, A, dA):
        while todo and mus[todo[-1]] >= stop:
            i = todo.pop()
            th = theta.copy()
            th[A] += (mu - mus[i]) * dA
            fits[i] = _lasso_point(y, G, H, b, th, gammas[i], sigma2, breaks)

    no_move = np.zeros(0, dtype=int)
    read_off(mu, no_move, 0.0)  # above mu_max theta = 0
    while todo:
        c = b - H @ theta
        # every correlation at the bound, so that ties are settled together
        at_bound |= np.abs(c) >= mu * (1.0 - _TIE)
        E = np.flatnonzero(at_bound)
        zero = theta[E] == 0
        s = np.sign(np.where(zero, c[E], theta[E]))
        d = _path_slope(H[E][:, E], s, zero, dropped[E])
        if d is None:  # no slope: certify the rest at this breakpoint
            read_off(-np.inf, no_move, 0.0)
            break
        # a zero coordinate moves only if it leaves zero faster than
        # rounding: a tie settled at d_j = 0 comes out as d_j ~ 1e-17
        moving = ~zero | (s * d > _TIE * np.max(np.abs(d), initial=0.0))
        A, dA = E[moving], d[moving]
        # drops: active coefficients heading for zero
        to_drop = np.divide(-theta[A], dA, out=np.full(A.size, np.inf),
                            where=theta[A] * dA < 0)
        # joins: c_j falls by delta e_j while the bound falls by delta
        e = H[:, A] @ dA
        up = np.divide(np.maximum(mu - c, 0.0), 1.0 - e,
                       out=np.full(m, np.inf), where=e < 1.0)
        down = np.divide(np.maximum(mu + c, 0.0), 1.0 + e,
                         out=np.full(m, np.inf), where=e > -1.0)
        # coordinates held at the bound leave it inwards (_path_slope) but
        # may still cross to the opposite bound
        held, s_held = E[~moving], s[~moving]
        up[held[s_held > 0]] = np.inf
        down[held[s_held < 0]] = np.inf
        to_join = np.minimum(up, down)
        to_join[A] = np.inf
        delta = min(np.min(to_drop, initial=np.inf), np.min(to_join))
        if mu - delta <= _TIE * mu_max:
            delta = np.inf  # events this close to mu = 0 are rounding
        read_off(mu - delta, A, dA)
        if not todo:
            break
        theta[A] += delta * dA
        window = delta + _TIE * mu
        dropped[:] = False
        dropped[A[to_drop <= window]] = True
        theta[dropped] = 0.0
        at_bound = to_join <= window
        at_bound[A] = True
        mu -= delta
        breaks += 1
    return fits


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


def _adalasso_weights(G, y, eta):
    """Adaptive Lasso weights |theta_ls_j|^(-eta) from the least-squares
    fit of y on G, capped at ADALASSO_WEIGHT_CAP."""
    ls, *_ = np.linalg.lstsq(G, y, rcond=None)
    w = np.where(ls != 0, np.abs(ls) ** (-eta), ADALASSO_WEIGHT_CAP)
    return np.minimum(w, ADALASSO_WEIGHT_CAP)


def solve_adalasso(y, G, sigma2, grids):
    """Adaptive Lasso with two-dimensional validation over (gamma, eta).

    grids: mapping with "gamma" (1-D array of penalties) and "eta" (1-D
    array of weight exponents, default 0.5..4 step 0.5).  Weights are
    |theta_ls_j|^(-eta), capped when the LS coefficient vanishes.  Each pair
    is scored by prediction error on the second half of the data after
    fitting on the first half; the winner (ties: smaller gamma, then eta)
    is refit on the full data.  For each eta the gamma grid is read off
    one exact homotopy pass (lasso_path) on the rescaled columns, and the
    refit is that path run down to the chosen gamma; a capped weight only
    shrinks its column, which then joins the path last, if at all.
    converged is true only if every grid point and the refit passed the
    KKT certificate, and extra["unconverged_solves"] counts those that did
    not.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    gammas = np.asarray(grids["gamma"], dtype=float)
    etas = np.asarray(grids.get("eta", np.arange(0.5, 4.01, 0.5)), dtype=float)
    n = y.size
    n_tr = int(np.ceil(0.5 * n))
    y_tr, y_val = y[:n_tr], y[n_tr:]
    G_tr, G_val = G[:n_tr], G[n_tr:]

    def weighted_fits(Gd, yd, gammas, eta):
        # substitute u = w * theta: plain lasso on rescaled columns
        w = _adalasso_weights(Gd, yd, eta)
        fits = lasso_path(yd, Gd / w[None, :], gammas, sigma2)
        return [fit.theta / w for fit in fits], \
            sum(not fit.converged for fit in fits)

    best = None
    unconverged = 0
    for eta in etas:
        thetas, bad = weighted_fits(G_tr, y_tr, gammas, eta)
        unconverged += bad
        for gamma, th in zip(gammas, thetas):
            err = np.linalg.norm(y_val - G_val @ th)
            key = (err, gamma, eta)
            if best is None or key < best[0]:
                best = (key, gamma, eta)
    _, gamma, eta = best
    (theta,), bad = weighted_fits(G, y, [gamma], eta)
    unconverged += bad
    return EstimateResult(theta=theta, selected=list(np.nonzero(theta)[0]),
                          gamma=gamma, converged=unconverged == 0,
                          extra={"eta": eta,
                                 "unconverged_solves": unconverged})
