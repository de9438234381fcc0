import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_grouped(rng, p_max=5, k_max=4, n_extra=10):
    """A random design with a few blocks; n can be below or above m."""
    from groupsparse import GroupedDesign
    p = int(rng.integers(1, p_max + 1))
    sizes = [int(rng.integers(1, k_max + 1)) for _ in range(p)]
    m = sum(sizes)
    n = int(rng.integers(max(2, m // 2), m + n_extra))
    G = rng.standard_normal((n, m))
    return GroupedDesign(G, sizes)


def sigma2_reference(y, G):
    """selection.estimate_sigma2_ls as it was before its gelsy kernel: the
    residual variance ||y - G t||^2 / (n - m) with t from np.linalg.lstsq
    (an SVD, rcond=None).  The reference the kernel is pinned to."""
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n, m = G.shape
    t, *_ = np.linalg.lstsq(G, y, rcond=None)
    r = y - G @ t
    return float(r @ r) / (n - m)


def kappa_reference(y_tr, design_tr, sigma2):
    """selection.estimate_kappa as it was before its profile scan: bounded
    scalar minimization (scipy.optimize.minimize_scalar) on log kappa over
    [1e-8, 1e8] ||y_tr||^2 / n_tr, then Newton polish steps on the exact
    1-D derivative until one moves kappa by at most 1e-12 max(1, kappa),
    and kappa = 0 where f(0) is no larger.  The reference the scan is
    pinned to."""
    from scipy.optimize import minimize_scalar
    y = np.asarray(y_tr, dtype=float)
    if not np.any(y):
        return 0.0
    scale = float(y @ y) / design_tr.n
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
    for _ in range(50):
        g = df(k)
        den = k * w + sigma2
        h = (-0.5 * np.sum(w * w / (den * den))
             + np.sum(w * w * yt2 / (den * den * den)))
        if h <= 0:
            break
        k_new = k - g / h
        if k_new <= 0:
            k_new = 0.5 * k
        if abs(k_new - k) <= 1e-12 * max(1.0, k):
            k = k_new
            break
        k = k_new
    if f(0.0) <= f(k):
        return 0.0
    return k


def kkt_residual_hgl(lam, y, design, sigma2, gamma):
    """Max violation of the first-order conditions of solve_hgl_pqn's
    objective at lambda, from a MarginalFactor built there: with e = 2 grad
    of neg_log_marginal, e_i = tr(G^(i)T W G^(i)) - ||G^(i)T W y||^2 +
    2 gamma, active coordinates must have e_i = 0 and zero ones e_i >= 0."""
    from groupsparse.model import MarginalFactor, kkt_violation_hgl
    fac = MarginalFactor(design, lam, sigma2, y)
    return kkt_violation_hgl(fac.lam, 2.0 * fac.neg_log_marginal(gamma)[1])


def lambda_opt(theta_true_block, k):
    """MSE-optimal per-block scale ||theta_true^(i)||^2 / k_i."""
    t = np.asarray(theta_true_block, dtype=float)
    return float(t @ t) / k


def mkl_pqn(y, des, s2, gam, config=None):
    """Kernel scales by projected quasi-Newton on the convex objective
    y^T (K(lam) + s2 I)^{-1} y / 2 + gam sum(lam), from zero: an MKL
    solver independent of Group Lasso, kept as the reference.  Returns a
    PqnResult (.lam)."""
    from groupsparse.model import MarginalFactor
    from groupsparse.pqn import PqnConfig, minimize_pqn
    y = np.asarray(y, dtype=float)

    def fun_grad(lam):
        fac = MarginalFactor(des, lam, s2, y)
        return (0.5 * fac.quad() + gam * lam.sum(),
                -0.5 * fac.block_scores() + gam)

    return minimize_pqn(fun_grad, np.zeros(des.p),
                        config or PqnConfig(grad_tol=1e-10, max_iter=2000))


def lasso_on_support(y, G, theta, s2, gamma):
    """The exact Lasso solution with theta's support A and signs s held,
    theta_A = (G_A^T G_A)^{-1} (G_A^T y - s2 gamma s) by np.linalg.solve
    and zero off A: a reference for lasso_path's grid points that shares
    no code with it."""
    A = np.flatnonzero(theta)
    ref = np.zeros(theta.size)
    if A.size:
        GA = G[:, A]
        ref[A] = np.linalg.solve(GA.T @ GA, GA.T @ y
                                 - s2 * gamma * np.sign(theta[A]))
    return ref


def assemble_sigma_y(des, lam, s2):
    """Dense output covariance s2 I + sum_i lam_i G^(i) G^(i)^T, the
    reference for MarginalFactor's two routes."""
    S = (des.G * lam[des.owner]) @ des.G.T
    S[np.diag_indices_from(S)] += s2
    return 0.5 * (S + S.T)


def gtwg_reference(fac):
    """MarginalFactor.gtwg by its two-solve formulas, the reference the
    one-solve kernel is pinned to: on the low-rank route (G^T G - A M^{-1}
    A^T) / sigma2, A = G^T Gt, by one dpotrs and a product; on the dense
    route X^T X, X = L^{-1} G by a left-sided dtrtrs.  Cached like gtwg."""
    from scipy.linalg.lapack import dpotrs, dtrtrs
    if fac._gtwg is None:
        if fac.lowrank:
            fac._gtwg = (fac.design.gram() - fac._A @ dpotrs(
                fac._L, fac._A.T, lower=1)[0]) / fac.sigma2
        else:
            X = dtrtrs(fac._L, fac.design.G, lower=1)[0]
            fac._gtwg = X.T @ X
    return fac._gtwg


def mkl_recover_theta(lam, y, des, s2):
    """Coefficients from kernel scales (an array or a result with .lam):
    theta^(i) = lam_i G^(i)T c with c = (K(lam) + s2 I)^{-1} y, which is
    the posterior mean; returns an EstimateResult."""
    from groupsparse.model import EstimateResult, posterior_mean
    lam = np.asarray(getattr(lam, "lam", lam), dtype=float)
    return EstimateResult(theta=posterior_mean(des, lam, s2, y), lam=lam,
                          selected=[i for i in range(des.p) if lam[i] > 0])


def orthogonal_design(rng, sizes, n):
    """Design with G^T G = n I built from a random orthonormal basis."""
    from groupsparse import GroupedDesign
    m = sum(sizes)
    assert n >= m
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return GroupedDesign(Q * np.sqrt(n), list(sizes))


def _exact_block_min(s, Q, q, a):
    """argmin_x x^T H x / 2 - q^T x + a ||x|| for H = Q diag(s) Q^T >= 0
    and a > 0: zero if ||q|| <= a, else x = Q (c / (s + a / t)), c = Q^T q,
    with t = ||x|| the root of sum_k c_k^2 / (s_k t + a)^2 = 1, which is
    decreasing in t and bracketed by (||q|| - a) / max s below."""
    from scipy.optimize import brentq
    qn = np.linalg.norm(q)
    if qn <= a:
        return np.zeros_like(q)
    c = Q.T @ q

    def phi(t):
        return np.sum((c / (s * t + a)) ** 2) - 1.0

    lo = hi = (qn - a) / np.max(s)
    while phi(hi) > 0:
        hi *= 2.0
    t = brentq(phi, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps) \
        if hi > lo else lo
    return Q @ (c / (s + a / t))


def cold_cd_glasso(y, des, s2, reg, tol=1e-15, max_sweeps=200000):
    """Group Lasso at penalty reg by cyclic block coordinate descent from
    theta = 0, each block set to its exact minimizer with the others held
    fixed (_exact_block_min), until a sweep moves theta by at most
    tol ||theta||: a solver that shares no code with the path (no warm
    starts, active sets or Newton steps), kept as its reference."""
    y = np.asarray(y, dtype=float)
    H, b, a = des.G.T @ des.G, des.G.T @ y, s2 * reg
    eigs = [np.linalg.eigh(H[sl, sl]) for sl in des.slices]
    theta = np.zeros(des.m)
    for _ in range(max_sweeps):
        old = theta.copy()
        for (s, Q), sl in zip(eigs, des.slices):
            q = b[sl] - H[sl] @ theta + H[sl, sl] @ theta[sl]
            theta[sl] = _exact_block_min(np.maximum(s, 0.0), Q, q, a)
        if np.linalg.norm(theta - old) <= tol * np.linalg.norm(theta):
            break
    return theta


def newton_reference(H_AA, b_A, x, blk, a):
    """Newton's method on H_AA x - b_A + a x_i / ||x_i|| = 0 as
    convex._newton takes it, with the Jacobian H_AA + a (I - u_i u_i^T) /
    ||x_i|| assembled from np.eye and np.outer on a same-block mask and
    solved by LU (np.linalg.solve): the reference for the Cholesky step.
    Same returns (x, steps, turned) and the same stopping rules."""
    from groupsparse.convex import _NEWTON_STEPS
    nb = blk[-1] + 1
    same = blk[:, None] == blk[None, :]
    eye = np.eye(x.size)
    for it in range(1, _NEWTON_STEPS + 1):
        nrm = np.sqrt(np.bincount(blk, x * x, minlength=nb))
        if np.any(nrm == 0.0):
            return None, it, None
        u = x / nrm[blk]
        F = H_AA @ x - b_A + a * u
        J = H_AA + same * ((a / nrm[blk])[:, None] * (eye - np.outer(u, u)))
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None, it, None
        x_new = x - step
        turned = np.bincount(blk, x_new * x, minlength=nb) <= 0.0
        if turned.any():
            return x, it, turned
        x = x_new
        if np.max(np.abs(step)) <= 1e-10 * np.max(np.abs(x)):
            return x, it, None
    return None, _NEWTON_STEPS, None


class _ActiveSetReference:
    """The active set of lasso_path_reference, as convex._ActiveSet but
    with L in a C-order buffer and the plain certificate: A, s_A,
    theta_A, the rows H[A, :] and the lower Cholesky factor L of H_AA in
    buffers sized for every column."""

    def __init__(self, H):
        m = H.shape[0]
        self.H, self.factorizations = H, 0
        self.idx = np.zeros(m, dtype=np.intp)
        self.s, self.th = np.zeros(m), np.zeros(m)
        self.rows, self.L = np.zeros((m, m)), np.zeros((m, m))
        self._resize(0)

    def _resize(self, k):
        self.k = k
        self.A, self.sA, self.thA = self.idx[:k], self.s[:k], self.th[:k]
        self.HA = self.rows[:k]

    def _solve(self, r):
        from scipy.linalg.lapack import dpotrs
        return dpotrs(self.L[:self.k, :self.k], r, lower=1)[0] \
            if self.k else r

    def _factor(self):
        from groupsparse.convex import _cholesky
        if not self.k:
            return True
        self.factorizations += 1
        L = _cholesky(self.HA[:, self.A])
        if L is None:
            return False
        self.L[:self.k, :self.k] = L
        return True

    def reset(self, A, s, th):
        self._resize(A.size)
        self.A[:], self.sA[:], self.thA[:] = A, s, th
        self.HA[:] = self.H[A]
        return self._factor()

    def append(self, j, s_j):
        from scipy.linalg.lapack import dtrtrs
        from groupsparse.convex import _PIVOT
        k, h = self.k, self.H[j]
        self.factorizations += 1
        pivot = h[j]
        if k:
            w = dtrtrs(self.L[:k, :k], h[self.A], lower=1)[0]
            pivot -= w @ w
            self.L[k, :k] = w
        if not pivot > _PIVOT * h[j]:
            return False
        self.L[k, k] = np.sqrt(pivot)
        self.idx[k], self.s[k], self.th[k] = j, s_j, 0.0
        self.rows[k] = h
        self._resize(k + 1)
        return True

    def pop(self):
        self._resize(self.k - 1)

    def remove(self, p):
        k = self.k
        for buf in (self.idx, self.s, self.th, self.rows):
            buf[p:k - 1] = buf[p + 1:k]
        self._resize(k - 1)
        return self._factor()

    def slope(self):
        return self._solve(self.sA)

    def points(self, b, mus, slack):
        thA = self._solve(b[self.A, None] - self.sA[:, None] * mus).T
        off = np.abs(b - thA @ self.HA) > (mus * (1 + 1e-9) + slack)[:, None]
        off[:, self.A] = False
        return thA, ~off.any(axis=1) & np.all(np.sign(thA) == self.sA, axis=1)


def _settle_reference(act, c, E, theta, dropped):
    from groupsparse.convex import _TIE, _path_slope
    zero = theta[E] == 0
    s = np.sign(np.where(zero, c[E], theta[E]))
    d = _path_slope(act.H[np.ix_(E, E)], s, zero, np.isin(E, dropped))
    if d is None:
        return None
    moving = ~zero | (s * d > _TIE * np.max(np.abs(d), initial=0.0))
    if not act.reset(E[moving], s[moving], theta[E[moving]]):
        return None
    return E[~moving], s[~moving]


def lasso_path_reference(H, b, gammas, sigma2=1.0):
    """convex.lasso_path written plainly: one divide per bound (up and
    down), the grid points in a popped list, np.ix_ indexing and plain
    reductions.  It shares _path_slope and _cholesky with lasso_path and
    is the reference for its theta, converged and work, which must agree
    bit for bit.  Returns a PenaltyPath."""
    from groupsparse.convex import _TIE, PenaltyPath
    gammas = np.asarray(gammas, dtype=float)
    m = b.size
    mus = sigma2 * gammas
    if not np.isfinite(mus).all():
        raise ValueError("every penalty sigma2 gamma must be finite")
    todo = list(np.argsort(mus, kind="stable"))  # next grid point last
    theta = np.zeros((gammas.size, m))
    converged = np.zeros(gammas.size, dtype=bool)
    mu = mu_max = np.max(np.abs(b), initial=0.0)
    act = _ActiveSetReference(H)
    breaks = 0
    inf = np.full(m, np.inf)

    def read_off(stop):
        take = []
        while todo and mus[todo[-1]] >= stop:
            take.append(todo.pop())
        if take:
            theta[np.ix_(take, act.A)], converged[take] = act.points(
                b, mus[take], 1e-14 * mu_max)

    read_off(mu)
    c = b
    joins = np.zeros(m, dtype=bool)
    drops = np.zeros(0, dtype=np.intp)
    while todo:
        joins |= np.abs(c) >= mu * (1.0 - _TIE)
        joins[act.A] = False
        J = joins.nonzero()[0]
        d = e = None
        held = s_held = np.zeros(0, dtype=np.intp)
        A, thA, dropped = act.A, act.thA, act.A[drops]
        if J.size == 1 and not drops.size:
            if act.append(J[0], np.sign(c[J[0]])):
                d = act.slope()
                if act.sA[-1] * d[-1] <= _TIE * np.abs(d).max():
                    act.pop()
                    d = None
        elif drops.size == 1 and not J.size:
            A, thA = A.copy(), thA.copy()
            if act.remove(drops[0]):
                d = act.slope()
                e = d @ act.HA
                held, s_held = dropped, np.sign(c[dropped])
                if s_held[0] * e[held[0]] < 1.0 - 1e-10:
                    d = None
        if d is None:
            th = np.zeros(m)
            th[A] = thA
            E = np.union1d(A, J)
            settled = _settle_reference(act, c, E, th, dropped)
            if settled is None:
                theta[todo] = th
                break
            held, s_held = settled
            d, e = act.slope(), None
        if e is None:
            e = d @ act.HA
        A, thA = act.A, act.thA
        to_drop = np.divide(-thA, d, out=inf[:A.size].copy(),
                            where=thA * d < 0)
        up = np.divide(np.maximum(mu - c, 0.0), 1.0 - e, out=inf.copy(),
                       where=e < 1.0)
        down = np.divide(np.maximum(mu + c, 0.0), 1.0 + e, out=inf.copy(),
                         where=e > -1.0)
        if held.size:
            up[held[s_held > 0]] = np.inf
            down[held[s_held < 0]] = np.inf
        to_join = np.minimum(up, down)
        to_join[A] = np.inf
        delta = min(to_drop.min(initial=np.inf), to_join.min())
        if mu - delta <= _TIE * mu_max and mus[todo[0]] <= 0:
            delta = np.inf
        read_off(mu - delta)
        if not todo:
            break
        thA += delta * d
        window = delta + _TIE * mu
        drops = (to_drop <= window).nonzero()[0]
        thA[drops] = 0.0
        joins = to_join <= window
        mu -= delta
        breaks += 1
        c = b - thA @ act.HA
    return PenaltyPath(theta, converged, {
        "breakpoints": breaks, "factorizations": act.factorizations})


def adalasso_reference(y, G, sigma2, grids):
    """The adaptive Lasso as one function, as it was before the estimator
    layer took over its validation: split, scoring, tie rule (the least
    error, then gamma, then eta), full-data refit and work totals.  It is
    the reference for experiments.est_adalasso, which must agree bit for
    bit.  grids holds "gamma" and optionally "eta" (default 0.5..4 step
    0.5).  Returns an EstimateResult."""
    from groupsparse import GroupedDesign
    from groupsparse.model import EstimateResult
    from groupsparse.convex import _adalasso_weights, lasso_path
    from groupsparse.selection import _split
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    gammas = np.asarray(grids["gamma"], dtype=float)
    etas = np.asarray(grids.get("eta", np.arange(0.5, 4.01, 0.5)), dtype=float)
    y_tr, y_val, d_tr, d_val = _split(y, GroupedDesign(G, [1] * G.shape[1]))
    paths = []

    def weighted(Gd, yd, gammas, etas):
        H, b = Gd.T @ Gd, Gd.T @ yd
        ls = np.linalg.lstsq(Gd, yd, rcond=None)[0]
        for eta in etas:
            w = _adalasso_weights(ls, eta)
            paths.append(lasso_path(H / np.outer(w, w), b / w, gammas,
                                    sigma2))
            yield from paths[-1].theta / w

    thetas = np.array(list(weighted(d_tr.G, y_tr, gammas, etas)))
    errs = np.linalg.norm(y_val[:, None] - d_val.G @ thetas.T, axis=0)
    eta_of, gamma_of = np.repeat(etas, gammas.size), np.tile(gammas, etas.size)
    best = np.lexsort((eta_of, gamma_of, errs))[0]
    gamma, eta = gamma_of[best], eta_of[best]
    theta, = weighted(G, y, [gamma], [eta])
    unconverged = sum(int(np.count_nonzero(~p.converged)) for p in paths)
    return EstimateResult(theta=theta, selected=list(np.nonzero(theta)[0]),
                          gamma=gamma, converged=unconverged == 0,
                          extra={"eta": eta, "unconverged_solves": unconverged,
                                 **{k: sum(p.work[k] for p in paths) for k in
                                    ("breakpoints", "factorizations")}})
