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


def mkl_pqn(y, des, s2, gam, config=None):
    """Kernel scales by projected quasi-Newton on the convex objective
    y^T (K(lam) + s2 I)^{-1} y / 2 + gam sum(lam), from zero: an MKL
    solver independent of Group Lasso, kept as the reference.  Returns a
    PqnResult (.lam)."""
    from groupsparse import MarginalFactor, PqnConfig, minimize_pqn
    y = np.asarray(y, dtype=float)

    def fun_grad(lam):
        fac = MarginalFactor(des, lam, s2)
        return (0.5 * fac.quad(y) + gam * lam.sum(),
                -0.5 * fac.block_scores(y) + gam)

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
    S = (des.G * des.expand(lam)) @ des.G.T
    S[np.diag_indices_from(S)] += s2
    return 0.5 * (S + S.T)


def mkl_recover_theta(lam, y, des, s2):
    """Coefficients from kernel scales (an array or a result with .lam):
    theta^(i) = lam_i G^(i)T c with c = (K(lam) + s2 I)^{-1} y, which is
    the posterior mean; returns an EstimateResult."""
    from groupsparse import EstimateResult, posterior_mean
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
