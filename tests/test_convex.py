"""Convex estimators: Lasso, Group Lasso, kernel-scale problem, AdaLasso."""

import numpy as np
import pytest

from groupsparse import (
    ConvexFitConfig, GroupedDesign, McConfig, estimate_sigma2_ls,
    gen_problem, kkt_residual_mkl, mkl_recover_theta, solve_adalasso,
    solve_glasso, solve_lasso, solve_mkl_lambda,
)
from groupsparse.convex import ADALASSO_WEIGHT_CAP, _adalasso_weights, \
    lasso_path
from groupsparse.experiments import _lasso_grid
from groupsparse.selection import _split

from conftest import mkl_pqn, orthogonal_design, random_grouped


def test_config_validation():
    with pytest.raises(ValueError):
        ConvexFitConfig(reg_param=-1.0)
    with pytest.raises(ValueError):
        ConvexFitConfig(tol=0.0)
    with pytest.raises(ValueError):
        ConvexFitConfig(max_iter=0)


# ------------------------------------------------------------
# lasso
# ------------------------------------------------------------

def test_lasso_orthogonal_soft_threshold(rng):
    """With G^T G = n I the solution is the soft threshold of G^T y / n."""
    des = orthogonal_design(rng, [1] * 6, 40)
    y = rng.standard_normal(40) * 2
    s2, gam = 0.7, 3.0
    fit = solve_lasso(y, des.G, ConvexFitConfig(reg_param=gam), sigma2=s2)
    rho = des.G.T @ y / des.n
    ref = np.sign(rho) * np.maximum(0.0, np.abs(rho) - s2 * gam / des.n)
    assert np.allclose(fit.theta, ref, atol=1e-8)


def test_lasso_zero_threshold_property(rng):
    """reg >= ||G^T y||_inf / sigma2 forces the exact zero solution."""
    for _ in range(10):
        G = rng.standard_normal((15, 8))
        y = rng.standard_normal(15)
        s2 = float(rng.uniform(0.3, 2.0))
        gmax = np.max(np.abs(G.T @ y)) / s2
        fit = solve_lasso(y, G, ConvexFitConfig(reg_param=gmax * 1.000001),
                          sigma2=s2)
        assert np.all(fit.theta == 0.0)


def test_lasso_matches_reference_solver(rng):
    """Cross-check against scipy's bound-constrained optimizer on the
    standard split theta = u - v reformulation."""
    from scipy.optimize import minimize
    G = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    s2, gam = 0.8, 2.0
    fit = solve_lasso(y, G, ConvexFitConfig(reg_param=gam), sigma2=s2)

    def f(z):
        th = z[:6] - z[6:]
        r = y - G @ th
        return r @ r / (2 * s2) + gam * z.sum()

    ref = minimize(f, np.zeros(12), bounds=[(0, None)] * 12,
                   method="L-BFGS-B", options={"maxiter": 2000, "ftol": 1e-14})
    th_ref = ref.x[:6] - ref.x[6:]
    assert np.linalg.norm(fit.theta - th_ref) <= 1e-4 * (1 + np.linalg.norm(th_ref))


def _kkt_violation(y, G, theta, sigma2, gamma):
    """Largest violation of the Lasso optimality conditions, from
    g = G^T (y - G theta) / sigma2: g_j = gamma sign(theta_j) on the
    support, |g_j| <= gamma off it."""
    g = G.T @ (y - G @ theta) / sigma2
    nz = theta != 0
    return max(np.max(np.abs(g[nz] - gamma * np.sign(theta[nz])), initial=0.0),
               np.max(np.abs(g[~nz]) - gamma, initial=0.0))


@pytest.mark.parametrize("experiment,shape", [("exp1", {}),
                                              ("ada", {"n": 60})])
def test_warm_path_satisfies_kkt_at_every_grid_point(experiment, shape,
                                                     monkeypatch):
    """Each point of a warm-started validation path is a KKT point, and
    reports its own residual; every kernel-scale solve of est_mkl's warm
    path and refit passes kkt_residual_mkl."""
    import groupsparse.experiments as ex
    solve = ex.solve_mkl_lambda
    mkl_solves = []

    def recorded(y, des, s2, gam, theta0=None):
        res = solve(y, des, s2, gam, theta0=theta0)
        mkl_solves.append((y, des, s2, gam, res.lam))
        return res

    monkeypatch.setattr(ex, "solve_mkl_lambda", recorded)
    cfg = McConfig(experiment=experiment, runs=1, master_seed=11,
                   estimators=[], **shape)
    for run in range(3):
        design, _, y, _ = gen_problem(cfg, run)
        s2 = estimate_sigma2_ls(y, design.G)
        y_tr, _, d_tr, _ = _split(y, design, 0.5)
        grid = _lasso_grid(y_tr, d_tr.G, s2)
        fits = lasso_path(y_tr, d_tr.G, grid, s2)
        for gamma, fit in zip(grid, fits):
            assert fit.converged and fit.gamma == gamma
            assert _kkt_violation(y_tr, d_tr.G, fit.theta, s2, gamma) \
                <= 1e-8 * gamma
            assert fit.extra["kkt_residual"] <= 1e-8 * gamma
        mkl_solves.clear()
        ex.est_mkl(y, design, s2, {})
        assert len(mkl_solves) == 31
        for y_, d_, s2_, gam, lam in mkl_solves:
            assert kkt_residual_mkl(lam, y_, d_, s2_, gam) \
                <= 1e-8 * (1 + 2 * gam)


def test_lasso_path_certifies_degenerate_designs(rng):
    """The homotopy certifies every positive grid point where ties, rank
    and scale are degenerate: duplicated and sign-flipped columns, m > n
    (the active set stops at rank G), integer designs with m > n and
    many-way ties, and a column shrunk by ADALASSO_WEIGHT_CAP, followed down
    to 1e-12 of the largest penalty, where it has joined (the KKT check
    allows rounding of 1e-14 of the largest correlation there); at
    gamma = 0 with n > m the path ends at least squares."""
    dup = rng.standard_normal((30, 8))
    dup[:, 1] = dup[:, 0]
    dup[:, 5] = -dup[:, 2]
    ints = []
    # seeds chosen for their ties: in the first, eight columns reach the
    # bound together at one breakpoint
    for seed in (218, 504):
        tie_rng = np.random.default_rng(seed)
        G = tie_rng.integers(-2, 3, size=(6, 27)).astype(float)
        y = np.round(G @ np.where(tie_rng.random(27) < 0.3, 3.0
                                  * tie_rng.standard_normal(27), 0.0)
                     + 0.5 * tie_rng.standard_normal(6))
        ints.append((G, y, 1e-4))
    capped = rng.standard_normal((30, 6))
    capped[:, 3] /= ADALASSO_WEIGHT_CAP
    cases = [(dup, dup[:, :4] @ [1.0, -2.0, 0.5, 1.5]
              + 0.3 * rng.standard_normal(30), 1e-4),
             (rng.standard_normal((12, 30)), rng.standard_normal(12), 1e-4),
             *ints,
             (capped, capped @ [1.0, 0.0, -2.0, 3e8, 0.0, 1.0]
              + 0.3 * rng.standard_normal(30), 1e-12)]
    s2 = 0.5
    for G, y, lo in cases:
        gmax = np.max(np.abs(G.T @ y)) / s2
        grid = np.logspace(np.log10(lo * gmax), np.log10(gmax), 30)
        fits = lasso_path(y, G, grid, s2)
        for gamma, fit in zip(grid, fits):
            assert fit.converged and fit.gamma == gamma
            assert _kkt_violation(y, G, fit.theta, s2, gamma) \
                <= 1e-8 * gamma + 1e-14 * gmax
    assert fits[0].theta[3] != 0.0
    G = rng.standard_normal((25, 6))
    y = rng.standard_normal(25)
    fit = solve_lasso(y, G, ConvexFitConfig(reg_param=0.0))
    ls, *_ = np.linalg.lstsq(G, y, rcond=None)
    assert fit.converged and fit.iterations >= G.shape[1] - 1
    assert np.linalg.norm(fit.theta - ls) <= 1e-10 * np.linalg.norm(ls)


# ------------------------------------------------------------
# group lasso
# ------------------------------------------------------------

def test_glasso_equals_lasso_for_singleton_blocks(rng):
    for _ in range(50):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m, m + 12))
        G = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        s2 = float(rng.uniform(0.3, 1.5))
        gam = float(rng.uniform(0.1, 3.0))
        des = GroupedDesign(G, [1] * m)
        gl = solve_glasso(y, des, s2, ConvexFitConfig(reg_param=gam))
        la = solve_lasso(y, G, ConvexFitConfig(reg_param=gam), sigma2=s2)
        assert np.linalg.norm(gl.theta - la.theta) <= 1e-8 * (
            1 + np.linalg.norm(la.theta))


def test_glasso_stops_on_a_kkt_point(rng):
    """Block optimality at the output: G_i^T r / sigma2 equals
    reg theta_i / ||theta_i|| on active blocks, with norm <= reg on the
    others."""
    des = GroupedDesign(rng.standard_normal((40, 12)), [3] * 4)
    y = des.G @ np.repeat([1.0, 0.0, -0.5, 0.1], 3) \
        + 0.5 * rng.standard_normal(40)
    s2 = 0.25
    for reg in (0.5, 5.0, 20.0, 60.0):
        cfg = ConvexFitConfig(reg_param=reg)
        fit = solve_glasso(y, des, s2, cfg)
        assert fit.converged
        # started from its own solution, one sweep certifies it
        warm = solve_glasso(y, des, s2, cfg, theta0=fit.theta)
        assert warm.converged and warm.iterations == 1
        assert np.allclose(warm.theta, fit.theta, rtol=1e-12, atol=0.0)
        g = des.G.T @ (y - des.G @ fit.theta) / s2
        for sl in des.slices:
            nrm = np.linalg.norm(fit.theta[sl])
            if nrm > 0:
                assert np.max(np.abs(g[sl] - reg * fit.theta[sl] / nrm)) \
                    <= 1e-8 * reg
            else:
                assert np.linalg.norm(g[sl]) <= reg * (1 + 1e-8)


def test_glasso_block_zero_condition(rng):
    """A large enough penalty zeroes every block exactly."""
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    s2 = 0.9
    reg = 10.0 * np.linalg.norm(des.G.T @ y) / s2
    fit = solve_glasso(y, des, s2, ConvexFitConfig(reg_param=reg))
    assert np.all(fit.theta == 0.0)
    assert fit.selected == []


def test_glasso_objective_never_increases(rng):
    """Block sweeps are monotone; verify via the reported objective being
    minimal over a perturbation neighborhood."""
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    s2, reg = 0.6, 0.8
    fit = solve_glasso(y, des, s2, ConvexFitConfig(reg_param=reg))

    def obj(th):
        r = y - des.G @ th
        bn = sum(np.linalg.norm(th[s]) for s in des.slices)
        return r @ r / (2 * s2) + reg * bn

    f0 = obj(fit.theta)
    for _ in range(20):
        assert obj(fit.theta + 1e-5 * rng.standard_normal(des.m)) >= f0 - 1e-10


# ------------------------------------------------------------
# kernel-scale problem
# ------------------------------------------------------------

def test_mkl_requires_positive_gamma(rng):
    des = random_grouped(rng)
    with pytest.raises(ValueError, match="positive gamma"):
        solve_mkl_lambda(rng.standard_normal(des.n), des, 1.0, 0.0)


def test_mkl_kkt_certificate(rng):
    for _ in range(30):
        des = random_grouped(rng)
        y = rng.standard_normal(des.n) * 2
        s2 = float(rng.uniform(0.2, 2.0))
        gam = float(rng.uniform(0.05, 3.0))
        res = solve_mkl_lambda(y, des, s2, gam)
        assert res.converged
        assert kkt_residual_mkl(res.lam, y, des, s2, gam) <= 1e-6 * (1 + 2 * gam)


def test_mkl_glasso_equivalence(rng):
    """Recovered theta equals Group Lasso with reg = sqrt(2 gamma)."""
    worst = 0.0
    for trial in range(50):
        p = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 5)) for _ in range(p)]
        m = sum(sizes)
        n = int(rng.integers(max(2, m // 2), min(2 * m + 4, 21)))
        G = rng.standard_normal((n, m))
        if trial % 3 == 0:  # correlated columns stress the solvers
            G[:, 1:min(3, m)] += G[:, [0]]
        des = GroupedDesign(G, sizes)
        th = rng.standard_normal(m) * rng.integers(0, 2, m)
        s2 = float(rng.uniform(0.2, 2.0))
        y = G @ th + np.sqrt(s2) * rng.standard_normal(n)
        gam = float(rng.uniform(0.05, 3.0))
        mth = mkl_recover_theta(mkl_pqn(y, des, s2, gam), y, des, s2).theta
        gth = solve_glasso(y, des, s2,
                           ConvexFitConfig(reg_param=np.sqrt(2 * gam))).theta
        rel = np.linalg.norm(mth - gth) / max(np.linalg.norm(gth), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_mkl_recover_theta_accepts_array_or_result(rng):
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    res = solve_mkl_lambda(y, des, 1.0, 0.5)
    a = mkl_recover_theta(res, y, des, 1.0)
    b = mkl_recover_theta(res.lam, y, des, 1.0)
    assert np.array_equal(a.theta, b.theta)
    assert a.selected == [i for i in range(des.p) if res.lam[i] > 0]


# ------------------------------------------------------------
# adalasso
# ------------------------------------------------------------

def test_adalasso_weights_reciprocal(rng):
    """eta=1 weights are 1/|theta_ls|; check through a transparent fit."""
    n = 60
    G = np.kron(np.ones((n // 2, 1)), np.eye(2))
    y = G @ np.array([2.0, 0.5]) + 0.01 * rng.standard_normal(n)
    fit = solve_adalasso(y, G, 0.01, {"gamma": np.array([1e-6]),
                                      "eta": np.array([1.0])})
    assert np.allclose(fit.theta, [2.0, 0.5], atol=0.05)
    assert fit.extra["eta"] == 1.0


def test_adalasso_one_row_cannot_be_split():
    """solve_adalasso validates on the second half of the rows (_split's
    split); one row leaves no validation half."""
    with pytest.raises(ValueError, match="degenerate split"):
        solve_adalasso(np.array([3.0]), np.array([[1.0, 2.0]]), 1.0,
                       {"gamma": np.array([1.0])})


def test_adalasso_prunes_null_variables(rng):
    n, m = 80, 6
    G = rng.standard_normal((n, m))
    theta = np.array([3.0, 0.0, 2.0, 0.0, 0.0, 1.5])
    y = G @ theta + 0.3 * rng.standard_normal(n)
    grid = np.logspace(-2, 2, 15)
    fit = solve_adalasso(y, G, 0.09, {"gamma": grid})
    assert set(np.nonzero(np.abs(fit.theta) > 1e-8)[0]) <= {0, 2, 5, 1, 3, 4}
    # the three real coefficients survive
    assert all(abs(fit.theta[j]) > 0.5 for j in (0, 2, 5))


def test_adalasso_converges_on_exp2():
    """Correlated exp2 designs, where the weighted Gram matrix on the
    support is ill-conditioned: every adaptive-Lasso solve is certified
    and the estimate satisfies the KKT conditions of its weighted
    problem."""
    from groupsparse.experiments import est_adalasso
    cfg = McConfig(experiment="exp2", runs=1, master_seed=0, estimators=[])
    for run in range(5):
        design, _, y, _ = gen_problem(cfg, run)
        s2 = estimate_sigma2_ls(y, design.G)
        fit = est_adalasso(y, design, s2, {})
        assert fit.converged and fit.extra["unconverged_solves"] == 0
        w = _adalasso_weights(design.G, y, fit.extra["eta"])
        assert _kkt_violation(y, design.G / w, w * fit.theta, s2,
                              fit.gamma) <= 1e-8 * fit.gamma
