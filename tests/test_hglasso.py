"""Empirical-Bayes machinery: PQN solve, KKT residuals, orthogonal closed
forms, zero probabilities, two-group example, weighted MSE diagnostic."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from groupsparse import (
    GroupedDesign, MarginalFactor, PqnConfig, ZeroProbQuery,
    closed_form_lambda_mkl_orth, closed_form_lambda_orth, diagonalize_block,
    kkt_residual_hgl, lambda_opt, mse_of_lambda,
    prob_lambda_zero, solve_hgl_pqn, solve_mkl_lambda,
    two_group_thresholds, weighted_mse_profile,
)

from conftest import mkl_pqn, orthogonal_design, random_grouped


# ------------------------------------------------------------
# solver vs closed forms
# ------------------------------------------------------------

def _closed_form_vec(des, y, s2, gam):
    tls = des.G.T @ y / des.n
    return np.array([closed_form_lambda_orth(tls[s], s.stop - s.start,
                                             des.n, s2, gam)
                     for s in des.slices])


def test_hgl_matches_orthogonal_closed_form_gamma_grid(rng):
    for gam in (0.0, 0.1, 1.0, 10.0):
        for _ in range(10):
            p = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 4)) for _ in range(p)]
            n = sum(sizes) + int(rng.integers(2, 12))
            des = orthogonal_design(rng, sizes, n)
            th = rng.standard_normal(des.m) * rng.integers(0, 2, des.m)
            s2 = float(rng.uniform(0.3, 1.5))
            y = des.G @ th + np.sqrt(s2) * rng.standard_normal(n)
            ref = _closed_form_vec(des, y, s2, gam)
            res = solve_hgl_pqn(y, des, s2, gam)
            assert np.all(np.abs(res.lam - ref) <= 1e-6 * (1 + ref))


def test_hgl_min_free_hessian_eig_is_positive_on_orthogonal_designs(rng):
    """With G^T G = n I the objective separates by block and every free
    block sits at a strict minimum of its own term."""
    seen = 0
    for gam in (0.0, 0.1, 1.0):
        for _ in range(10):
            des = orthogonal_design(rng, [2, 3, 1, 2], 20)
            th = rng.standard_normal(des.m) * rng.integers(0, 2, des.m)
            y = des.G @ th + 0.5 * rng.standard_normal(20)
            res = solve_hgl_pqn(y, des, 0.25, gam)
            assert res.converged
            eig = res.extra["min_free_hessian_eig"]
            if eig is not None:
                seen += 1
                assert eig > 0
    assert seen >= 20


def test_hgl_kkt_residual_at_solution(rng):
    for _ in range(20):
        des = random_grouped(rng)
        y = rng.standard_normal(des.n) * 2
        s2 = float(rng.uniform(0.3, 1.5))
        gam = float(rng.uniform(0.0, 2.0))
        res = solve_hgl_pqn(y, des, s2, gam)
        scale = 1 + 2 * gam + des.n
        assert kkt_residual_hgl(res.lam, y, des, s2, gam) <= 1e-5 * scale


def test_hgl_objective_not_worse_than_start(rng):
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    s2, gam = 0.8, 0.5
    res = solve_hgl_pqn(y, des, s2, gam)
    f0 = MarginalFactor(des, np.zeros(des.p), s2).neg_log_marginal(y, gam)[0]
    assert res.objective <= f0 + 1e-12 * (1 + abs(f0))


def test_hgl_boundary_zeros_are_exact(rng):
    """Where the orthogonal closed form is zero the solve returns exactly
    0.0, and every coordinate stays >= 0."""
    zeros = 0
    for gam in (0.0, 1.0, 10.0):
        for _ in range(10):
            sizes = [int(k) for k in rng.integers(1, 4, 4)]
            des = orthogonal_design(rng, sizes, sum(sizes) + 6)
            th = rng.standard_normal(des.m) * rng.integers(0, 2, des.m)
            s2 = float(rng.uniform(0.3, 1.5))
            y = des.G @ th + np.sqrt(s2) * rng.standard_normal(des.n)
            ref = _closed_form_vec(des, y, s2, gam)
            res = solve_hgl_pqn(y, des, s2, gam, lam0=np.ones(des.p))
            assert res.converged and np.all(res.lam >= 0.0)
            assert np.all(res.lam[ref == 0.0] == 0.0)
            zeros += int(np.sum(ref == 0.0))
    assert zeros > 0


def test_hgl_iterates_stay_feasible_and_descend(rng, monkeypatch):
    """Every lambda the solve evaluates is >= 0; the returned objective is
    the lowest value accepted."""
    import groupsparse.hglasso as hg
    seen = []
    factor = hg.MarginalFactor

    def recording(design, lam, sigma2):
        assert np.all(lam >= 0.0)
        seen.append(lam.copy())
        return factor(design, lam, sigma2)

    monkeypatch.setattr(hg, "MarginalFactor", recording)
    des = random_grouped(rng, p_max=5)
    while des.p < 3:
        des = random_grouped(rng, p_max=5)
    y = 3.0 * rng.standard_normal(des.n)
    s2, gam = 0.5, 0.2
    res = solve_hgl_pqn(y, des, s2, gam, lam0=np.full(des.p, 2.0))
    assert res.converged and len(seen) > 1
    f0 = MarginalFactor(des, seen[0], s2).neg_log_marginal(y, gam)[0]
    assert res.objective <= f0
    assert res.objective == \
        MarginalFactor(des, res.lam, s2).neg_log_marginal(y, gam)[0]


def test_hgl_converged_is_false_when_max_iter_runs_out(rng, monkeypatch):
    import groupsparse.hglasso as hg
    monkeypatch.setattr(hg, "_MAX_ITER", 1)
    des = random_grouped(rng, p_max=5)
    y = 3.0 * rng.standard_normal(des.n)
    res = solve_hgl_pqn(y, des, 0.5, 0.1, lam0=np.full(des.p, 50.0))
    assert res.iterations == 1 and not res.converged
    assert res.extra["grad_norm"] > 1e-10 * (1 + abs(res.objective))


def test_polish_modules_do_not_import_pqn():
    """hglasso and selection set the polish's tolerances themselves:
    neither imports groupsparse.pqn, the L-BFGS solver the tests keep as
    a reference."""
    import ast
    import pathlib
    import groupsparse.hglasso
    import groupsparse.selection
    for mod in (groupsparse.hglasso, groupsparse.selection):
        tree = ast.parse(pathlib.Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") \
                    + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            assert "pqn" not in parts, mod.__name__


def test_hgl_line_search_takes_a_converged_trial_on_the_armijo_edge():
    """exp2 (master seed 7) problem 6, hglc: the polish of its one block
    reaches a full Newton trial that passes the convergence test while its
    objective lies rounding noise above the current one.  The trial is
    taken, so the fit converges in 13 iterations instead of backtracking
    onto worse points until the line search gives up."""
    from groupsparse import McConfig, estimate_sigma2_ls, gen_problem
    from groupsparse.experiments import ESTIMATORS
    des, _, y, _ = gen_problem(McConfig(experiment="exp2", runs=10,
                                        master_seed=7, estimators=[]), 6)
    s2 = estimate_sigma2_ls(y, des.G)
    res = ESTIMATORS["hglc"](y, des, s2, {})
    assert res.selected == [5]
    assert res.converged and res.iterations == 13
    assert res.extra["kkt_residual"] <= 1e-10


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_lambda_orth(np.ones(2), 2, 10, 1.0, -0.1)
    with pytest.raises(ValueError):
        closed_form_lambda_mkl_orth(np.ones(2), 10, 1.0, 0.0)


def test_closed_form_gamma_to_zero_limit(rng):
    """The gamma > 0 expression approaches the flat-prior formula."""
    t = rng.standard_normal(3)
    k, n, s2 = 3, 50, 0.4
    flat = closed_form_lambda_orth(t, k, n, s2, 0.0)
    near = closed_form_lambda_orth(t, k, n, s2, 1e-10)
    assert abs(near - flat) <= 1e-6 * (1 + flat)


def test_mkl_closed_form_orthogonal(rng):
    sizes = [2, 3, 1]
    des = orthogonal_design(rng, sizes, 30)
    th = rng.standard_normal(des.m)
    s2, gam = 0.5, 0.8
    y = des.G @ th + np.sqrt(s2) * rng.standard_normal(30)
    tls = des.G.T @ y / des.n
    ref = np.array([closed_form_lambda_mkl_orth(tls[s], des.n, s2, gam)
                    for s in des.slices])
    res = solve_mkl_lambda(y, des, s2, gam)
    assert np.all(np.abs(res.lam - ref) <= 1e-6 * (1 + ref))


# ------------------------------------------------------------
# lambda_opt and the MSE connection
# ------------------------------------------------------------

def test_lambda_opt_values():
    assert lambda_opt(np.zeros(3), 3) == 0.0
    assert lambda_opt(np.array([2.0]), 1) == 4.0


def test_lambda_opt_beats_grid(rng):
    des = orthogonal_design(rng, [3], 60)
    tb = np.array([0.5, -0.2, 0.9])
    s2 = 0.4
    lo = lambda_opt(tb, 3)
    best = mse_of_lambda(des, np.array([lo]), s2, tb)
    for lam in np.logspace(-3, 3, 20):
        alt = mse_of_lambda(des, np.array([lam]), s2, tb)
        assert best <= alt + 1e-12


# ------------------------------------------------------------
# zero probabilities
# ------------------------------------------------------------

def test_zero_prob_query_validation():
    with pytest.raises(ValueError):
        ZeroProbQuery(-1.0, 2, 10, 1.0, 0.0, "hgl")
    with pytest.raises(ValueError):
        ZeroProbQuery(1.0, 0, 10, 1.0, 0.0, "hgl")
    with pytest.raises(ValueError):
        ZeroProbQuery(1.0, 2, 10, 1.0, 0.0, "other")


def test_prob_zero_central_case():
    """theta=0, gamma=0, hgl: central chi2_k CDF at k (k=1 -> 0.6827)."""
    p = prob_lambda_zero(ZeroProbQuery(0.0, 1, 10, 1.0, 0.0, "hgl"))
    assert abs(p - (stats.norm.cdf(1) - stats.norm.cdf(-1))) <= 1e-12


def test_import_leaves_scipy_stats_unloaded():
    """prob_lambda_zero takes the noncentral chi-square cdf from
    scipy.special, so importing the package does not load scipy.stats
    (about half a second of start-up)."""
    code = "import sys, groupsparse; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)}).stdout
    assert out.strip() == "False"


def test_prob_zero_mkl_vanishes_as_gamma_to_zero():
    p = prob_lambda_zero(ZeroProbQuery(0.0, 3, 20, 0.5, 1e-12, "mkl"))
    assert p <= 1e-10


def test_prob_zero_matches_empirical_frequency(rng):
    """Exact zero frequency of the orthogonal closed forms over draws."""
    settings = [
        (3, 40, 0.5, 1.2, np.array([0.4, -0.2, 0.1])),
        (10, 20, 0.1, 5.0, np.zeros(10)),     # figure setting, null block
        (10, 20, 0.1, 5.0, np.full(10, 0.05)),
        (1, 30, 1.0, 0.0, np.array([0.3])),
        (4, 25, 0.8, 0.3, np.array([0.2, 0.1, -0.3, 0.05])),
    ]
    draws = 10_000
    for k, n, s2, gam, tb in settings:
        q = lambda est: ZeroProbQuery(float(tb @ tb), k, n, s2, gam, est)
        t = tb + np.sqrt(s2 / n) * rng.standard_normal((draws, k))
        for est, freq_p in (("hgl", prob_lambda_zero(q("hgl"))),
                            ("mkl", prob_lambda_zero(q("mkl")))):
            if est == "mkl" and gam == 0.0:
                continue
            if est == "hgl":
                emp = np.mean([closed_form_lambda_orth(ti, k, n, s2, gam) == 0
                               for ti in t])
            else:
                emp = np.mean([closed_form_lambda_mkl_orth(ti, n, s2, gam) == 0
                               for ti in t])
            sd = max(np.sqrt(freq_p * (1 - freq_p) / draws), 1e-12)
            assert abs(emp - freq_p) <= max(3 * sd, 5e-4), (k, n, s2, gam, est)


# ------------------------------------------------------------
# consistency and unbiasedness of the saturated estimate
# ------------------------------------------------------------

def test_consistency_over_growing_n(rng):
    sizes = [3, 3, 2]
    tbar = np.array([1.0, -0.5, 0.7, 0.0, 0.0, 0.0, 0.4, -0.6])
    lopt = [lambda_opt(tbar[:3], 3), 0.0, lambda_opt(tbar[6:], 2)]
    s2 = 0.5
    med = {}
    for n in (100, 400, 1600):
        devs = []
        for seed in range(20):
            r = np.random.default_rng(1000 + seed)
            G = r.standard_normal((n, 8))
            y = G @ tbar + np.sqrt(s2) * r.standard_normal(n)
            res = solve_hgl_pqn(y, GroupedDesign(G, sizes), s2, 0.0)
            devs.append([abs(res.lam[i] - lopt[i]) for i in range(3)])
        med[n] = np.median(np.asarray(devs), axis=0)
        assert med[n][1] <= 10 * s2 / n       # null block
    for i in (0, 2):                           # active blocks
        assert med[100][i] > med[400][i] > med[1600][i]


def test_unbiasedness_of_saturated_estimate(rng):
    k, n, s2 = 4, 50, 0.3
    tb = np.array([0.8, -0.2, 0.5, 0.1])
    des = orthogonal_design(rng, [k], n)
    draws = 10_000
    noise = np.sqrt(s2) * rng.standard_normal((draws, n))
    tls = (des.G @ tb + noise) @ des.G / n
    lam_star = np.sum(tls ** 2, axis=1) / k - s2 / n
    mean_th = float(tb @ tb) / k
    var_th = 2 * s2 ** 2 / (k * n ** 2) + 4 * float(tb @ tb) * s2 / (k ** 2 * n)
    se = lam_star.std(ddof=1) / np.sqrt(draws)
    assert abs(lam_star.mean() - mean_th) <= 3 * se
    assert abs(lam_star.var(ddof=1) - var_th) <= 0.10 * var_th


# ------------------------------------------------------------
# two-group example
# ------------------------------------------------------------

def _tg_design():
    return GroupedDesign(np.array([[1.0, 0.0], [0.5, 1.0]]), [1, 1])


def test_two_group_lambda2_matches_generic_solver():
    """The scalar lambda2 formulas agree with the full solvers on the
    actual 2x2 design when block 1 is pinned at zero (the solve runs on
    the second block alone)."""
    des = _tg_design().subdesign([1])
    y = np.array([0.0, 1.0])
    s2 = 0.1
    for gam in (0.0, 0.5, 2.0, 10.0):
        tg = two_group_thresholds(1.0, s2, 0.5, gam)
        res = solve_hgl_pqn(y, des, s2, gam)
        assert abs(res.lam[0] - tg.lambda2_hgl) <= 1e-8 * (1 + tg.lambda2_hgl)
        if gam > 0:
            resm = mkl_pqn(y, des, s2, gam,
                           config=PqnConfig(grad_tol=1e-12, max_iter=2000))
            assert abs(resm.lam[0] - tg.lambda2_mkl) <= 1e-8 * (
                1 + tg.lambda2_mkl)


def test_two_group_theta_shrinkage_ordering():
    for gam in (0.5, 2.0, 10.0, 50.0):
        tg = two_group_thresholds(1.0, 0.005, 0.5, gam)
        assert abs(tg.theta2_hgl) <= abs(tg.theta2_mkl) + 1e-12


def test_two_group_gamma_min_consistent_with_margins():
    """Whatever gamma_min comes out, the generic solvers confirm the zero/
    nonzero status of block 1 on either side of it."""
    des = _tg_design()
    y = np.array([0.0, 1.0])
    s2 = 0.005
    tg = two_group_thresholds(1.0, s2, 0.5, 1.0)
    for gmin, solver in ((tg.gamma_min_hgl, "hgl"), (tg.gamma_min_mkl, "mkl")):
        probe = max(gmin, 1e-6) * 1.5
        if solver == "hgl":
            res = solve_hgl_pqn(y, des, s2, probe)
        else:
            res = mkl_pqn(y, des, s2, probe,
                          config=PqnConfig(grad_tol=1e-12, max_iter=2000))
        assert res.lam[0] == 0.0


# ------------------------------------------------------------
# weighted MSE diagnostic
# ------------------------------------------------------------

def test_weighted_profile_alpha4_limit_is_lambda_opt(rng):
    des = random_grouped(rng, n_extra=14)
    s2 = 0.6
    lam = rng.uniform(0.2, 2.0, des.p)
    theta = rng.standard_normal(des.m)
    y = des.G @ theta + np.sqrt(s2) * rng.standard_normal(des.n)
    i = int(rng.integers(0, des.p))
    _, d, beta = diagonalize_block(des, lam, s2, i, y, theta_true=theta)
    prof = weighted_mse_profile(d, beta, alpha=4.0, n=des.n)
    k = des.group_sizes[i]
    tb = theta[des.slices[i]]
    assert abs(prof.breve_lambda_limit - lambda_opt(tb, k)) <= 1e-10


def test_weighted_profile_grid_minimizer_near_limit_large_n(rng):
    des = random_grouped(rng, n_extra=14)
    s2 = 0.6
    lam = rng.uniform(0.2, 2.0, des.p)
    theta = rng.standard_normal(des.m)
    y = des.G @ theta + np.sqrt(s2) * rng.standard_normal(des.n)
    _, d, beta = diagonalize_block(des, lam, s2, 0, y, theta_true=theta)
    prof = weighted_mse_profile(d, beta, alpha=0.0, n=10 ** 6)
    lams = prof.lambdas
    idx = int(np.argmin(np.abs(lams - prof.minimizer)))
    ref = int(np.argmin(np.abs(lams - prof.breve_lambda_limit)))
    assert abs(idx - ref) <= 2


def test_weighted_profile_requires_beta(rng):
    des = random_grouped(rng)
    _, d, beta = diagonalize_block(des, np.ones(des.p), 1.0, 0,
                                   rng.standard_normal(des.n))
    with pytest.raises(ValueError):
        weighted_mse_profile(d, beta, alpha=1.0, n=100)
