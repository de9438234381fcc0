"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture so the line is
always visible) and then asserts, so the suite doubles as a scoreboard.
"""

import os
import sys

import numpy as np
import pytest

from groupsparse import (
    GroupedDesign, McConfig, ZeroProbQuery, build_arx,
    closed_form_lambda_mkl_orth, closed_form_lambda_orth, cod_k, fit_hglasso,
    gen_arx_series, prob_lambda_zero, solve_hgl_pqn, solve_mkl_lambda,
    two_group_thresholds,
)
from groupsparse.convex import kkt_residual_mkl, solve_glasso
from groupsparse.model import MarginalFactor, mse_of_lambda, posterior_mean
from groupsparse import experiments as ex

from conftest import (kkt_residual_hgl, lambda_opt, mkl_pqn,
                      mkl_recover_theta, orthogonal_design)

THREADS = min(8, os.cpu_count() or 1)


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("%s  %-42s %s" % (status, name, detail), file=sys.__stdout__,
          flush=True)


def _random_instance(rng):
    p = int(rng.integers(1, 6))
    sizes = [int(rng.integers(1, 7)) for _ in range(p)]
    m = sum(sizes)
    n = int(rng.integers(max(2, m // 2), 201))
    des = GroupedDesign(rng.standard_normal((n, m)), sizes)
    y = rng.standard_normal(n) * 2.0
    s2 = float(rng.uniform(0.2, 2.0))
    gam = float(rng.uniform(0.05, 3.0))
    return des, y, s2, gam


def test_orthogonal_closed_form_equivalence():
    """Iterative solvers reproduce the saturation formulas on 100
    orthogonal-design instances."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1, 7)) for _ in range(p)]
        n = int(rng.integers(sum(sizes), 201))
        des = orthogonal_design(rng, sizes, n)
        y = rng.standard_normal(n) * 2.0
        s2 = float(rng.uniform(0.2, 2.0))
        gam = float(rng.uniform(0.0, 3.0))
        tls = des.G.T @ y / n
        ref_h = np.array([closed_form_lambda_orth(tls[s], k, n, s2, gam)
                          for s, k in zip(des.slices, sizes)])
        lam_h = solve_hgl_pqn(y, des, s2, gam).lam
        worst = max(worst, float(np.max(np.abs(lam_h - ref_h)
                                        / (1.0 + ref_h))))
        gm = max(gam, 0.05)
        ref_m = np.array([closed_form_lambda_mkl_orth(tls[s], n, s2, gm)
                          for s in des.slices])
        lam_m = solve_mkl_lambda(y, des, s2, gm).lam
        worst = max(worst, float(np.max(np.abs(lam_m - ref_m)
                                        / (1.0 + ref_m))))
    ok = worst <= 1e-6
    _line("orthogonal closed-form equivalence", ok, "worst %.2e" % worst)
    assert ok


def test_marginal_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        des, y, s2, gam = _random_instance(rng)
        lam = rng.uniform(0.1, 2.0, des.p)

        def f_grad(lam):
            return MarginalFactor(des, lam, s2, y).neg_log_marginal(gam)

        g = f_grad(lam)[1]
        fd = np.empty(des.p)
        for i in range(des.p):
            h = 1e-5 * (1.0 + lam[i])
            lp, lmn = lam.copy(), lam.copy()
            lp[i] += h
            lmn[i] -= h
            fd[i] = (f_grad(lp)[0] - f_grad(lmn)[0]) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(g - fd)
                                        / (1.0 + np.abs(fd)))))
    ok = worst <= 1e-5
    _line("marginal gradient vs central differences", ok, "worst %.2e" % worst)
    assert ok


def test_kkt_certificates_at_solver_outputs():
    rng = np.random.default_rng(12)
    worst_h = worst_m = 0.0
    for _ in range(100):
        des, y, s2, gam = _random_instance(rng)
        rh = solve_hgl_pqn(y, des, s2, gam)
        worst_h = max(worst_h, kkt_residual_hgl(rh.lam, y, des, s2, gam)
                      / (1.0 + 2.0 * gam + des.n))
        rm = solve_mkl_lambda(y, des, s2, gam)
        worst_m = max(worst_m, kkt_residual_mkl(rm.lam, y, des, s2, gam)
                      / (1.0 + 2.0 * gam))
    ok = worst_m <= 1e-6 and worst_h <= 1e-5
    _line("stationarity certificates", ok,
          "hgl %.2e mkl %.2e" % (worst_h, worst_m))
    assert ok


def test_kernel_scale_group_lasso_equivalence():
    """theta recovered from the scale problem equals Group Lasso with
    reg = sqrt(2 gamma) on 50 instances."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(50):
        des, y, s2, gam = _random_instance(rng)
        if trial % 3 == 0 and des.m >= 3:
            G = des.G.copy()
            G[:, 1:3] += G[:, [0]]
            des = GroupedDesign(G, des.group_sizes)
        mth = mkl_recover_theta(mkl_pqn(y, des, s2, gam), y, des, s2).theta
        gth = solve_glasso(y, des, s2, np.sqrt(2 * gam)).theta
        worst = max(worst, float(np.linalg.norm(mth - gth)
                                 / max(np.linalg.norm(gth), 1e-12)))
    ok = worst <= 1e-4
    _line("scale problem vs group lasso", ok, "worst rel %.2e" % worst)
    assert ok


def test_two_group_gamma_thresholds():
    """Two-block worked example at sigma2=0.005, delta=0.5, y=(0,1):
    gamma thresholds near 5 and 20, ordered, with uniformly stronger
    shrinkage from the marginal-likelihood estimator."""
    s2, delta = 0.005, 0.5
    tg = two_group_thresholds(1.0, s2, delta, 1.0)
    shrink_ok = True
    for gam in np.logspace(-2, 3, 40):
        t = two_group_thresholds(1.0, s2, delta, float(gam))
        shrink_ok &= abs(t.theta2_hgl) <= abs(t.theta2_mkl) + 1e-12
    hgl_ok = abs(tg.gamma_min_hgl - 5.0) <= 0.2 * 5.0
    mkl_ok = abs(tg.gamma_min_mkl - 20.0) <= 0.2 * 20.0
    order_ok = tg.gamma_min_hgl < tg.gamma_min_mkl
    ok = hgl_ok and mkl_ok and order_ok and shrink_ok
    _line("two-group gamma thresholds", ok,
          "gamma_min hgl %.3g (want ~5) mkl %.3g (want ~20) shrink %s"
          % (tg.gamma_min_hgl, tg.gamma_min_mkl, shrink_ok))
    assert ok


def test_zero_probability_formulas():
    rng = np.random.default_rng(14)
    settings = [
        # (||theta||^2, k, n, sigma2, gamma)
        (0.0, 3, 50, 1.0, 1.0),
        (0.5, 4, 100, 1.0, 2.0),
        (0.02, 10, 20, 0.1, 1.0),   # weak-signal wide-block setting
        (0.2, 2, 40, 0.5, 5.0),
        (1.0, 6, 200, 2.0, 0.5),
    ]
    draws = 10_000
    ok = True
    worst = 0.0
    for tn2, k, n, s2, gam in settings:
        theta = np.zeros(k)
        if tn2 > 0:
            theta[0] = np.sqrt(tn2)
        tls = theta + np.sqrt(s2 / n) * rng.standard_normal((draws, k))
        for est in ("hgl", "mkl"):
            if est == "hgl":
                lam = np.array([closed_form_lambda_orth(t, k, n, s2, gam)
                                for t in tls])
            else:
                lam = np.array([closed_form_lambda_mkl_orth(t, n, s2, gam)
                                for t in tls])
            emp = float(np.mean(lam == 0.0))
            ref = prob_lambda_zero(ZeroProbQuery(tn2, k, n, s2, gam, est))
            se = max(np.sqrt(ref * (1 - ref) / draws), 1e-4)
            dev = abs(emp - ref) / se
            worst = max(worst, dev)
            ok &= dev <= 3.0
    _line("exact zero probabilities vs simulation", ok,
          "worst %.2f binomial sigma" % worst)
    assert ok


def test_benchmark_block_experiment_desk_scale():
    """50-run grouped benchmark: staged variants keep sparsity >= 90/60%,
    the convex scale estimator stays below 60%, and the first staged
    variant beats it on mean percentage error."""
    cfg = McConfig(experiment="exp1", runs=50, master_seed=0,
                   estimators=["hgla", "hglb", "hglc", "mkl"],
                   threads=THREADS)
    agg = ex.run_monte_carlo(cfg).aggregates
    sp = {k: agg[k]["sparsity_index"] for k in cfg.estimators}
    err = {k: agg[k]["mean_pct_error"] for k in cfg.estimators}
    ok = (sp["hgla"] >= 90.0 and sp["hglc"] >= 90.0 and sp["hglb"] >= 60.0
          and sp["mkl"] <= 60.0 and err["hgla"] < err["mkl"])
    _line("grouped benchmark sparsity and error", ok,
          "sparsity a/b/c/mkl %.1f/%.1f/%.1f/%.1f err a %.1f mkl %.1f"
          % (sp["hgla"], sp["hglb"], sp["hglc"], sp["mkl"],
             err["hgla"], err["mkl"]))
    assert ok


def test_benchmark_scalar_experiment_ordering():
    """50-run scalar benchmark (n=60, sigma2=1): sparsity ordering
    staged > adaptive lasso > lasso."""
    cfg = McConfig(experiment="ada", runs=50, master_seed=1, n=60,
                   estimators=["hgla", "adalasso", "lasso"], threads=THREADS)
    agg = ex.run_monte_carlo(cfg).aggregates
    sp = {k: agg[k]["sparsity_index"] for k in cfg.estimators}
    ok = sp["hgla"] > sp["adalasso"] > sp["lasso"]
    _line("scalar benchmark sparsity ordering", ok,
          "%.1f > %.1f > %.1f" % (sp["hgla"], sp["adalasso"], sp["lasso"]))
    assert ok


def test_exp2_family_sparsity_ordering():
    """30-run exp2 and its three noisier variants: the staged estimators
    hgla and hglc keep a higher sparsity index than mkl, glasso and lasso
    (the abstract's claim), and no fit fails or stops unconverged.  Mean
    percentage errors are printed, not asserted."""
    names = ["hgla", "hglc", "mkl", "glasso", "lasso"]
    ok = True
    for exp in ("exp2", "exp2_noisy_a", "exp2_noisy_b", "exp2_noisy_c"):
        cfg = McConfig(experiment=exp, runs=30, master_seed=0,
                       estimators=names, threads=THREADS)
        agg = ex.run_monte_carlo(cfg).aggregates
        sp = {k: agg[k]["sparsity_index"] for k in names}
        row_ok = (min(sp["hgla"], sp["hglc"])
                  > max(sp["mkl"], sp["glasso"], sp["lasso"])
                  and all(agg[k]["runs_ok"] == cfg.runs
                          and agg[k]["unconverged"] == 0 for k in names))
        _line("%s sparsity: staged above convex" % exp, row_ok,
              " ".join("%s %.1f/%.0f" % (k, agg[k]["mean_pct_error"], sp[k])
                       for k in names))
        ok = ok and row_ok
    assert ok


def test_scale_estimates_consistent_in_n():
    """Flat-prior scale estimates converge blockwise to ||theta||^2/k as n
    grows; null blocks stay near zero."""
    rng = np.random.default_rng(15)
    sizes = [3, 3, 3, 3]
    theta = np.zeros(12)
    theta[0:3] = [1.5, -1.0, 0.8]
    theta[3:6] = [0.5, 0.7, -0.4]
    s2 = 1.0
    targets = [lambda_opt(theta[s], 3) for s in
               (slice(0, 3), slice(3, 6))]
    ns = (100, 400, 1600)
    errs = {n: [] for n in ns}
    nulls = {n: [] for n in ns}
    for _ in range(20):
        # nested designs: each larger sample extends the smaller one, so a
        # seed's error shrinks with n instead of being redrawn independently
        G = rng.standard_normal((ns[-1], 12))
        eps = np.sqrt(s2) * rng.standard_normal(ns[-1])
        for n in ns:
            y = G[:n] @ theta + eps[:n]
            lam = solve_hgl_pqn(y, GroupedDesign(G[:n], sizes), s2, 0.0).lam
            errs[n].append(np.abs(lam[:2] - targets))
            nulls[n].append(lam[2:])
    med_err = {n: np.median(np.vstack(errs[n]), axis=0) for n in ns}
    med_null = {n: float(np.median(np.vstack(nulls[n]))) for n in ns}
    dec = np.all(med_err[100] > med_err[400]) and \
        np.all(med_err[400] > med_err[1600])
    null_ok = all(med_null[n] <= 10.0 * s2 / n for n in (100, 400, 1600))
    ok = bool(dec and null_ok)
    _line("scale estimate consistency in n", ok,
          "median errs %s -> %s -> %s" % tuple(
              np.round(med_err[n], 4).tolist() for n in (100, 400, 1600)))
    assert ok


def test_mse_formula_and_optimal_scale():
    rng = np.random.default_rng(16)
    # analytic MSE vs Monte Carlo over fresh noise draws
    sizes = [2, 3]
    des = GroupedDesign(rng.standard_normal((30, 5)), sizes)
    theta = np.array([1.0, -0.5, 0.0, 0.0, 0.0])
    s2 = 0.5
    lam = np.array([0.8, 0.3])
    analytic = mse_of_lambda(des, lam, s2, theta)
    draws = 10_000
    sq = np.empty(draws)
    mean_signal = des.G @ theta
    for j in range(draws):
        y = mean_signal + np.sqrt(s2) * rng.standard_normal(30)
        sq[j] = np.sum((posterior_mean(des, lam, s2, y) - theta) ** 2)
    se = sq.std(ddof=1) / np.sqrt(draws)
    mc_ok = abs(sq.mean() - analytic) <= 3.0 * se
    # the ||theta||^2/k scale beats a 20-point grid under an orthogonal design
    odes = orthogonal_design(rng, [3], 60)
    oth = np.array([1.2, -0.7, 0.4])
    opt = lambda_opt(oth, 3)
    f_opt = mse_of_lambda(odes, np.array([opt]), s2, oth)
    grid_ok = all(
        f_opt <= mse_of_lambda(odes, np.array([lv]), s2, oth) + 1e-12
        for lv in np.logspace(-3, 2, 20))
    ok = mc_ok and grid_ok
    _line("analytic mse and optimal scale", ok,
          "|analytic-mc| %.2e (3se %.2e) grid %s"
          % (abs(sq.mean() - analytic), 3 * se, grid_ok))
    assert ok


def test_scale_estimator_unbiased():
    """Unsaturated orthogonal-design scale estimate ||theta_ls||^2/k -
    sigma2/n is unbiased with the stated variance."""
    rng = np.random.default_rng(17)
    k, n, s2 = 4, 50, 1.0
    theta = np.array([1.0, -0.6, 0.3, 0.9])
    tn2 = float(theta @ theta)
    draws = 10_000
    tls = theta + np.sqrt(s2 / n) * rng.standard_normal((draws, k))
    lam = np.sum(tls ** 2, axis=1) / k - s2 / n
    mean_ref = tn2 / k
    var_ref = 2.0 * s2 ** 2 / (k * n ** 2) + 4.0 * tn2 * s2 / (k ** 2 * n)
    se = lam.std(ddof=1) / np.sqrt(draws)
    mean_ok = abs(lam.mean() - mean_ref) <= 3.0 * se
    var_ok = abs(lam.var(ddof=1) - var_ref) <= 0.10 * var_ref
    ok = mean_ok and var_ok
    _line("scale estimator mean and variance", ok,
          "mean dev %.2f se, var rel err %.1f%%"
          % (abs(lam.mean() - mean_ref) / se,
             100 * abs(lam.var(ddof=1) - var_ref) / var_ref))
    assert ok


def test_arx_pipeline_prediction_and_selection():
    """Lagged-regression workflow on a synthetic sparse 3-input system:
    the staged variant predicts at least as well as the convex scale
    estimator and selects close to the true channel count."""
    series = gen_arx_series(T=600, seed=2)
    train, test = series[:300], series[300:]
    q = 10
    prob = build_arx(train, q)
    res_h, _ = fit_hglasso(prob.y, prob.design, variant="hglc")
    s2 = max(1e-12, float(np.var(prob.y - prob.design.G @ res_h.theta)))
    res_m = ex.est_mkl(prob.y, prob.design, s2, {})
    cods = {}
    for name, res in (("hglc", res_h), ("mkl", res_m)):
        model = ex.ArxModel(theta=res.theta, q=q, means=prob.means,
                            stds=prob.stds)
        cods[name] = cod_k(model, test, 1)
    sel_ok = len(res_h.selected) <= ex.ARX_TRUE_ACTIVE_CHANNELS + 1
    cod_ok = cods["hglc"] >= cods["mkl"] - 0.02
    ok = sel_ok and cod_ok
    _line("lagged-regression prediction and selection", ok,
          "cod1 hglc %.4f mkl %.4f selected %s"
          % (cods["hglc"], cods["mkl"], res_h.selected))
    assert ok
