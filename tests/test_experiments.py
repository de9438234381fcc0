"""Problem generators, metrics, ARX utilities and the Monte Carlo harness."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from groupsparse import (
    GroupedDesign, McConfig, arx_cod, build_arx, fit_hglasso, gen_arx_series,
    run_monte_carlo,
)
from groupsparse.experiments import (
    ARX_TRUE_ACTIVE_CHANNELS, ESTIMATORS, gen_problem, percentage_error,
    run_seed, sparsity_index, zero_pattern,
)
from groupsparse.model import EstimateResult

from conftest import cod_k_reference


# ------------------------------------------------------------
# config and seeding
# ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="runs"):
        McConfig(runs=0)
    with pytest.raises(ValueError, match="experiment"):
        McConfig(experiment="exp9")
    with pytest.raises(ValueError, match="registry"):
        McConfig(estimators=["bogus"])
    with pytest.raises(ValueError, match="master_seed"):
        McConfig(master_seed=-1)


@pytest.mark.parametrize("experiment", ["exp1", "exp2", "exp2_noisy_c"])
def test_config_rejects_block_shapes_without_block_6(experiment):
    """Block 6 is always active in the block experiments, so p < 6 (or
    empty blocks) fails when the config is built, not in gen_problem."""
    with pytest.raises(ValueError, match="^p must"):
        McConfig(experiment=experiment, p=5)
    with pytest.raises(ValueError, match="^k must"):
        McConfig(experiment=experiment, k=0)
    cfg = McConfig(experiment=experiment, runs=1, p=6, k=1, estimators=[])
    design, theta, _, _ = gen_problem(cfg, 0)
    assert design.group_sizes == [1] * 6 and theta.theta[5] != 0.0
    McConfig(experiment="ada", p=1, k=0)   # ada has its own 8 scalars


@pytest.mark.parametrize("names", [[], ["oracle", "oracle"],
                                   ["oracle", "hgla", "oracle"]])
def test_run_monte_carlo_needs_each_estimator_once(names):
    """An empty list would fit nothing; a repeated name would fit each
    problem twice and count every run twice in its aggregate."""
    cfg = McConfig(experiment="exp1", runs=1, estimators=names)
    with pytest.raises(ValueError, match="each once"):
        run_monte_carlo(cfg)


def test_run_seed_deterministic_and_distinct():
    _, a = run_seed(7, 0)
    _, b = run_seed(7, 0)
    _, c = run_seed(7, 1)
    assert a == b and a != c


# ------------------------------------------------------------
# generators
# ------------------------------------------------------------

def test_gen_problem_block_structure():
    cfg = McConfig(experiment="exp1", runs=1, estimators=[])
    always_active = always_silent = True
    for run in range(20):
        des, theta, y, s2 = gen_problem(cfg, run)
        assert des.n == 100 and des.p == 10 and des.group_sizes == [4] * 10
        assert y.shape == (100,) and s2 > 0
        norms = des.block_norms(theta.theta)
        assert np.all(norms[:5] == 0.0)        # first five blocks silent
        always_active &= norms[5] > 0          # sixth always active
    assert always_active


def test_gen_problem_snr_divisor():
    cfg = McConfig(experiment="exp1", runs=1, estimators=[])
    des, theta, y, s2 = gen_problem(cfg, 3)
    assert abs(s2 - np.var(des.G @ theta.theta) / 25.0) <= 1e-9 * s2


def test_gen_problem_exp2_column_correlation():
    cfg = McConfig(experiment="exp2", runs=1, estimators=[])
    des, _, _, _ = gen_problem(cfg, 0)
    diffs = np.diff(des.G, axis=1)
    # increments have variance 0.04, far below the column variance
    assert np.var(diffs) < 0.1


def test_gen_problem_ada():
    cfg = McConfig(experiment="ada", runs=1, n=60, estimators=[])
    des, theta, y, s2 = gen_problem(cfg, 0)
    assert des.group_sizes == [1] * 8 and des.n == 60
    assert np.array_equal(theta.theta, [3.0, 1.5, 0, 0, 2.0, 0, 0, 0])
    assert s2 == 1.0


def test_gen_problem_reproducible():
    cfg = McConfig(experiment="exp1", runs=1, estimators=[])
    d1, t1, y1, _ = gen_problem(cfg, 4)
    d2, t2, y2, _ = gen_problem(cfg, 4)
    assert np.array_equal(d1.G, d2.G) and np.array_equal(y1, y2)
    assert np.array_equal(t1.theta, t2.theta)


# ------------------------------------------------------------
# metrics
# ------------------------------------------------------------

def test_percentage_error_values():
    t = np.array([3.0, 4.0])
    assert percentage_error(t, t) == 0.0
    assert percentage_error(np.zeros(2), t) == 100.0
    assert abs(percentage_error(2 * t, t) - 100.0) <= 1e-12
    with pytest.raises(ValueError):
        percentage_error(t, np.zeros(2))


def test_zero_pattern_uses_lambda_when_present():
    des = GroupedDesign(np.ones((4, 4)), [2, 2])
    res = EstimateResult(theta=np.ones(4), lam=np.array([0.0, 5.0]))
    assert zero_pattern(res, des) == [True, False]
    res2 = EstimateResult(theta=np.array([0.0, 0.0, 1.0, 1.0]))
    assert zero_pattern(res2, des) == [True, False]


def test_sparsity_index_values():
    full = [([True, True], [True, True])] * 3
    assert sparsity_index(full) == 100.0
    none = [([False, False], [True, True])] * 3
    assert sparsity_index(none) == 0.0
    half = [([True, False], [True, True])] * 3
    assert sparsity_index(half) == 50.0
    with pytest.raises(ValueError):
        sparsity_index([([False], [False])])


# ------------------------------------------------------------
# ARX
# ------------------------------------------------------------

def test_build_arx_shapes_and_normalization(rng):
    T, q = 100, 5
    series = np.column_stack([rng.standard_normal(T) + 3.0,
                              2.0 * rng.standard_normal(T)])
    prob = build_arx(series, q)
    assert prob.design.group_sizes == [q, q]
    assert prob.design.n == T - q and prob.y.shape == (T - q,)
    z = (series - prob.means) / prob.stds
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)
    # row for time t holds lags 1..q of each channel
    t = q + 3
    row = prob.design.G[3]
    assert np.allclose(row[:q], z[t - 1:t - q - 1 if t - q - 1 >= 0 else None:-1, 0])


def test_build_arx_rejects_short_series(rng):
    with pytest.raises(ValueError, match="too short"):
        build_arx(rng.standard_normal((6, 2)), 5)


def test_cod_perfect_model_noise_free(rng):
    """Noise-free ARX with the true coefficients predicts exactly at every
    horizon (identity normalization keeps the recursion literal)."""
    T, q = 80, 3
    u = rng.standard_normal(T)
    y = np.zeros(T)
    for t in range(1, T):
        y[t] = 0.9 * y[t - 1] + 0.5 * u[t - 1]
    series = np.column_stack([y, u])
    theta = np.zeros(2 * q)
    theta[0] = 0.9       # y lag 1
    theta[q] = 0.5       # u lag 1
    prob = replace(build_arx(series, q), means=np.zeros(2), stds=np.ones(2))
    cods = arx_cod(prob, theta, series, 5)
    for k in (1, 2, 5):
        assert cods[k - 1] >= 1.0 - 1e-12


def test_arx_cod_validation(rng):
    prob = build_arx(rng.standard_normal((20, 2)), 2)
    theta = np.zeros(4)
    with pytest.raises(ValueError):
        arx_cod(prob, theta, rng.standard_normal((20, 2)), 0)
    with pytest.raises(ValueError, match="too short"):
        arx_cod(prob, theta, rng.standard_normal((3, 2)), 1)
    with pytest.raises(ValueError, match="too short"):
        arx_cod(prob, theta, rng.standard_normal((5, 2)), 3)
    # the output is constant on the rows COD_3 is taken over, not COD_1's
    series = rng.standard_normal((8, 2))
    series[4:, 0] = 1.0
    assert len(arx_cod(prob, theta, series, 2)) == 2
    with pytest.raises(ValueError, match="constant"):
        arx_cod(prob, theta, series, 3)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("q", [1, 2, 10])
@pytest.mark.parametrize("chans", [1, 4])
def test_arx_cod_matches_the_per_horizon_reference(seed, q, chans):
    """Every horizon's COD from the one pass equals the k-step predictor
    rerun from each origin (cod_k_reference), for a least-squares fit on
    every channel and for a sparse hglc fit, with three inputs and with
    none (a pure autoregression)."""
    series = gen_arx_series(T=360, seed=seed)[:, :chans]
    train, test = series[:180], series[180:]
    prob = build_arx(train, q)
    ls, *_ = np.linalg.lstsq(prob.design.G, prob.y, rcond=None)
    hglc = fit_hglasso(prob.y, prob.design, variant="hglc")[0].theta
    horizon = 8
    for theta in (ls, hglc):
        cods = arx_cod(prob, theta, test, horizon)
        assert len(cods) == horizon
        for k in range(1, horizon + 1):
            ref = cod_k_reference(prob, theta, test, k)
            assert abs(cods[k - 1] - ref) <= 1e-12, (k, cods[k - 1], ref)


def test_gen_arx_series_shape_and_sparsity():
    s = gen_arx_series(T=300, seed=0)
    assert s.shape == (300, 4)
    assert ARX_TRUE_ACTIVE_CHANNELS == 2
    # inputs 2 and 3 do not drive the output: regressing y on them finds ~0
    q = 4
    prob = build_arx(s, q)
    ls, *_ = np.linalg.lstsq(prob.design.G, prob.y, rcond=None)
    norms = prob.design.block_norms(ls)
    assert norms[0] > 5 * max(norms[2], norms[3])
    assert norms[1] > 5 * max(norms[2], norms[3])


# ------------------------------------------------------------
# harness
# ------------------------------------------------------------

def test_registry_contents():
    assert set(ESTIMATORS) == {"hgla", "hglb", "hglc", "mkl", "glasso",
                               "lasso", "adalasso", "oracle"}


def test_oracle_estimator_scores_perfectly():
    cfg = McConfig(experiment="exp1", runs=3, estimators=["oracle"])
    rep = run_monte_carlo(cfg)
    agg = rep.aggregates["oracle"]
    assert agg["runs_ok"] == 3
    assert agg["mean_pct_error"] == 0.0
    assert agg["sparsity_index"] == 100.0


def test_run_monte_carlo_deterministic_and_thread_invariant():
    cfg1 = McConfig(experiment="exp1", runs=3, master_seed=5,
                    estimators=["hgla"], threads=1)
    cfg2 = McConfig(experiment="exp1", runs=3, master_seed=5,
                    estimators=["hgla"], threads=3)
    r1 = run_monte_carlo(cfg1)
    r2 = run_monte_carlo(cfg2)
    e1 = [row["pct_error"] for row in r1.per_run]
    e2 = [row["pct_error"] for row in r2.per_run]
    assert e1 == e2


# A child process fits a few exp1 problems (sigma2 estimated) and exp1
# p = 40 ones (m > n, sigma2 given) with hgla, hglb and mkl, twice each,
# asserts the two fits agree bit for bit, and prints the results as JSON
# (floats round-trip exactly).
_BLAS_CHILD = """
import json, sys
import numpy as np
from groupsparse import McConfig, SelectionConfig
from groupsparse.experiments import ESTIMATORS, gen_problem
from groupsparse.selection import estimate_sigma2_ls

out = []
for cfg, given in ((McConfig(master_seed=0), False),
                   (McConfig(master_seed=7000, p=40), True)):
    for r in range(2):
        design, _, y, s2 = gen_problem(cfg, r)
        s2 = s2 if given else estimate_sigma2_ls(y, design.G)
        fits = []
        for _ in range(2):
            ctx = {"selection": SelectionConfig(sigma2=s2)} if given else {}
            fits.append([ESTIMATORS[name](y, design, s2, ctx)
                         for name in ("hgla", "hglb", "hglc", "mkl")])
        for a, b in zip(*fits):
            assert np.array_equal(a.theta, b.theta) and a.gamma == b.gamma
        out += [[a.theta.tolist(), a.gamma, [int(i) for i in a.selected],
                 bool(a.converged)] for a in fits[0]]
json.dump(out, sys.stdout)
"""


def test_fits_agree_across_blas_thread_counts():
    """At 1 and at 2 OpenBLAS threads (set in a child process's
    environment only), repeated fits are bit-identical, and across the two
    counts gamma, selected and converged are identical and theta agrees
    within 1e-12 relative: on m > n designs a threaded BLAS sums in
    another order, so theta may move in the last bits."""
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        runs.append(json.loads(subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD], check=True, env=env,
            capture_output=True, text=True, timeout=120).stdout))
    assert len(runs[0]) == len(runs[1]) == 16
    for (th1, g1, sel1, conv1), (th2, g2, sel2, conv2) in zip(*runs):
        assert (g1, sel1, conv1) == (g2, sel2, conv2)
        th1, th2 = np.array(th1), np.array(th2)
        assert np.max(np.abs(th1 - th2)) <= 1e-12 * np.max(np.abs(th1))


def test_report_serialization(tmp_path):
    cfg = McConfig(experiment="exp1", runs=2, estimators=["oracle"])
    rep = run_monte_carlo(cfg)
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    rep.to_json(jpath)
    rep.to_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["config"]["experiment"] == "exp1"
    assert len(doc["per_run"]) == 2
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[2] == "oracle"


def test_estimator_failure_is_recorded_not_fatal(monkeypatch, tmp_path):
    """A failing estimator leaves a row with its message and exception
    class, next to a good estimator's rows, and both the JSON and the CSV
    report are written: the failed rows with an empty zero pattern."""
    import groupsparse.experiments as ex

    def boom(y, design, sigma2, ctx):
        raise RuntimeError("synthetic failure, with a comma")

    monkeypatch.setitem(ex.ESTIMATORS, "hgla", boom)
    rep = ex.run_monte_carlo(McConfig(experiment="exp1", runs=2,
                                      estimators=["hgla", "oracle"]))
    failed = [r for r in rep.per_run if r["method"] == "hgla"]
    assert len(failed) == 2
    assert all(r["error"] == "synthetic failure, with a comma"
               and r["error_type"] == "RuntimeError" for r in failed)
    assert all(r["error"] is None and r["error_type"] is None
               for r in rep.per_run if r["method"] == "oracle")
    assert rep.aggregates["hgla"]["runs_ok"] == 0
    assert rep.aggregates["oracle"]["runs_ok"] == 2
    rep.to_json(tmp_path / "rep.json")
    rep.to_csv(tmp_path / "rep.csv")
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert [r["error_type"] for r in doc["per_run"]] == \
        ["RuntimeError", None] * 2
    with open(tmp_path / "rep.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert [line[2] for line in lines] == ["hgla", "oracle"] * 2
    for line, row in zip(lines, rep.per_run):
        if row["error"] is None:
            assert line[4:] == ["".join("1" if z else "0"
                                        for z in row["zero_pattern"]), ""]
        else:
            assert line[3:] == ["", "", "synthetic failure, with a comma"]


def test_monte_carlo_rows_say_whether_their_fit_converged(monkeypatch,
                                                          tmp_path):
    """Each row carries converged: the fit's flag as a bool, None for a fit
    that raised; each aggregate counts its unconverged fits.  The CSV
    keeps its columns."""
    import groupsparse.experiments as ex

    def unconverged(y, design, sigma2, ctx):
        return EstimateResult(theta=np.zeros(design.m), converged=False)

    def boom(y, design, sigma2, ctx):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(ex.ESTIMATORS, "hgla", unconverged)
    monkeypatch.setitem(ex.ESTIMATORS, "mkl", boom)
    rep = ex.run_monte_carlo(McConfig(experiment="exp1", runs=2,
                                      estimators=["hgla", "mkl", "oracle"]))
    expect = {"hgla": False, "mkl": None, "oracle": True}
    assert all(r["converged"] is expect[r["method"]] for r in rep.per_run)
    assert {name: agg["unconverged"] for name, agg
            in rep.aggregates.items()} == {"hgla": 2, "mkl": 0, "oracle": 0}
    rep.to_csv(tmp_path / "rep.csv")
    with open(tmp_path / "rep.csv", newline="") as fh:
        assert all(len(line) == 6 for line in csv.reader(fh))


def test_glasso_reuses_the_mkl_fit_in_ctx(monkeypatch):
    """mkl then glasso on one ctx: the 30 validation points and the final
    solve run once, and glasso's penalty matches a glasso fit on its own."""
    import groupsparse.convex as cv
    import groupsparse.experiments as ex
    design, _, y, _ = gen_problem(McConfig(experiment="exp1", runs=1,
                                           master_seed=3), 0)
    sigma2 = ex.estimate_sigma2_ls(y, design.G)
    alone = ESTIMATORS["glasso"](y, design, sigma2, {})
    calls = []
    solve = cv._glasso_point

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cv, "_glasso_point", counted)
    ctx = {}
    mkl = ESTIMATORS["mkl"](y, design, sigma2, ctx)
    shared = ESTIMATORS["glasso"](y, design, sigma2, ctx)
    assert len(calls) == 31
    assert ctx["mkl"] is mkl
    assert shared.gamma == alone.gamma == np.sqrt(2.0 * mkl.gamma)
    assert np.array_equal(shared.theta, alone.theta)


def test_hgl_estimators_polish_the_shared_stage(monkeypatch):
    """hgla, hglb and hglc on one ctx compute the greedy path once, and
    hglb/hglc equal fit_hglasso's bit for bit."""
    import groupsparse.experiments as ex
    import groupsparse.selection as sel
    path = sel._greedy_path
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return path(*args, **kwargs)

    for run in range(3):
        design, _, y, _ = gen_problem(McConfig(experiment="exp1", runs=1,
                                               master_seed=21), run)
        sigma2 = ex.estimate_sigma2_ls(y, design.G)
        alone = {v: sel.fit_hglasso(y, design, variant=v)[0]
                 for v in ("hglb", "hglc")}
        with monkeypatch.context() as mp:
            mp.setattr(sel, "_greedy_path", counted)
            ctx = {}
            shared = {v: ESTIMATORS[v](y, design, sigma2, ctx)
                      for v in ("hgla", "hglb", "hglc")}
        assert len(calls) == run + 1
        for v in ("hglb", "hglc"):
            a, b = alone[v], shared[v]
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.lam, b.lam)
            assert (a.gamma, a.selected, a.converged, a.iterations,
                    a.objective) == (b.gamma, b.selected, b.converged,
                                     b.iterations, b.objective)
            assert a.converged and np.isfinite(a.objective)


def test_hgl_fits_report_their_path_and_local_minimum():
    """hgl fits carry the greedy path, and the hglb/hglc polish the
    smallest Hessian eigenvalue on its free blocks (finite on exp1)."""
    for run in range(3):
        design, _, y, sigma2 = gen_problem(McConfig(experiment="exp1",
                                                    runs=1, master_seed=4),
                                           run)
        ctx = {}
        fits = {v: ESTIMATORS[v](y, design, sigma2, ctx)
                for v in ("hgla", "hglb", "hglc")}
        trace = ctx["stage"]
        for v, res in fits.items():
            assert res.extra["greedy_order"] == trace.greedy_order
            assert res.extra["greedy_gains"] == trace.greedy_gains
            eig = res.extra["min_free_hessian_eig"]
            assert eig is None if v == "hgla" else np.isfinite(eig)
        order = fits["hgla"].extra["greedy_order"]
        assert sorted(order[:len(fits["hgla"].selected)]) == \
            fits["hgla"].selected


# ------------------------------------------------------------
# warm-started convex validation paths
# ------------------------------------------------------------

def _cold_cd_lasso(y, G, gamma, sigma2, max_iter=20000, tol=1e-12):
    """Cyclic coordinate descent on the residual from theta = 0, stopping
    on a relative objective decrease <= tol: the per-gamma Lasso solver the
    warm-started path replaced, kept as its reference."""
    theta = np.zeros(G.shape[1])
    colsq = np.einsum("ij,ij->j", G, G)
    r = y.copy()

    def objective():
        return r @ r / (2.0 * sigma2) + gamma * np.sum(np.abs(theta))

    obj = objective()
    for _ in range(max_iter):
        for j in range(G.shape[1]):
            old = theta[j]
            rho = G[:, j] @ r + colsq[j] * old
            new = np.sign(rho) * max(0.0, abs(rho) - sigma2 * gamma) / colsq[j]
            if new != old:
                r += G[:, j] * (old - new)
                theta[j] = new
        new_obj = objective()
        if obj - new_obj <= tol * (1.0 + abs(new_obj)):
            break
        obj = new_obj
    return theta


def _cold_est_lasso(y, design, sigma2):
    """est_lasso with every grid point solved from zero; returns
    (gamma, theta)."""
    from groupsparse.experiments import _lasso_grid
    from groupsparse.selection import _split
    y_tr, y_val, d_tr, d_val = _split(y, design)
    best = None
    for gamma in _lasso_grid(y_tr, d_tr.G, sigma2):
        th = _cold_cd_lasso(y_tr, d_tr.G, gamma, sigma2)
        err = np.linalg.norm(y_val - d_val.G @ th)
        if best is None or err < best[0]:
            best = (err, gamma)
    return best[1], _cold_cd_lasso(y, design.G, best[1], sigma2)


@pytest.mark.parametrize("experiment,shape,runs", [("exp1", {}, 5),
                                                   ("ada", {"n": 60}, 3)])
def test_lasso_path_matches_cold_coordinate_descent(experiment, shape, runs):
    """The warm path picks the gamma and support of per-gamma cold CD,
    with theta equal up to the cold solver's own imprecision."""
    import groupsparse.experiments as ex
    cfg = McConfig(experiment=experiment, runs=1, master_seed=77,
                   estimators=[], **shape)
    for run in range(runs):
        design, _, y, _ = gen_problem(cfg, run)
        sigma2 = ex.estimate_sigma2_ls(y, design.G)
        gamma, theta = _cold_est_lasso(y, design, sigma2)
        res = ESTIMATORS["lasso"](y, design, sigma2, {})
        assert res.gamma == gamma
        assert np.array_equal(res.theta != 0, theta != 0)
        assert np.linalg.norm(res.theta - theta) <= \
            1e-5 * np.linalg.norm(theta)
        assert res.converged and res.extra["unconverged_solves"] == 0


def _cold_est_mkl(y, design, sigma2, ctx):
    """est_mkl with every validation solve started from zero and scored by
    the posterior mean at its scales; returns (gamma, the full-data solve
    from zero)."""
    import groupsparse.experiments as ex
    from conftest import mkl_recover_theta
    gamma_ref = ex._stage(y, design, ctx).chosen_gamma
    grid = np.logspace(np.log10(1e-2 * gamma_ref),
                       np.log10(1e4 * gamma_ref), 30)
    y_tr, y_val, d_tr, d_val = ex._split(y, design)
    best = None
    for gamma in grid:
        lam = ex.solve_mkl_lambda(y_tr, d_tr, sigma2, gamma).lam
        th = mkl_recover_theta(lam, y_tr, d_tr, sigma2).theta
        err = np.linalg.norm(y_val - d_val.G @ th)
        if best is None or err < best[0]:
            best = (err, gamma)
    return best[1], ex.solve_mkl_lambda(y, design, sigma2, best[1])


def test_mkl_warm_path_matches_cold_solves(monkeypatch):
    """Warm-started validation picks the cold path's gamma; the full-data
    refit starts from the validation path's point at that gamma and
    returns the cold refit's blocks and theta to 1e-12 relative."""
    import groupsparse.experiments as ex
    glasso, solve = ex.glasso_path, ex.solve_mkl_lambda
    paths, starts = [], []

    def recorded_path(y, des, s2, regs):
        paths.append((regs, glasso(y, des, s2, regs)))
        return paths[-1][1]

    def recorded(y, des, s2, gam, theta0=None):
        starts.append(theta0)
        return solve(y, des, s2, gam, theta0=theta0)

    cfg = McConfig(experiment="exp1", runs=1, master_seed=77, estimators=[])
    for run in range(3):
        design, _, y, _ = gen_problem(cfg, run)
        sigma2 = ex.estimate_sigma2_ls(y, design.G)
        ctx = {}
        gamma, cold = _cold_est_mkl(y, design, sigma2, ctx)
        paths.clear()
        starts.clear()
        with monkeypatch.context() as mp:
            mp.setattr(ex, "glasso_path", recorded_path)
            mp.setattr(ex, "solve_mkl_lambda", recorded)
            res = ESTIMATORS["mkl"](y, design, sigma2, ctx)
        assert res.gamma == gamma
        assert res.selected == cold.selected
        assert np.linalg.norm(res.theta - cold.theta) <= \
            1e-12 * np.linalg.norm(cold.theta)
        assert res.converged and res.extra["unconverged_solves"] == 0
        (regs, path), = paths
        row, = np.flatnonzero(regs == np.sqrt(2.0 * gamma))
        assert len(starts) == 1 and np.array_equal(starts[0], path.theta[row])


def test_converged_is_false_when_one_inner_solve_fails(monkeypatch):
    """One unconverged inner solve (one grid point of the Lasso homotopy
    path, failed at its certificate _ActiveSet.points, or one point of the
    Group Lasso path of mkl and glasso, failed at _glasso_point) makes
    lasso, adalasso, mkl and glasso report converged=False and count
    it."""
    import groupsparse.convex as cv
    import groupsparse.experiments as ex
    design, _, y, _ = gen_problem(McConfig(experiment="exp1", runs=1,
                                           master_seed=3), 0)
    sigma2 = ex.estimate_sigma2_ls(y, design.G)

    def lasso_point_fails(out):
        thA, ok = out
        return thA, np.r_[False, ok[1:]]

    def glasso_point_fails(out):
        return (out[0], False, *out[2:])

    def fail_third_call(mp, owner, name, fails):
        solve = getattr(owner, name)
        calls = []

        def wrapped(*args, **kwargs):
            out = solve(*args, **kwargs)
            calls.append(1)
            return fails(out) if len(calls) == 3 else out
        mp.setattr(owner, name, wrapped)

    def adalasso():
        with monkeypatch.context() as mp:  # this test's gamma and eta grids
            mp.setattr(ex, "_lasso_grid",
                       lambda y, G, sigma2: np.logspace(-1, 2, 4))
            mp.setattr(ex, "ADALASSO_ETAS", np.array([1.0, 2.0]))
            return ESTIMATORS["adalasso"](y, design, sigma2, {})

    fits = {
        "lasso": lambda: ESTIMATORS["lasso"](y, design, sigma2, {}),
        "adalasso": adalasso,
        "mkl": lambda: ESTIMATORS["mkl"](y, design, sigma2, {}),
        "glasso": lambda: ESTIMATORS["glasso"](y, design, sigma2, {}),
    }
    for name, fit in fits.items():
        assert fit().extra["unconverged_solves"] == 0
        with monkeypatch.context() as mp:
            if name in ("mkl", "glasso"):
                fail_third_call(mp, cv, "_glasso_point", glasso_point_fails)
            else:
                fail_third_call(mp, cv._ActiveSet, "points",
                                lasso_point_fails)
            res = fit()
        assert res.converged is False
        assert res.extra["unconverged_solves"] == 1
