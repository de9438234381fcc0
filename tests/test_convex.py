"""Convex estimators: Lasso, Group Lasso, kernel-scale problem, AdaLasso."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from groupsparse import GroupedDesign, McConfig, solve_mkl_lambda
from groupsparse.convex import (
    ADALASSO_WEIGHT_CAP, ConvexFitConfig, _adalasso_weights, _newton,
    adalasso_path, glasso_path, kkt_residual_mkl, lasso_path, solve_glasso,
    solve_lasso,
)
from groupsparse.experiments import ESTIMATORS, _lasso_grid, build_arx, \
    est_adalasso, gen_arx_series, gen_problem
from groupsparse.selection import _split, estimate_sigma2_ls

from conftest import adalasso_reference, cold_cd_glasso, lasso_on_support, \
    lasso_path_reference, mkl_pqn, mkl_recover_theta, newton_reference, \
    orthogonal_design, random_grouped


def test_convex_imports_only_the_model_module():
    """The solvers sit below the estimators: groupsparse/convex.py imports
    from no package module other than .model (validation, which needs
    selection._split, is the estimators')."""
    import ast
    import pathlib
    import groupsparse.convex as cv
    tree = ast.parse(pathlib.Path(cv.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else \
                {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names]
            found |= {n.split(".", 1)[-1] for n in names
                      if n.split(".")[0] == "groupsparse"}
    assert found == {"model"}


def test_config_validation():
    with pytest.raises(ValueError):
        ConvexFitConfig(reg_param=-1.0)
    with pytest.raises(TypeError):      # a constant, not a field
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


def _lasso_path(y, G, gammas, sigma2=1.0):
    """lasso_path on the Gram matrix and correlations of (y, G)."""
    return lasso_path(G.T @ G, G.T @ y, gammas, sigma2)


@pytest.mark.parametrize("experiment,shape", [("exp1", {}),
                                              ("ada", {"n": 60})])
def test_warm_path_satisfies_kkt_at_every_grid_point(experiment, shape,
                                                     monkeypatch):
    """Each point of a warm-started validation path is a converged KKT
    point; every point of est_mkl's Group Lasso path and its one
    full-data solve pass kkt_residual_mkl at the scales
    lam_i = ||theta_i|| / sqrt(2 gamma)."""
    import groupsparse.experiments as ex
    glasso, solve = ex.glasso_path, ex.solve_mkl_lambda
    mkl_points, refits = [], []

    def recorded_path(y, des, s2, regs):
        path = glasso(y, des, s2, regs)
        mkl_points.extend((y, des, s2, *point) for point in zip(
            regs, path.theta, path.converged))
        return path

    def recorded(y, des, s2, gam, theta0=None):
        res = solve(y, des, s2, gam, theta0=theta0)
        refits.append(gam)
        mkl_points.append((y, des, s2, np.sqrt(2.0 * gam), res.theta,
                           res.converged))
        return res

    monkeypatch.setattr(ex, "glasso_path", recorded_path)
    monkeypatch.setattr(ex, "solve_mkl_lambda", recorded)
    cfg = McConfig(experiment=experiment, runs=1, master_seed=11,
                   estimators=[], **shape)
    for run in range(3):
        design, _, y, _ = gen_problem(cfg, run)
        s2 = estimate_sigma2_ls(y, design.G)
        y_tr, _, d_tr, _ = _split(y, design)
        grid = _lasso_grid(y_tr, d_tr.G, s2)
        path = _lasso_path(y_tr, d_tr.G, grid, s2)
        assert path.theta.shape == (grid.size, design.m)
        for gamma, theta, converged in zip(grid, path.theta,
                                           path.converged):
            assert converged
            assert _kkt_violation(y_tr, d_tr.G, theta, s2, gamma) \
                <= 1e-8 * gamma
        mkl_points.clear()
        refits.clear()
        ex.est_mkl(y, design, s2, {})
        assert len(refits) == 1 and len(mkl_points) == 31
        for y_, d_, s2_, reg, theta, converged in mkl_points:
            gam = reg * reg / 2.0
            lam = np.array([np.linalg.norm(theta[sl])
                            for sl in d_.slices]) / reg
            assert converged
            assert kkt_residual_mkl(lam, y_, d_, s2_, gam) \
                <= 1e-8 * (1 + 2 * gam)


# seeds chosen for their ties: in the first, eight columns reach the bound
# together at one breakpoint
TIE_SEEDS = (218, 504)


def _tie_design(seed):
    """An integer 6 x 27 design and a rounded y, whose correlations tie
    many ways along the Lasso path."""
    tie_rng = np.random.default_rng(seed)
    G = tie_rng.integers(-2, 3, size=(6, 27)).astype(float)
    y = np.round(G @ np.where(tie_rng.random(27) < 0.3, 3.0
                              * tie_rng.standard_normal(27), 0.0)
                 + 0.5 * tie_rng.standard_normal(6))
    return G, y


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
    ints = [(*_tie_design(seed), 1e-4) for seed in TIE_SEEDS]
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
        path = _lasso_path(y, G, grid, s2)
        assert path.converged.all()
        for gamma, theta in zip(grid, path.theta):
            assert _kkt_violation(y, G, theta, s2, gamma) \
                <= 1e-8 * gamma + 1e-14 * gmax
    assert path.theta[0, 3] != 0.0
    G = rng.standard_normal((25, 6))
    y = rng.standard_normal(25)
    fit = solve_lasso(y, G, ConvexFitConfig(reg_param=0.0))
    ls, *_ = np.linalg.lstsq(G, y, rcond=None)
    assert fit.converged and fit.iterations >= G.shape[1] - 1
    assert np.linalg.norm(fit.theta - ls) <= 1e-10 * np.linalg.norm(ls)


def test_lasso_path_matches_exact_solves_on_stress_designs():
    """lasso_path on the columns of ten seeded designs of every
    STRESS_KINDS kind, 30 penalties from 1e-4 gamma_max up to below
    gamma_max (where theta is zero up to rounding, which no relative test
    resolves): every point is converged, meets the KKT conditions to
    1e-8 gamma + 1e-14 gamma_max, and is within 1e-10 (relative) of the
    exact solution on its own support and signs by np.linalg.solve
    (lasso_on_support)."""
    rng = np.random.default_rng(21)
    for kind in STRESS_KINDS:
        for _ in range(10):
            des, y = _stress_design(kind, rng)
            s2 = float(rng.uniform(0.2, 2.0))
            gmax = np.max(np.abs(des.G.T @ y)) / s2
            grid = gmax * np.logspace(-4, 0, 31)[:-1]
            path = _lasso_path(y, des.G, grid, s2)
            assert path.converged.all(), kind
            for gamma, theta in zip(grid, path.theta):
                assert _kkt_violation(y, des.G, theta, s2, gamma) \
                    <= 1e-8 * gamma + 1e-14 * gmax, kind
                ref = lasso_on_support(y, des.G, theta, s2, gamma)
                assert np.linalg.norm(theta - ref) \
                    <= 1e-10 * np.linalg.norm(ref), kind


def _assert_reference_path(y, G, grid, s2=1.0):
    """lasso_path and lasso_path_reference on (y, G) agree bit for bit:
    theta, converged and work."""
    H, b = G.T @ G, G.T @ y
    path = lasso_path(H, b, grid, s2)
    ref = lasso_path_reference(H, b, grid, s2)
    assert np.array_equal(path.theta, ref.theta)
    assert np.array_equal(path.converged, ref.converged)
    assert path.work == ref.work


def test_lasso_path_matches_the_reference_on_stress_designs():
    """Ten seeded designs of every STRESS_KINDS kind (wide ones are
    m > n), each on grids below, spanning and above gamma_max and one
    ending at gamma = 0: the same points, flags and counts as
    lasso_path_reference."""
    rng = np.random.default_rng(21)
    for kind in STRESS_KINDS:
        for _ in range(10):
            des, y = _stress_design(kind, rng)
            s2 = float(rng.uniform(0.2, 2.0))
            gmax = np.max(np.abs(des.G.T @ y)) / s2
            for grid in (gmax * np.logspace(-4, 0, 31)[:-1],
                         gmax * np.logspace(-3, 0.2, 12),
                         np.r_[gmax * np.logspace(-2, 0, 5), 0.0]):
                _assert_reference_path(y, des.G, grid, s2)


def test_lasso_path_matches_the_reference_on_wide_and_tied_designs(rng):
    """m > n designs (Gaussian 12 x 30, and exp1 with p = 40 on est_lasso's
    grid), duplicated and sign-flipped columns, a column shrunk by
    ADALASSO_WEIGHT_CAP and the integer designs with many-way ties: the
    same points, flags and counts as lasso_path_reference."""
    des, _, y, s2 = gen_problem(McConfig(experiment="exp1", runs=1, p=40,
                                         master_seed=5, estimators=[]), 0)
    assert des.m > des.n
    _assert_reference_path(y, des.G, _lasso_grid(y, des.G, s2), s2)
    dup = rng.standard_normal((30, 8))
    dup[:, 1] = dup[:, 0]
    dup[:, 5] = -dup[:, 2]
    capped = rng.standard_normal((30, 6))
    capped[:, 3] /= ADALASSO_WEIGHT_CAP
    cases = [(rng.standard_normal((12, 30)), rng.standard_normal(12)),
             (dup, dup[:, :4] @ [1.0, -2.0, 0.5, 1.5]
              + 0.3 * rng.standard_normal(30)),
             (capped, capped @ [1.0, 0.0, -2.0, 3e8, 0.0, 1.0]
              + 0.3 * rng.standard_normal(30)),
             *(_tie_design(seed) for seed in TIE_SEEDS)]
    for G, y in cases:
        gmax = np.max(np.abs(G.T @ y)) / 0.5
        for lo in (1e-4, 1e-12):
            _assert_reference_path(y, G, np.logspace(
                np.log10(lo * gmax), np.log10(gmax), 30), 0.5)


def test_lasso_certificate_rejects_wrong_signs_and_violations(rng):
    """The checks behind converged, on an orthogonal design whose Lasso
    solution is the soft threshold of G^T y / n: the exact solve on the
    true support and signs is certified and equals it; the same support
    with one sign flipped fails the sign check, and the support without
    one of its coordinates leaves that correlation above mu."""
    from groupsparse.convex import _ActiveSet
    des = orthogonal_design(rng, [1] * 6, 40)
    y = des.G @ [3.0, -2.0, 0.0, 1.0, 0.0, 0.0] \
        + 0.3 * rng.standard_normal(40)
    H, b = des.G.T @ des.G, des.G.T @ y
    mu = np.sort(np.abs(b))[-4] + 1e-3  # three coordinates above it
    A = np.flatnonzero(np.abs(b) > mu)
    soft = np.sign(b) * np.maximum(0.0, np.abs(b) - mu) / des.n
    slack = 1e-14 * np.max(np.abs(b))

    def certified(A, s):
        act = _ActiveSet(H)
        assert act.reset(A, s, np.zeros(A.size))
        thA, ok = act.points(b, np.array([mu]), slack)
        theta = np.zeros(b.size)
        theta[A] = thA[0]
        return theta, ok[0]

    theta, ok = certified(A, np.sign(b[A]))
    assert ok and np.allclose(theta, soft, rtol=1e-12, atol=0.0)
    flipped = np.sign(b[A])
    flipped[0] = -flipped[0]
    assert not certified(A, flipped)[1]
    assert not certified(A[1:], np.sign(b[A[1:]]))[1]


@st.composite
def _integer_problem(draw):
    """A design of 2-8 rows and 2-12 columns with entries in -2..2 and y in
    -4..4: columns repeat, vanish and tie many ways."""
    n, m = draw(st.integers(2, 8)), draw(st.integers(2, 12))
    G = draw(arrays(np.float64, (n, m), elements=st.integers(-2, 2)))
    y = draw(arrays(np.float64, n, elements=st.integers(-4, 4)))
    return G, y


@given(_integer_problem())
@settings(max_examples=150, deadline=None)
def test_lasso_path_certifies_integer_designs(problem):
    """Every positive grid point of lasso_path on a small integer design is
    converged and meets the KKT conditions to 1e-8 gamma + 1e-14
    gamma_max."""
    G, y = problem
    gmax = np.max(np.abs(G.T @ y))
    assume(gmax > 0)
    grid = gmax * np.logspace(-4, 0, 12)
    path = _lasso_path(y, G, grid)
    assert path.converged.all()
    for gamma, theta in zip(grid, path.theta):
        assert _kkt_violation(y, G, theta, 1.0, gamma) \
            <= 1e-8 * gamma + 1e-14 * gmax


@given(_integer_problem())
@settings(max_examples=150, deadline=None)
def test_lasso_path_matches_the_reference_on_integer_designs(problem):
    """Small integer designs, where columns repeat, vanish and tie many
    ways, on a grid down to 1e-4 gamma_max and on one that ends at
    gamma = 0: the same points, flags and counts as lasso_path_reference."""
    G, y = problem
    gmax = np.max(np.abs(G.T @ y))
    assume(gmax > 0)
    _assert_reference_path(y, G, gmax * np.logspace(-4, 0, 12))
    _assert_reference_path(y, G, np.r_[gmax * np.logspace(-2, 0, 4), 0.0])


def test_path_slope_runs_only_where_one_event_does_not_settle(monkeypatch):
    """The Lasso path takes its slope from the factor of H_AA at nearly
    every breakpoint: over est_lasso on five exp1 problems _path_slope
    runs at no more than 5% of the breakpoints walked, and where it does
    not run at all the validation path and the refit made one
    factorization per segment.  On the integer designs with many-way ties
    it does run."""
    import groupsparse.convex as cv
    from groupsparse.experiments import est_lasso
    slope, calls = cv._path_slope, []

    def counted(*args):
        calls.append(1)
        return slope(*args)

    monkeypatch.setattr(cv, "_path_slope", counted)
    breakpoints = 0
    for run in range(5):
        design, _, y, _ = gen_problem(McConfig(
            experiment="exp1", runs=1, master_seed=77, estimators=[]), run)
        before = len(calls)
        fit = est_lasso(y, design, estimate_sigma2_ls(y, design.G), {})
        assert fit.converged
        breakpoints += fit.extra["breakpoints"]
        if len(calls) == before:
            # two paths, each with one segment more than its breakpoints
            assert fit.extra["factorizations"] \
                == fit.extra["breakpoints"] + 2
    assert breakpoints > 0 and len(calls) <= 0.05 * breakpoints
    calls.clear()
    for seed in TIE_SEEDS:
        G, y = _tie_design(seed)
        gmax = np.max(np.abs(G.T @ y))
        _lasso_path(y, G, np.logspace(np.log10(1e-4 * gmax),
                                      np.log10(gmax), 30))
    assert calls


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
        gl = solve_glasso(y, des, s2, gam)
        la = solve_lasso(y, G, ConvexFitConfig(reg_param=gam), sigma2=s2)
        assert np.linalg.norm(gl.theta - la.theta) <= 1e-8 * (
            1 + np.linalg.norm(la.theta))


def _block_kkt_violation(y, des, theta, s2, reg):
    """Largest violation of the Group Lasso optimality conditions, in
    units of a = s2 reg, from g = G^T (y - G theta): g_i = a theta_i /
    ||theta_i|| on active blocks, ||g_i|| <= a on the others."""
    a = s2 * reg
    g = des.G.T @ (y - des.G @ theta)
    worst = 0.0
    for sl in des.slices:
        nrm = np.linalg.norm(theta[sl])
        worst = max(worst, np.linalg.norm(g[sl] - a * theta[sl] / nrm)
                    if nrm > 0 else np.linalg.norm(g[sl]) - a)
    return worst / a


def test_glasso_stops_on_a_kkt_point(rng):
    """Block optimality at the output: G_i^T r / sigma2 equals
    reg theta_i / ||theta_i|| on active blocks, with norm <= reg on the
    others."""
    des = GroupedDesign(rng.standard_normal((40, 12)), [3] * 4)
    y = des.G @ np.repeat([1.0, 0.0, -0.5, 0.1], 3) \
        + 0.5 * rng.standard_normal(40)
    s2 = 0.25
    for reg in (0.5, 5.0, 20.0, 60.0):
        fit = solve_glasso(y, des, s2, reg)
        assert fit.converged
        # started from its own solution, the corrector certifies it with
        # at most one Newton step and no retreat
        warm = solve_glasso(y, des, s2, reg, theta0=fit.theta)
        assert warm.converged and warm.iterations == 0
        assert warm.extra == {"newton_steps": int(np.any(fit.theta)),
                              "blocks_added": 0, "retreats": 0}
        assert np.allclose(warm.theta, fit.theta, rtol=1e-12, atol=0.0)
        assert _block_kkt_violation(y, des, fit.theta, s2, reg) <= 1e-8


def _path_designs():
    """(name, design, y, sigma2, lowest penalty as a fraction of the one
    that zeroes every block): exp1, exp2 (correlated columns), unequal
    block sizes, the ARX design and m > n (exp1 with p = 40)."""
    for exp, lo in (("exp1", 1e-3), ("exp2", 3e-2)):
        des, _, y, _ = gen_problem(McConfig(experiment=exp, runs=1,
                                            master_seed=5, estimators=[]), 0)
        yield exp, des, y, estimate_sigma2_ls(y, des.G), lo
    rng = np.random.default_rng(3)
    G = rng.standard_normal((30, 10))
    y = G[:, :4] @ [1.0, -2.0, 0.5, 1.0] + 0.5 * rng.standard_normal(30)
    yield "unequal", GroupedDesign(G, [1, 3, 4, 2]), y, 0.25, 1e-3
    prob = build_arx(gen_arx_series(T=400, seed=4), 10)
    yield "arx", prob.design, prob.y, \
        estimate_sigma2_ls(prob.y, prob.design.G), 1e-3
    des, _, y, s2 = gen_problem(McConfig(experiment="exp1", runs=1, p=40,
                                         master_seed=5, estimators=[]), 0)
    yield "wide", des, y, s2, 3e-2


@pytest.mark.parametrize("name,des,y,s2,lo", [
    pytest.param(*case, id=case[0]) for case in _path_designs()])
def test_glasso_path_matches_cold_coordinate_descent(name, des, y, s2, lo):
    """Every point of one warm path equals cold block coordinate descent
    at its penalty to 1e-10 relative, and passes an independent block-KKT
    check at 1e-8 of sigma2 reg (the top of the grid zeroes every
    block)."""
    b = des.G.T @ y
    top = max(np.linalg.norm(b[sl]) for sl in des.slices) / s2
    regs = np.logspace(np.log10(lo * top), np.log10(2.0 * top), 8)
    path = glasso_path(y, des, s2, regs)
    assert not np.any(path.theta[-1]) and path.converged.all()
    for reg, theta in zip(regs, path.theta):
        ref = cold_cd_glasso(y, des, s2, reg)
        assert np.linalg.norm(theta - ref) <= 1e-10 * np.linalg.norm(ref)
        assert _block_kkt_violation(y, des, theta, s2, reg) <= 1e-8


def test_glasso_path_equals_lasso_path_for_singleton_blocks(rng):
    """With blocks of one the Group Lasso path is the Lasso path."""
    for _ in range(10):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(m, m + 15))
        G = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        s2 = float(rng.uniform(0.3, 1.5))
        grid = _lasso_grid(y, G, s2)
        gl = glasso_path(y, GroupedDesign(G, [1] * m), s2, grid)
        la = _lasso_path(y, G, grid, s2)
        assert gl.converged.all() and la.converged.all()
        # relative to the path's largest solution: at the top of the grid
        # both are zero up to rounding
        scale = np.linalg.norm(la.theta[0])
        assert np.all(np.linalg.norm(gl.theta - la.theta, axis=1)
                      <= 1e-10 * scale)


def test_glasso_cold_solve_is_certified_through_the_retreat():
    """A cold solve on a correlated exp2 design, where Newton from the
    blocks added at zero keeps turning blocks around: the point is reached
    by the retreat from the top of the path (iterations counts its
    corrector runs), and it is certified."""
    des, _, y, _ = gen_problem(McConfig(experiment="exp2", runs=1,
                                        master_seed=7, estimators=[]), 0)
    s2 = estimate_sigma2_ls(y, des.G)
    b = des.G.T @ y
    reg = 1e-3 * max(np.linalg.norm(b[sl]) for sl in des.slices) / s2
    fit = solve_glasso(y, des, s2, reg)
    assert fit.iterations > 0 and fit.converged
    assert _block_kkt_violation(y, des, fit.theta, s2, reg) <= 1e-8


STRESS_KINDS = ("random", "wide", "duplicated", "zero_column", "low_rank",
                "badly_scaled", "mixed", "zero_block")


def _stress_design(kind, rng):
    """A small seeded design of one STRESS_KINDS kind and y from a sparse
    theta: blocks of 3 (mixed: 1 to 5 columns), n > m except for wide, and
    a block copied onto the next, a zero column, rank m / 2, columns
    scaled over six decades or a block of zero columns."""
    sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(4, 8)))] \
        if kind == "mixed" else [3] * int(rng.integers(3, 7))
    m = sum(sizes)
    n = int(rng.integers(m // 3 + 2, m)) if kind == "wide" else \
        int(rng.integers(m + 2, 2 * m + 10))
    G = rng.standard_normal((n, m))
    if kind == "duplicated":
        G[:, 3:6] = G[:, 0:3]
    elif kind == "zero_column":
        G[:, int(rng.integers(m))] = 0.0
    elif kind == "low_rank":
        G = G[:, :m // 2] @ rng.standard_normal((m // 2, m))
    elif kind == "badly_scaled":
        G *= 10.0 ** rng.uniform(-3.0, 3.0, m)
    elif kind == "zero_block":
        G[:, 3 * int(rng.integers(len(sizes))) + np.arange(3)] = 0.0
    y = G @ (rng.standard_normal(m) * (rng.random(m) < 0.4)) \
        + 0.5 * rng.standard_normal(n)
    return GroupedDesign(G, sizes), y


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_glasso_certifies_every_point_of_stress_designs():
    """Ten seeded designs of each STRESS_KINDS kind: every point of a warm
    path over eight penalties and every cold solve at three small ones
    (the corrector from zero fails on many and the retreat takes over) is
    converged and passes the block-KKT check at 1e-8; at reg = 0 the
    solve is the minimum-norm least-squares solution and converged.  A
    RuntimeWarning fails it: on zero_block no join step may divide by the
    zero block's largest eigenvalue."""
    rng = np.random.default_rng(20)
    retreats = 0
    for kind in STRESS_KINDS:
        for _ in range(10):
            des, y = _stress_design(kind, rng)
            s2 = float(rng.uniform(0.2, 2.0))
            b = des.G.T @ y
            top = max(np.linalg.norm(b[sl]) for sl in des.slices) / s2
            regs = top * np.logspace(-4, 0.1, 8)
            path = glasso_path(y, des, s2, regs)
            cold = [solve_glasso(y, des, s2, reg) for reg in regs[:3]]
            assert path.converged.all() and all(
                fit.converged for fit in cold), kind
            for reg, theta in zip(np.tile(regs, 2), [*path.theta, *(
                    fit.theta for fit in cold)]):
                assert _block_kkt_violation(y, des, theta, s2, reg) \
                    <= 1e-8, kind
            retreats += path.work["retreats"] + sum(
                fit.iterations for fit in cold)
            fit = solve_glasso(y, des, s2, 0.0)
            ls = np.linalg.lstsq(des.G, y, rcond=None)[0]
            assert fit.converged, kind
            assert np.linalg.norm(fit.theta - ls) <= \
                1e-10 * np.linalg.norm(ls), kind
    assert retreats > 0


def test_glasso_at_zero_penalty_is_min_norm_least_squares():
    """reg = 0 on an m > n design (exp1 with p = 40): the minimum-norm
    least-squares solution, converged."""
    des, _, y, s2 = gen_problem(McConfig(experiment="exp1", runs=1, p=40,
                                         master_seed=5, estimators=[]), 0)
    assert des.m > des.n
    fit = solve_glasso(y, des, s2, 0.0)
    ls = np.linalg.lstsq(des.G, y, rcond=None)[0]
    assert fit.converged and fit.gamma == 0.0
    assert np.linalg.norm(fit.theta - ls) <= 1e-10 * np.linalg.norm(ls)


def test_newton_step_matches_the_lu_reference():
    """_newton's Cholesky step against newton_reference (the Jacobian
    from np.eye and np.outer, solved by LU) from the same start, on 300
    seeded nonsingular active sets (n > m, blocks of 1 to 5 columns,
    three penalties, starts near the solution): the same step count and
    turned flags, and x within 1e-12 relative.  Exactly singular
    Jacobians are left out: LU and Cholesky detect a zero pivot
    differently there, and the certificate settles those cases (the
    duplicated stress designs)."""
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(300):
        sizes = rng.integers(1, 6, size=int(rng.integers(2, 7)))
        blk = np.repeat(np.arange(sizes.size), sizes)
        G = rng.standard_normal((blk.size + int(rng.integers(2, 20)),
                                 blk.size))
        H = G.T @ G
        a = float(rng.choice([0.1, 1.0, 10.0])) * np.sqrt(np.mean(np.diag(H)))
        # b makes x_star an exact solution; start near it
        x_star = rng.standard_normal(blk.size)
        nrm = np.sqrt(np.bincount(blk, x_star * x_star))[blk]
        b = H @ x_star + a * x_star / nrm
        x0 = x_star + float(rng.choice([1e-3, 1e-1, 0.5])) \
            * rng.standard_normal(blk.size)
        x_ref, k_ref, turned_ref = newton_reference(H, b, x0, blk, a)
        x, k, turned = _newton(H, b, x0, blk, a)
        assert k == k_ref
        if turned_ref is None:
            assert turned is None
        else:
            assert np.array_equal(turned, turned_ref)
        assert x is not None and x_ref is not None
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        outcomes.add(turned_ref is None)
    assert outcomes == {True, False}  # converged and turned cases both


def test_glasso_certifies_near_duplicate_columns():
    """The Group Lasso's counterpart of the Lasso on near-duplicate
    columns: 20 seeded 30 x 8 designs in 4 blocks of 2, with column 2 =
    column 0 + eps noise (across blocks) and column 1 = column 0 + eps
    noise (within a block), eps from 1e-4 down to exact copies.  Every
    point of a path over 30 penalties from 1e-4 to 1 of the one that
    zeroes every block is converged and passes the block-KKT check at
    1e-8."""
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 0.0):
        rng = np.random.default_rng(35)
        for _ in range(20):
            G = rng.standard_normal((30, 8))
            G[:, 2] = G[:, 0] + eps * rng.standard_normal(30)
            G[:, 1] = G[:, 0] + eps * rng.standard_normal(30)
            des = GroupedDesign(G, [2] * 4)
            y = G @ (rng.standard_normal(8) * (rng.random(8) < 0.5)) \
                + 0.5 * rng.standard_normal(30)
            s2 = 0.5
            top = np.max(des.block_norms(G.T @ y)) / s2
            regs = top * np.logspace(-4, 0, 30)
            path = glasso_path(y, des, s2, regs)
            assert path.converged.all(), eps
            for reg, theta in zip(regs, path.theta):
                assert _block_kkt_violation(y, des, theta, s2, reg) \
                    <= 1e-8, eps


def test_glasso_rejects_a_negative_penalty(rng):
    des = random_grouped(rng)
    with pytest.raises(ValueError, match="nonnegative"):
        glasso_path(rng.standard_normal(des.n), des, 1.0, [1.0, -1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_paths_reject_a_non_finite_penalty(rng, bad):
    """A NaN or infinite penalty raises ValueError in both paths (a NaN
    mu is never drained from the Lasso path's grid, so the walk would
    not end)."""
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    with pytest.raises(ValueError, match="finite"):
        lasso_path(des.gram(), des.G.T @ y, [1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        lasso_path(des.gram(), des.G.T @ y, [1.0], sigma2=bad)
    with pytest.raises(ValueError, match="finite"):
        glasso_path(y, des, 1.0, [1.0, bad])


def test_glasso_block_zero_condition(rng):
    """A large enough penalty zeroes every block exactly."""
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    s2 = 0.9
    reg = 10.0 * np.linalg.norm(des.G.T @ y) / s2
    fit = solve_glasso(y, des, s2, reg)
    assert np.all(fit.theta == 0.0)
    assert fit.selected == []


def test_glasso_objective_never_increases(rng):
    """The reported point is minimal over a perturbation neighborhood."""
    des = random_grouped(rng)
    y = rng.standard_normal(des.n)
    s2, reg = 0.6, 0.8
    fit = solve_glasso(y, des, s2, reg)

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
        gth = solve_glasso(y, des, s2, np.sqrt(2 * gam)).theta
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

def _fixed_grids(monkeypatch, gammas, etas=None):
    """est_adalasso with its gamma grid (and its eta grid, if given) fixed
    to these tests' inputs."""
    import groupsparse.experiments as ex
    monkeypatch.setattr(ex, "_lasso_grid", lambda y, G, sigma2: gammas)
    if etas is not None:
        monkeypatch.setattr(ex, "ADALASSO_ETAS", etas)


def test_adalasso_weights_reciprocal(rng, monkeypatch):
    """eta=1 weights are 1/|theta_ls|; check through a transparent fit."""
    n = 60
    G = np.kron(np.ones((n // 2, 1)), np.eye(2))
    y = G @ np.array([2.0, 0.5]) + 0.01 * rng.standard_normal(n)
    _fixed_grids(monkeypatch, np.array([1e-6]), np.array([1.0]))
    fit = est_adalasso(y, GroupedDesign(G, [1, 1]), 0.01, {})
    assert np.allclose(fit.theta, [2.0, 0.5], atol=0.05)
    assert fit.extra["eta"] == 1.0
    path = adalasso_path(G, y, [1e-6], [1.0], 0.01)  # the refit itself
    assert np.array_equal(path.theta[0], fit.theta)


def test_adalasso_one_row_cannot_be_split():
    """est_adalasso validates on the second half of the rows (_split's
    split); one row leaves no validation half."""
    with pytest.raises(ValueError, match="degenerate split"):
        est_adalasso(np.array([3.0]),
                     GroupedDesign(np.array([[1.0, 2.0]]), [1, 1]), 1.0, {})


def test_adalasso_prunes_null_variables(rng, monkeypatch):
    n, m = 80, 6
    G = rng.standard_normal((n, m))
    theta = np.array([3.0, 0.0, 2.0, 0.0, 0.0, 1.5])
    y = G @ theta + 0.3 * rng.standard_normal(n)
    _fixed_grids(monkeypatch, np.logspace(-2, 2, 15))
    fit = est_adalasso(y, GroupedDesign(G, [1] * m), 0.09, {})
    assert set(np.nonzero(np.abs(fit.theta) > 1e-8)[0]) <= {0, 2, 5, 1, 3, 4}
    # the three real coefficients survive
    assert all(abs(fit.theta[j]) > 0.5 for j in (0, 2, 5))


@pytest.mark.parametrize("experiment,seed,runs,shape", [
    ("exp1", 0, (0, 1, 2), {}), ("exp2", 0, (0, 1, 2), {}),
    ("exp2", 42, (6, 12, 23), {}), ("ada", 0, (0, 1, 2), {"n": 60})])
def test_est_adalasso_matches_the_reference_bit_for_bit(experiment, seed,
                                                        runs, shape):
    """ESTIMATORS["adalasso"] (_validate over one adalasso_path, then the
    refit) is adalasso_reference on the training half's _lasso_grid, bit
    for bit: theta, gamma, eta, converged and every work count.  exp2
    seed 42 runs 6, 12 and 23 have weights down to ~1e-9."""
    for run in runs:
        design, _, y, _ = gen_problem(McConfig(
            experiment=experiment, runs=1, master_seed=seed, estimators=[],
            **shape), run)
        s2 = estimate_sigma2_ls(y, design.G)
        fit = ESTIMATORS["adalasso"](y, design, s2, {})
        y_tr, _, d_tr, _ = _split(y, design)
        ref = adalasso_reference(y, design.G, s2,
                                 {"gamma": _lasso_grid(y_tr, d_tr.G, s2)})
        assert np.array_equal(fit.theta, ref.theta), (seed, run)
        assert fit.gamma == ref.gamma and fit.selected == ref.selected
        assert fit.converged == ref.converged
        assert fit.iterations == ref.iterations
        assert fit.extra == ref.extra, (seed, run)


def test_adalasso_converges_on_exp2():
    """Correlated exp2 designs, where the weighted Gram matrix on the
    support is ill-conditioned: every adaptive-Lasso solve is certified
    and the estimate satisfies the KKT conditions of its weighted
    problem.  Seed 42 problems 6, 12 and 23 have weights down to ~1e-9,
    so the largest correlation of the rescaled columns lies ~1e9 above
    the grid and path events under 1e-12 of it are real, not rounding."""
    from groupsparse.experiments import est_adalasso
    for seed, run in [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
                      (42, 6), (42, 12), (42, 23)]:
        design, _, y, _ = gen_problem(McConfig(
            experiment="exp2", runs=1, master_seed=seed, estimators=[]), run)
        s2 = estimate_sigma2_ls(y, design.G)
        fit = est_adalasso(y, design, s2, {})
        assert fit.converged and fit.extra["unconverged_solves"] == 0, \
            (seed, run)
        w = _adalasso_weights(np.linalg.lstsq(design.G, y, rcond=None)[0],
                              fit.extra["eta"])
        assert _kkt_violation(y, design.G / w, w * fit.theta, s2,
                              fit.gamma) <= 1e-8 * fit.gamma, (seed, run)


def test_validation_ties_go_to_the_smaller_gamma_then_eta():
    """On pure-noise data every grid point whose theta is zero predicts the
    validation half equally, and here they tie for the best error.
    _validate picks the lexicographic minimum of (error, gamma, eta) over
    a (gamma, eta) grid of adalasso_path, whose rows run over gammas for
    each eta in turn, and the smallest tied gamma over a gamma grid, also
    for decreasing and shuffled grids; the errors are taken point by
    point here."""
    from groupsparse.experiments import _validate
    rng = np.random.default_rng(0)
    G = rng.standard_normal((40, 6))
    y = rng.standard_normal(40)
    des = GroupedDesign(G, [1] * 6)
    y_tr, y_val, d_tr, d_val = _split(y, des)
    grid = np.max(np.abs(d_tr.G.T @ y_tr)) * np.logspace(-3, 1, 15)
    etas = np.array([2.0, 0.5, 1.0])
    ls_tr = np.linalg.lstsq(d_tr.G, y_tr, rcond=None)[0]
    H, b = d_tr.G.T @ d_tr.G, d_tr.G.T @ y_tr
    for gammas in (grid, grid[::-1], rng.permutation(grid)):
        pairs = np.column_stack((np.tile(gammas, etas.size),
                                 np.repeat(etas, gammas.size)))
        chosen, path = _validate(y, des, lambda y_tr, d_tr: (
            pairs, adalasso_path(d_tr.G, y_tr, gammas, etas, 1.0)))
        for eta, thetas in zip(etas, np.split(path.theta, etas.size)):
            w = _adalasso_weights(ls_tr, eta)
            assert np.array_equal(thetas, lasso_path(
                H / np.outer(w, w), b / w, gammas).theta / w)
        keys = [(np.linalg.norm(y_val - d_val.G @ theta), gamma, eta)
                for (gamma, eta), theta in zip(pairs, path.theta)]
        best = min(keys)
        assert sum(key[0] == best[0] for key in keys) > 1
        assert tuple(chosen) == best[1:]

        chosen, path = _validate(y, des, lambda y_tr, d_tr: (
            gammas, _lasso_path(y_tr, d_tr.G, gammas)))
        errs = np.array([np.linalg.norm(y_val - d_val.G @ theta)
                         for theta in path.theta])
        tied = gammas[errs == errs.min()]
        assert tied.size > 1 and chosen == tied.min()
