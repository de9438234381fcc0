"""Selection pipelines: noise/scale estimation, forward selection, staged
variants."""

import itertools
import warnings

import numpy as np
import pytest

from groupsparse import (
    GroupedDesign, McConfig, SelectionConfig, closed_form_lambda_orth,
    fit_hglasso,
)
from groupsparse.experiments import gen_problem
from groupsparse.model import MarginalFactor, posterior_mean
from groupsparse.selection import (
    _greedy_path, _split, estimate_kappa, estimate_sigma2, estimate_sigma2_ls,
    forward_select, select_hglasso,
)

from conftest import kappa_reference, orthogonal_design, sigma2_reference


# ------------------------------------------------------------
# sigma2
# ------------------------------------------------------------

def test_sigma2_noiseless_is_zero(rng):
    G = rng.standard_normal((20, 6))
    y = G @ rng.standard_normal(6)
    assert estimate_sigma2_ls(y, G) <= 1e-20


def test_sigma2_floor_binds_only_without_noise(rng):
    """estimate_sigma2 is estimate_sigma2_ls on noisy data, 1e-14 ||y||^2
    / n on noiseless data and 1e-12 for y = 0; the training-half sigma2 of
    select_hglasso follows the same rule."""
    G = rng.standard_normal((20, 6))
    y = G @ rng.standard_normal(6)
    assert estimate_sigma2(y, G) == 1e-14 * (y @ y) / 20
    assert estimate_sigma2(np.zeros(20), G) == 1e-12
    y_noisy = y + rng.standard_normal(20)
    assert estimate_sigma2(y_noisy, G) == estimate_sigma2_ls(y_noisy, G)
    des = GroupedDesign(G, [3, 3])
    assert select_hglasso(y, des).sigma2 == estimate_sigma2(y[:10], G[:10])


def test_sigma2_requires_tall_design(rng):
    with pytest.raises(ValueError, match="sigma2 explicitly"):
        estimate_sigma2_ls(rng.standard_normal(4), rng.standard_normal((4, 5)))


def test_sigma2_single_column_identity(rng):
    """G = first column of I_n: residual is y with y_1 removed."""
    n = 8
    G = np.eye(n)[:, [0]]
    y = rng.standard_normal(n)
    ref = float(np.sum(y[1:] ** 2)) / (n - 1)
    assert abs(estimate_sigma2_ls(y, G) - ref) <= 1e-12


def test_sigma2_concentrates(rng):
    n, m, s2 = 100, 40, 2.0
    ests = []
    for _ in range(1000):
        G = rng.standard_normal((n, m))
        y = G @ rng.standard_normal(m) + np.sqrt(s2) * rng.standard_normal(n)
        ests.append(estimate_sigma2_ls(y, G))
    ests = np.asarray(ests)
    # each estimate is s2 * chi2(n-m)/(n-m): sd = s2 sqrt(2/(n-m))
    sd = s2 * np.sqrt(2.0 / (n - m))
    assert abs(ests.mean() - s2) <= 3 * sd / np.sqrt(ests.size)


def test_sigma2_pinned_to_the_svd_least_squares():
    """The gelsy kernel gives the sigma2 of sigma2_reference (an SVD
    least-squares fit) within 1e-13 relative on the paper's problems, on
    the full design and on the training half; on rank-deficient designs it
    is the reference's within 1e-12 and the residual variance of the design
    without its redundant columns, over the full n - m."""
    sets = [("exp1", 0, 40, {}), ("exp1", 3, 40, {}), ("exp2", 5, 20, {}),
            ("exp2", 7, 20, {}), ("ada", 0, 30, {"n": 60})]
    for exp, seed, runs, shape in sets:
        cfg = McConfig(experiment=exp, master_seed=seed, runs=runs, **shape)
        for r in range(runs):
            design, _, y, _ = gen_problem(cfg, r)
            y_tr, _, d_tr, _ = _split(y, design)
            for yy, G in ((y, design.G), (y_tr, d_tr.G)):
                s2, ref = estimate_sigma2_ls(yy, G), sigma2_reference(yy, G)
                assert abs(s2 - ref) <= 1e-13 * ref, (exp, seed, r, s2, ref)

    rng = np.random.default_rng(27)
    n = 30
    B = rng.standard_normal((n, 6))
    y = B @ rng.standard_normal(6) + rng.standard_normal(n)
    a, b = rng.standard_normal(2)
    redundant = {
        "duplicated column": np.c_[B, B[:, 2]],
        "zero column": np.c_[B[:, :3], np.zeros(n), B[:, 3:]],
        "three columns spanning two": np.c_[B, a * B[:, 0] + b * B[:, 1]],
    }
    t, *_ = np.linalg.lstsq(B, y, rcond=None)
    rss = float(np.sum((y - B @ t) ** 2))
    for name, G in redundant.items():
        s2 = estimate_sigma2_ls(y, G)
        assert abs(s2 - sigma2_reference(y, G)) <= 1e-12 * s2, name
        assert abs(s2 - rss / (n - G.shape[1])) <= 1e-12 * s2, name


@pytest.mark.parametrize("where", ["y", "G"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sigma2_rejects_non_finite_input(rng, capfd, where, bad):
    """A NaN or inf in y or G raises a ValueError naming it, before LAPACK
    runs: no warning, and nothing written to stderr."""
    G = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    if where == "y":
        y[3] = bad
    else:
        G[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="%s has a non-finite" % where):
            estimate_sigma2_ls(y, G)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("sigma2", [np.inf, np.nan, 0.0, -1.0])
def test_selection_config_rejects_a_bad_sigma2(sigma2):
    with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
        SelectionConfig(sigma2=sigma2)


# ------------------------------------------------------------
# kappa
# ------------------------------------------------------------

def test_kappa_zero_for_zero_data(rng):
    des = GroupedDesign(rng.standard_normal((10, 4)), [2, 2])
    assert estimate_kappa(np.zeros(10), des, 1.0) == 0.0


def test_kappa_identity_design_closed_form(rng):
    """G = I: the common-scale profile minimizes at max(0, ||y||^2/n - s2)."""
    n = 40
    des = GroupedDesign(np.eye(n), [1] * n)
    for scale, s2 in ((2.0, 0.5), (0.05, 1.0)):
        y = rng.standard_normal(n) * scale
        ref = max(0.0, float(y @ y) / n - s2)
        k = estimate_kappa(y, des, s2)
        assert abs(k - ref) <= 1e-8 * (1 + ref)


def test_kappa_is_a_minimizer(rng):
    des = GroupedDesign(rng.standard_normal((15, 6)), [3, 3])
    y = rng.standard_normal(15) * 2
    s2 = 0.7
    k = estimate_kappa(y, des, s2)

    def f(kv):
        return MarginalFactor(des, np.full(2, kv), s2, y).neg_log_marginal(
            0.0)[0]

    fk = f(k)
    for mult in (0.5, 0.9, 1.1, 2.0):
        assert fk <= f(max(k, 1e-12) * mult) + 1e-9 * (1 + abs(fk))


def test_kappa_scan_pinned_to_the_bounded_search():
    """The profile scan plus Newton gives the kappa of kappa_reference
    (bounded search plus Newton) within 1e-12 relative on the paper's
    problems, at the sigma2 select_hglasso uses; on random designs of many
    shapes and scales, where the two may settle on different points, its
    profile value is never above the reference's beyond 1e-12 relative.
    The last 60 of those draw y from the model at a scale kappa* in
    [1e-12, 1e-8]: there a polish that stopped at |step| <= 1e-12 (an
    absolute test below kappa = 1) would end before kappa has converged."""
    sets = [("exp1", 0, 40, {}), ("exp1", 3, 40, {}), ("exp2", 5, 20, {}),
            ("exp2", 7, 20, {}), ("ada", 0, 30, {"n": 60}),
            ("exp1", 7000, 12, {"p": 40}), ("exp1", 42, 8, {"p": 40})]
    for exp, seed, runs, shape in sets:
        cfg = McConfig(experiment=exp, master_seed=seed, runs=runs, **shape)
        for r in range(runs):
            design, _, y, s2_true = gen_problem(cfg, r)
            y_tr, _, d_tr, _ = _split(y, design)
            s2 = s2_true if shape.get("p") else \
                max(estimate_sigma2_ls(y_tr, d_tr.G), 1e-12)
            k, ref = estimate_kappa(y_tr, d_tr, s2), \
                kappa_reference(y_tr, d_tr, s2)
            assert abs(k - ref) <= 1e-12 * ref, (exp, seed, r, k, ref)

    rng = np.random.default_rng(2026)
    for i in range(360):
        n, m = int(rng.integers(3, 81)), int(rng.integers(1, 121))
        G = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, m)
        if i < 300:
            y = (G @ (rng.standard_normal(m) * (rng.random(m) < 0.3))
                 + rng.standard_normal(n)) * 10.0 ** rng.uniform(-4, 4)
            s2 = 10.0 ** rng.uniform(-6, 3)
        else:
            kappa, s2 = 10.0 ** rng.uniform(-12, -8), \
                10.0 ** rng.uniform(-6, -3)
            y = np.sqrt(kappa) * (G @ rng.standard_normal(m)) \
                + np.sqrt(s2) * rng.standard_normal(n)
        des = GroupedDesign(G, [1] * m)
        w, Q = np.linalg.eigh(G @ G.T)
        w, yt2 = np.maximum(w, 0.0), (Q.T @ y) ** 2

        def f(k):
            return 0.5 * np.sum(np.log(k * w + s2) + yt2 / (k * w + s2))

        fk, fr = f(estimate_kappa(y, des, s2)), f(kappa_reference(y, des, s2))
        assert fk <= fr + 1e-12 * abs(fr), (n, m, fk, fr)


# ------------------------------------------------------------
# forward selection
# ------------------------------------------------------------

def _log_posterior(y, des, s2, kap, gam, subset):
    """L(I): minus the penalized negative log marginal at lambda = kap on
    the blocks of I, zero elsewhere."""
    lam = np.zeros(des.p)
    lam[list(subset)] = kap
    return -MarginalFactor(des, lam, s2, y).neg_log_marginal(gam)[0]


def test_forward_select_huge_gamma_selects_nothing(rng):
    des = GroupedDesign(rng.standard_normal((30, 8)), [2, 2, 2, 2])
    y = rng.standard_normal(30)
    sel, gains = forward_select(y, des, 1.0, 1.0, 1e9)
    assert sel == [] and gains == []


def test_forward_select_greedy_first_step_is_optimal(rng):
    """On p=4 problems the first accepted block matches the exhaustive
    best singleton, and gains are positive."""
    for _ in range(10):
        des = GroupedDesign(rng.standard_normal((40, 8)), [2, 2, 2, 2])
        theta = np.zeros(8)
        theta[2:4] = rng.uniform(2, 5, 2)
        y = des.G @ theta + 0.3 * rng.standard_normal(40)
        s2, kap, gam = 0.09, 4.0, 0.1
        sel, gains = forward_select(y, des, s2, kap, gam)
        assert all(g > 0 for g in gains)
        L0 = _log_posterior(y, des, s2, kap, gam, [])
        singles = [_log_posterior(y, des, s2, kap, gam, [j]) - L0
                   for j in range(4)]
        if sel:
            # first accepted block achieves the best singleton gain
            first = max(range(4), key=lambda j: singles[j])
            assert singles[first] == max(singles)
            assert first in sel


def test_forward_select_never_loses_to_empty_set(rng):
    des = GroupedDesign(rng.standard_normal((30, 8)), [2, 2, 2, 2])
    y = rng.standard_normal(30)
    for gam in (0.0, 0.5, 10.0):
        sel, _ = forward_select(y, des, 1.0, 1.0, gam)
        assert (_log_posterior(y, des, 1.0, 1.0, gam, sel)
                >= _log_posterior(y, des, 1.0, 1.0, gam, []))


def test_forward_select_exhaustive_small(rng):
    """Greedy result is at least as good as every subset it visited and the
    first pick is globally the best singleton (p=4 exhaustive check)."""
    des = GroupedDesign(rng.standard_normal((40, 8)), [2, 2, 2, 2])
    theta = np.zeros(8)
    theta[0:2] = 4.0
    theta[6:8] = 3.0
    y = des.G @ theta + 0.3 * rng.standard_normal(40)
    s2, kap, gam = 0.09, 8.0, 0.05
    sel, _ = forward_select(y, des, s2, kap, gam)
    best_sub = max(
        (list(c) for r in range(5) for c in itertools.combinations(range(4), r)),
        key=lambda sub: _log_posterior(y, des, s2, kap, gam, sub))
    # greedy is not guaranteed optimal in general, but on this well-separated
    # instance it should find the exhaustive optimum
    assert sel == sorted(best_sub)


def _reference_forward_select(y, des, s2, kap, gam):
    """Per-gamma greedy over full log posteriors: add the block with the
    largest penalized gain L(I + {j}) - L(I), smallest index on ties, until
    the best gain is not positive.  Returns (blocks in order of inclusion,
    their penalized gains)."""
    current, gains = [], []
    L = _log_posterior(y, des, s2, kap, gam, current)
    remaining = list(range(des.p))
    while remaining:
        cand = [(_log_posterior(y, des, s2, kap, gam, current + [j]) - L, j)
                for j in remaining]
        best_gain = max(g for g, _ in cand)
        if best_gain <= 0:
            break
        j = min(j for g, j in cand if g == best_gain)
        current.append(j)
        remaining.remove(j)
        gains.append(best_gain)
        L += best_gain
    return current, gains


def _long_path_problem():
    """A dense-route training design (n = 50 < m = 160, p = 40, k = 4) with
    every block active, whose unpenalized greedy path takes 36 steps."""
    rng = np.random.default_rng(5)
    des = GroupedDesign(rng.standard_normal((50, 160)), [4] * 40)
    y = des.G @ rng.standard_normal(160) + np.sqrt(0.1) * \
        rng.standard_normal(50)
    return des, y, 0.1, 0.3


def test_greedy_path_long_dense_route_matches_reference():
    """The incrementally updated path adds blocks in the order of the
    greedy over freshly factored log posteriors."""
    des, y, s2, kap = _long_path_problem()
    order, gains, _ = _greedy_path(y, des, s2, kap, 0.0)
    ref_order, ref_gains = _reference_forward_select(y, des, s2, kap, 0.0)
    assert len(order) >= 30
    assert order == ref_order
    np.testing.assert_allclose(gains, ref_gains, rtol=1e-9, atol=0)


def test_greedy_path_gains_are_log_posterior_differences():
    """Every step's gain is L(I + {j}) - L(I) of the set before it."""
    des, y, s2, kap = _long_path_problem()
    order, gains, _ = _greedy_path(y, des, s2, kap, 0.0)
    logpost = [_log_posterior(y, des, s2, kap, 0.0, order[:t])
               for t in range(len(order) + 1)]
    np.testing.assert_allclose(gains, np.diff(logpost), rtol=1e-9, atol=0)


def test_greedy_path_exact_tie_goes_to_the_smaller_index(rng):
    """Mixed block sizes with block 3 a copy of block 1: both score the
    same first gain bit for bit, and block 1 is taken."""
    sizes = [2, 3, 1, 3, 2]
    G = rng.standard_normal((30, sum(sizes)))
    des = GroupedDesign(G, sizes)
    G[:, des.slices[3]] = G[:, des.slices[1]]
    y = G[:, des.slices[1]] @ np.array([2.0, -1.0, 1.5]) + \
        0.3 * rng.standard_normal(30)
    order, gains, _ = _greedy_path(y, des, 0.09, 2.0, 0.0)
    assert order[0] == 1
    # without block 1 its copy (index 2 of the subdesign) scores the same
    sub_order, sub_gains, _ = _greedy_path(y, des.subdesign([0, 2, 3, 4]),
                                           0.09, 2.0, 0.0)
    assert sub_order[0] == 2 and sub_gains[0] == gains[0]


def _two_route_problems(rng):
    """(design, y, sigma2 or None): a tall design whose selection split is
    still tall (low-rank factor), and a wide one (dense n x n factor)."""
    out = []
    for n, sizes, s2 in ((120, [4] * 10, None), (40, [3] * 12 + [2, 2], 0.25)):
        des = GroupedDesign(rng.standard_normal((n, sum(sizes))), sizes)
        theta = np.zeros(des.m)
        theta[des.slices[1]] = 2.0
        theta[des.slices[6]] = rng.uniform(-1.5, 1.5, sizes[6])
        theta[des.slices[-1]] = 0.7
        out.append((des, des.G @ theta + 0.5 * rng.standard_normal(n), s2))
    return out


def test_forward_select_matches_per_gamma_greedy(rng):
    for des, y, s2 in _two_route_problems(rng):
        s2 = s2 or 0.25
        sets = []
        for gam in np.logspace(-4, 4, 17):
            ref_order, ref_gains = _reference_forward_select(y, des, s2, 2.0,
                                                             gam)
            sel, gains = forward_select(y, des, s2, 2.0, gam)
            assert sel == sorted(ref_order)
            np.testing.assert_allclose(gains, ref_gains, rtol=1e-9, atol=0)
            sets.append(sel)
        assert [] in sets and len(sets[0]) >= 3


def test_fit_selection_matches_per_gamma_greedy(rng):
    """Every grid point's set and validation error equal those of the
    per-gamma greedy run on the same split, sigma2 and kappa (the error
    within 1e-12: the fit reads it off the path's Woodbury updates, the
    reference factors Sigma_y afresh); on both factor routes, on the
    default grid and on a user-supplied one."""
    for des, y, s2 in _two_route_problems(rng):
        n_tr = int(np.ceil(0.5 * des.n))
        d_tr = GroupedDesign(des.G[:n_tr], des.group_sizes)
        d_val = GroupedDesign(des.G[n_tr:], des.group_sizes)
        for grid in (None, np.array([1e-3, 0.3, 3.0, 1e6])):
            _, trace = fit_hglasso(y, des, SelectionConfig(
                sigma2=s2, gamma_grid=grid))
            assert [] in trace.selected_sets
            assert any(len(s) >= 2 for s in trace.selected_sets)
            for gam, sel, err in zip(trace.gammas, trace.selected_sets,
                                     trace.val_errors):
                # the accepted gains: the greedy path cut at gamma
                floor = gam * trace.kappa
                gains = [g - floor for g in trace.greedy_gains[:len(sel)]]
                ref_order, ref_gains = _reference_forward_select(
                    y[:n_tr], d_tr, trace.sigma2, trace.kappa, gam)
                ref_set = sorted(ref_order)
                lam = np.zeros(des.p)
                lam[ref_set] = trace.kappa
                th = posterior_mean(d_tr, lam, trace.sigma2, y[:n_tr])
                assert sel == ref_set
                np.testing.assert_allclose(
                    err, np.linalg.norm(y[n_tr:] - d_val.G @ th), rtol=1e-12,
                    atol=0)
                np.testing.assert_allclose(gains, ref_gains, rtol=1e-9,
                                           atol=0)


def test_path_gives_each_cut_posterior_mean(rng):
    """Row t of the path's q, times kappa on the blocks of order[:t] and
    zero on the others, is the posterior mean at that lambda, within 1e-12
    relative in the 2-norm (a component far below the norm carries the
    path's absolute rounding, so components are not compared one by one).
    On the cuts a fit validates, on both factor routes of its training
    split, on blocks of one size that are not adjacent, and at every step
    of the 36-step path."""
    cases = []
    for des, y, s2 in _two_route_problems(rng):
        trace = select_hglasso(y, des, SelectionConfig(sigma2=s2))
        y_tr, _, d_tr, _ = _split(y, des)
        cases.append((d_tr, y_tr, trace.sigma2, trace.kappa,
                      min(trace.gammas) * trace.kappa,
                      sorted({len(s) for s in trace.selected_sets})))
    # sizes 2 and 3 interleaved: no size's blocks are adjacent columns
    sizes = [2, 3, 1, 3, 2, 1, 2, 3]
    des = GroupedDesign(rng.standard_normal((30, sum(sizes))), sizes)
    y = des.G @ rng.standard_normal(des.m) + 0.3 * rng.standard_normal(30)
    cases.append((des, y, 0.09, 2.0, 0.0, None))
    des, y, s2, kap = _long_path_problem()
    cases.append((des, y, s2, kap, 0.0, None))
    for des, y, s2, kap, floor, cuts in cases:
        order, _, q = _greedy_path(y, des, s2, kap, floor)
        assert q.shape == (len(order) + 1, des.m) and len(order) >= 3
        for t in cuts or range(len(order) + 1):
            lam = np.zeros(des.p)
            lam[order[:t]] = kap
            th = lam[des.owner] * q[t]
            ref = posterior_mean(des, lam, s2, y)
            assert np.array_equal(th == 0, ref == 0)
            assert np.linalg.norm(th - ref) <= 1e-12 * np.linalg.norm(ref)


def test_fit_factorizations_bounded_by_path(rng, monkeypatch):
    """The selection stage builds no factor (the path gives every cut's
    validation error), so an hgla fit builds exactly one, for the final
    posterior mean."""
    builds = []
    init = MarginalFactor.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MarginalFactor, "__init__", counted)
    for des, y, s2 in _two_route_problems(rng):
        cfg = SelectionConfig(sigma2=s2)
        trace = select_hglasso(y, des, cfg)
        assert len({tuple(s) for s in trace.selected_sets}) >= 3
        assert builds == []
        res, _ = fit_hglasso(y, des, cfg)
        assert len(builds) == res.extra["factorizations"] == 1
        builds.clear()


# ------------------------------------------------------------
# staged fits
# ------------------------------------------------------------

def _sparse_problem(rng, n=120):
    sizes = [4] * 10
    des = GroupedDesign(rng.standard_normal((n, 40)), sizes)
    theta = np.zeros(40)
    theta[20:24] = [2.0, -1.5, 1.0, 0.8]
    theta[32:36] = [1.2, 0.5, -0.9, 1.1]
    y = des.G @ theta + 0.5 * rng.standard_normal(n)
    return des, theta, y


def test_fit_config_validation(rng, monkeypatch):
    import groupsparse.selection as gs
    des, _, y = _sparse_problem(rng)
    with pytest.raises(ValueError, match="variant"):
        fit_hglasso(y, des, variant="bogus")

    def no_stage(*args, **kwargs):
        raise AssertionError("the stage ran before the variant check")

    # a bad variant is rejected before the selection stage runs
    monkeypatch.setattr(gs, "select_hglasso", no_stage)
    with pytest.raises(ValueError, match="variant"):
        gs.fit_hglasso(y, des, variant="bogus")
    monkeypatch.undo()
    with pytest.raises(ValueError):
        SelectionConfig(gamma_grid=np.array([2.0, 1.0]))
    # no infinite or NaN gamma reaches the selection (an infinite grid_hi
    # made a NaN gamma)
    for kwargs in ({"grid_hi": np.inf}, {"grid_lo": np.inf, "grid_hi": np.inf},
                   {"gamma_grid": [1.0, np.inf]}, {"gamma_grid": [np.nan]},
                   {"gamma_grid": [1.0, np.nan]}):
        with pytest.raises(ValueError, match="finite"):
            SelectionConfig(**kwargs)


def test_fit_is_deterministic(rng):
    des, _, y = _sparse_problem(rng)
    r1, t1 = fit_hglasso(y, des, variant="hgla")
    r2, t2 = fit_hglasso(y, des, variant="hgla")
    assert np.array_equal(r1.theta, r2.theta)
    assert np.array_equal(t1.val_errors, t2.val_errors)
    assert t1.chosen_gamma == t2.chosen_gamma


def test_fit_recovers_true_blocks(rng):
    des, theta, y = _sparse_problem(rng)
    for variant in ("hgla", "hglc"):
        res, _ = fit_hglasso(y, des, variant=variant)
        assert res.selected == [5, 8]
        rel = np.linalg.norm(res.theta - theta) / np.linalg.norm(theta)
        assert rel <= 0.1


def test_hglc_off_set_lambda_exact_zero(rng):
    des, _, y = _sparse_problem(rng)
    res, trace = fit_hglasso(y, des, variant="hglc")
    off = sorted(set(range(des.p)) - set(trace.chosen_set))
    assert np.all(res.lam[off] == 0.0)


def test_pure_noise_selects_nothing(rng):
    des = GroupedDesign(rng.standard_normal((60, 12)), [3, 3, 3, 3])
    y = rng.standard_normal(60)
    res, trace = fit_hglasso(y, des, variant="hgla")
    # strong-gamma region of the grid must contain the empty set
    assert any(s == [] for s in trace.selected_sets)
    assert len(res.selected) <= 1


def test_hglc_all_blocks_orthogonal_matches_closed_form(rng):
    """active set = all blocks, gamma = 0: the polish solves the full
    problem, whose orthogonal-design solution is the flat-prior formula."""
    sizes = [2, 2]
    des = orthogonal_design(rng, sizes, 60)
    theta = np.array([1.5, -2.0, 0.8, 1.2])
    s2 = 0.25
    y = des.G @ theta + np.sqrt(s2) * rng.standard_normal(60)
    res, _ = fit_hglasso(
        y, des, SelectionConfig(sigma2=s2, gamma_grid=np.array([1e-8, 1e-4])),
        "hglc")
    tls = des.G.T @ y / des.n
    ref = np.array([closed_form_lambda_orth(tls[s], 2, des.n, s2, 0.0)
                    for s in des.slices])
    assert np.all(np.abs(res.lam - ref) <= 1e-6 * (1 + ref))


def test_sigma2_override_is_respected(rng):
    des, _, y = _sparse_problem(rng)
    res, trace = fit_hglasso(y, des, SelectionConfig(sigma2=0.123))
    assert trace.sigma2 == 0.123
    assert res.extra["sigma2"] == 0.123
