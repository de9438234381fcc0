"""Core model: containers, Sigma_y factorization, posterior mean, marginal
likelihood and gradient, MSE formula, block diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupsparse import (
    BlockVector, GroupedDesign, MarginalFactor, diagonalize_block,
    mse_of_lambda, posterior_mean,
)

from conftest import assemble_sigma_y, random_grouped


def neg_log_marginal(des, lam, s2, gam, y):
    """(f, grad) of the penalized negative log marginal at lam."""
    return MarginalFactor(des, lam, s2).neg_log_marginal(y, gam)


# ------------------------------------------------------------
# containers
# ------------------------------------------------------------

@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
       extra=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_design_block_views_tile_columns(sizes, extra):
    m = sum(sizes)
    n = m + extra + 1
    G = np.arange(n * m, dtype=float).reshape(n, m)
    des = GroupedDesign(G, sizes)
    assert des.n == n and des.m == m and des.p == len(sizes)
    tiled = np.hstack([des.block(i) for i in range(des.p)])
    assert np.array_equal(tiled, G)


def test_design_rejects_bad_partition():
    G = np.ones((3, 4))
    with pytest.raises(ValueError):
        GroupedDesign(G, [2, 3])
    with pytest.raises(ValueError):
        GroupedDesign(G, [4, 0])


def test_design_expand_and_subdesign():
    des = GroupedDesign(np.ones((2, 5)), [2, 3])
    assert np.array_equal(des.expand([1.0, 2.0]), [1, 1, 2, 2, 2])
    with pytest.raises(ValueError):
        des.expand([1.0])
    sub = des.subdesign([1])
    assert sub.group_sizes == [3] and sub.m == 3


def test_inputs_are_checked_where_they_arrive(rng):
    """MarginalFactor rejects lambda < 0 (ValueError) and sigma2 <= 0
    (LinAlgError) on both routes, also where G Lam G^T alone is positive
    definite (dense, n = 6 < m = 12); neg_log_marginal rejects gamma < 0
    and mse_of_lambda rejects lambda < 0."""
    dense = GroupedDesign(rng.standard_normal((6, 12)), [4, 4, 4])
    lowrank = GroupedDesign(rng.standard_normal((30, 12)), [4, 4, 4])
    lam = np.array([1.0, 0.5, 2.0])
    assert np.min(np.linalg.eigvalsh(assemble_sigma_y(dense, lam, 0.0))) > 0
    for des in (dense, lowrank):
        with pytest.raises(ValueError):
            MarginalFactor(des, np.array([1.0, -1e-12, 2.0]), 1.0)
        for s2 in (-1e-3, 0.0, np.nan):
            with pytest.raises(np.linalg.LinAlgError):
                MarginalFactor(des, lam, s2)
        fac = MarginalFactor(des, lam, 1.0)
        with pytest.raises(ValueError):
            fac.neg_log_marginal(rng.standard_normal(des.n), -0.1)
        with pytest.raises(ValueError):
            mse_of_lambda(des, np.array([1.0, -1.0, 2.0]), 1.0, np.zeros(12))


def test_block_vector_partition():
    bv = BlockVector(np.array([1.0, 2.0, 2.0]), [1, 2])
    assert np.array_equal(bv.block(1), [2.0, 2.0])
    des = GroupedDesign(np.zeros((2, 3)), bv.group_sizes)
    assert np.allclose(des.block_norms(bv.theta), [1.0, np.sqrt(8.0)])
    assert np.array_equal(des.owner, [0, 1, 1])
    with pytest.raises(ValueError):
        BlockVector(np.zeros(2), [1, 2])


# ------------------------------------------------------------
# Sigma_y assembly and factorization
# ------------------------------------------------------------

def test_sigma_y_symmetric_and_bounded_below(rng):
    for _ in range(20):
        des = random_grouped(rng)
        lam = rng.uniform(0.0, 3.0, des.p)
        s2 = float(rng.uniform(0.1, 2.0))
        S = assemble_sigma_y(des, lam, s2)
        assert np.max(np.abs(S - S.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(S)) >= s2 - 1e-10


def test_marginal_factor_routes_agree(rng):
    """Dense (n <= m) and low-rank (n > m) routes give logdet, solve, quad,
    G^T W y, G^T W G and the per-block traces, scores and Hessian of an
    explicit W = Sigma_y^{-1}, with some blocks at lambda = 0."""
    routes = set()
    for trial in range(40):
        des = random_grouped(rng, n_extra=15)
        if trial % 2 == 0 and des.n > des.m:    # force the dense route
            des = GroupedDesign(des.G[:max(1, des.m - trial % 3)],
                                des.group_sizes)
        lam = rng.uniform(0.0, 2.0, des.p)
        if trial % 4 < 2:
            lam[rng.integers(0, des.p, size=1 + des.p // 3)] = 0.0
        s2 = float(rng.uniform(0.2, 2.0))
        y = rng.standard_normal(des.n)
        fac = MarginalFactor(des, lam, s2)
        routes.add(fac.lowrank)
        S = assemble_sigma_y(des, lam, s2)
        sign, logdet = np.linalg.slogdet(S)
        assert sign > 0
        assert abs(fac.logdet() - logdet) <= 1e-8 * (1 + abs(logdet))
        ref = np.linalg.solve(S, y)
        assert np.linalg.norm(fac.solve(y) - ref) <= 1e-8 * (1 + np.linalg.norm(ref))
        assert abs(fac.quad(y) - y @ ref) <= 1e-8 * (1 + abs(y @ ref))
        assert np.allclose(fac.gtw_y(y), des.G.T @ ref, atol=1e-8)
        M = des.G.T @ np.linalg.solve(S, des.G)
        assert np.allclose(fac.gtwg(), M, atol=1e-8)
        q = des.G.T @ ref
        sl = des.slices
        np.testing.assert_allclose(
            fac.block_traces(), [np.trace(M[s, s]) for s in sl], atol=1e-8)
        np.testing.assert_allclose(
            fac.block_scores(y), [q[s] @ q[s] for s in sl], atol=1e-8)
        H = [[-0.5 * np.sum(M[a, b] ** 2) + q[a] @ M[a, b] @ q[b]
              for b in sl] for a in sl]
        np.testing.assert_allclose(fac.block_hessian(y), H, atol=1e-8)
    assert routes == {False, True}


def test_marginal_factor_caches_the_solve_by_value(rng):
    """A y changed in place after a query is solved again."""
    for n in (6, 30):                       # dense and low-rank routes
        des = GroupedDesign(rng.standard_normal((n, 12)), [4, 4, 4])
        fac = MarginalFactor(des, np.array([1.0, 0.0, 0.5]), 0.3)
        y = rng.standard_normal(n)
        q1 = fac.quad(y)
        y *= 2.0
        assert fac.quad(y) == pytest.approx(4.0 * q1, rel=1e-12)
        np.testing.assert_allclose(fac.gtw_y(y),
                                   des.G.T @ fac.solve(y), rtol=1e-10)


def test_marginal_factor_raises_when_sigma_y_is_not_pd(rng):
    """Both routes raise LinAlgError (the CLI's exit 3) for a Sigma_y
    that is not positive definite."""
    for n in (6, 30):                       # dense and low-rank routes
        des = GroupedDesign(rng.standard_normal((n, 12)), [4, 4, 4])
        for lam, s2 in ((np.zeros(3), -1.0), (np.array([1.0, 0.0, 2.0]),
                                               -1e3)):
            with pytest.raises(np.linalg.LinAlgError):
                MarginalFactor(des, lam, s2)


def test_marginal_factor_rejects_wrong_length():
    des = GroupedDesign(np.ones((3, 2)), [1, 1])
    with pytest.raises(ValueError):
        MarginalFactor(des, np.ones(3), 1.0)


# ------------------------------------------------------------
# posterior mean
# ------------------------------------------------------------

def test_posterior_mean_two_forms_agree(rng):
    """Lam G^T Sigma_y^{-1} y equals (s2 Lam^{-1} + G^T G)^{-1} G^T y."""
    for _ in range(25):
        des = random_grouped(rng)
        lam = rng.uniform(1e-8, 3.0, des.p)
        s2 = float(rng.uniform(0.2, 2.0))
        y = rng.standard_normal(des.n)
        th = posterior_mean(des, lam, s2, y)
        lam_full = des.expand(lam)
        M = s2 * np.diag(1.0 / lam_full) + des.gram()
        ref = np.linalg.solve(M, des.G.T @ y)
        assert np.linalg.norm(th - ref) <= 1e-9 * (1 + np.linalg.norm(ref))


def test_posterior_mean_zero_lambda_blocks_are_exact_zero(rng):
    des = random_grouped(rng)
    lam = rng.uniform(0.5, 2.0, des.p)
    lam[0] = 0.0
    y = rng.standard_normal(des.n)
    th = posterior_mean(des, lam, 1.0, y)
    assert np.all(th[des.slices[0]] == 0.0)


# ------------------------------------------------------------
# marginal likelihood and gradient
# ------------------------------------------------------------

def test_neg_log_marginal_matches_direct_formula(rng):
    des = random_grouped(rng)
    lam = rng.uniform(0.0, 2.0, des.p)
    s2, gam = 0.7, 0.3
    y = rng.standard_normal(des.n)
    S = assemble_sigma_y(des, lam, s2)
    ref = (0.5 * np.linalg.slogdet(S)[1]
           + 0.5 * y @ np.linalg.solve(S, y) + gam * lam.sum())
    val = neg_log_marginal(des, lam, s2, gam, y)[0]
    assert abs(val - ref) <= 1e-9 * (1 + abs(ref))


def test_gradient_matches_central_differences(rng):
    worst = 0.0
    for _ in range(100):
        des = random_grouped(rng)
        lam = rng.uniform(0.05, 2.0, des.p)
        s2 = float(rng.uniform(0.2, 2.0))
        gam = float(rng.uniform(0.0, 1.0))
        y = rng.standard_normal(des.n)
        g = neg_log_marginal(des, lam, s2, gam, y)[1]
        fd = np.empty(des.p)
        for i in range(des.p):
            h = 1e-6 * max(1.0, lam[i])
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd[i] = (neg_log_marginal(des, lp, s2, gam, y)[0]
                     - neg_log_marginal(des, lm, s2, gam, y)[0]) / (2 * h)
        rel = np.max(np.abs(g - fd)) / (1 + np.max(np.abs(fd)))
        worst = max(worst, rel)
    assert worst <= 1e-5


@pytest.mark.parametrize("lowrank", [True, False])
def test_block_hessian_matches_differences_of_gradient(rng, lowrank):
    """block_hessian is symmetric and matches second-order differences of
    the gradient of neg_log_marginal on both factor routes, at lambdas with zero
    blocks (central differences, one-sided where lambda_j - h < 0)."""
    worst = 0.0
    for trial in range(20):
        sizes = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 6)))]
        m = sum(sizes)
        n = m + int(rng.integers(1, 10)) if lowrank else \
            int(rng.integers(2, m + 1))
        des = GroupedDesign(rng.standard_normal((n, m)), sizes)
        lam = rng.uniform(0.05, 2.0, des.p)
        lam[rng.permutation(des.p)[:1 + trial % 2]] = 0.0
        s2 = float(rng.uniform(0.2, 2.0))
        y = 2.0 * rng.standard_normal(n)
        fac = MarginalFactor(des, lam, s2)
        assert fac.lowrank == lowrank
        H = fac.block_hessian(y)
        assert np.array_equal(H, H.T)

        def grad(l):
            return neg_log_marginal(des, l, s2, 0.3, y)[1]

        fd = np.empty((des.p, des.p))
        for j in range(des.p):
            h = 1e-5 * max(1.0, lam[j])
            e = np.zeros(des.p)
            e[j] = h
            if lam[j] >= h:
                fd[:, j] = (grad(lam + e) - grad(lam - e)) / (2 * h)
            else:
                fd[:, j] = (-3 * grad(lam) + 4 * grad(lam + e)
                            - grad(lam + 2 * e)) / (2 * h)
        worst = max(worst, np.max(np.abs(H - fd)) / (1 + np.max(np.abs(fd))))
    assert worst <= 1e-5


def test_second_moment_of_y_matches_sigma_y(rng):
    """Sample E[y y^T] over simulated outputs converges to Sigma_y."""
    des = GroupedDesign(rng.standard_normal((6, 5)), [2, 3])
    lam = np.array([0.8, 1.7])
    s2 = 0.5
    S = assemble_sigma_y(des, lam, s2)
    L = np.linalg.cholesky(S)
    draws = 100_000
    Y = (L @ rng.standard_normal((6, draws)))
    emp = (Y @ Y.T) / draws
    # var of y_i y_j is S_ii S_jj + S_ij^2 for Gaussians
    se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S ** 2) / draws)
    assert np.all(np.abs(emp - S) <= 5 * se)


# ------------------------------------------------------------
# MSE formula
# ------------------------------------------------------------

def _mc_mse(des, lam, s2, theta_true, rng, draws=10_000):
    errs = np.empty(draws)
    noiseless = des.G @ theta_true
    root = np.sqrt(s2)
    for b in range(draws):
        y = noiseless + root * rng.standard_normal(des.n)
        th = posterior_mean(des, lam, s2, y)
        errs[b] = np.sum((th - theta_true) ** 2)
    return errs


def test_mse_formula_matches_monte_carlo(rng):
    des = GroupedDesign(rng.standard_normal((25, 5)), [2, 3])
    theta = np.array([0.5, -0.3, 0.1, 0.8, 0.2])
    lam = np.array([0.7, 1.3])
    errs = _mc_mse(des, lam, 0.4, theta, rng)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(mse_of_lambda(des, lam, 0.4, theta) - errs.mean()) <= 3 * se


def test_mse_formula_zero_block_convention(rng):
    """A lambda_i = 0 block contributes ||theta_true block||^2."""
    des = GroupedDesign(rng.standard_normal((25, 5)), [2, 3])
    theta = np.array([0.5, -0.3, 0.1, 0.8, 0.2])
    lam0 = np.array([0.0, 1.3])
    sub = des.subdesign([1])
    expected = (0.5 ** 2 + 0.3 ** 2) + mse_of_lambda(sub, lam0[1:], 0.4,
                                                     theta[2:])
    assert abs(mse_of_lambda(des, lam0, 0.4, theta) - expected) <= 1e-12
    # and matches Monte Carlo when the silent block is truly null
    theta_null = np.array([0.0, 0.0, 0.1, 0.8, 0.2])
    errs = _mc_mse(des, lam0, 0.4, theta_null, rng)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(mse_of_lambda(des, lam0, 0.4, theta_null) - errs.mean()) \
        <= 3 * se


def test_mse_orthogonal_closed_forms(rng):
    """theta=0, G^T G = n I, common lambda: s2 m n / (n + s2/lam)^2; the
    lam -> infinity limit is the least-squares MSE m s2 / n."""
    n, m = 40, 6
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    des = GroupedDesign(Q * np.sqrt(n), [3, 3])
    s2 = 0.8
    theta0 = np.zeros(m)
    for lam in (0.3, 1.0, 5.0):
        ref = s2 * m * n / (n + s2 / lam) ** 2
        assert abs(mse_of_lambda(des, np.array([lam, lam]), s2, theta0)
                   - ref) <= 1e-9 * (1 + ref)
    big = np.array([1e12, 1e12])
    assert abs(mse_of_lambda(des, big, s2, theta0) - m * s2 / n) <= 1e-6


# ------------------------------------------------------------
# block diagonalization
# ------------------------------------------------------------

def test_diagonalize_block_reconstruction_and_norms(rng):
    """z is linear in y with z(G^(i) theta^(i)) = D beta, so z - D beta is
    z of the rest of y; V is orthonormal, so ||beta|| = ||theta^(i)||."""
    for _ in range(10):
        des = random_grouped(rng, n_extra=12)
        lam = rng.uniform(0.1, 2.0, des.p)
        s2 = float(rng.uniform(0.2, 1.5))
        theta = rng.standard_normal(des.m)
        y = des.G @ theta + np.sqrt(s2) * rng.standard_normal(des.n)
        i = int(rng.integers(0, des.p))
        tb = BlockVector(theta, des.group_sizes).block(i)
        z, d, beta = diagonalize_block(des, lam, s2, i, y, theta_true=theta)
        z_rest = diagonalize_block(des, lam, s2, i, y - des.block(i) @ tb)[0]
        assert np.linalg.norm(z - d * beta - z_rest) <= \
            1e-10 * (1 + np.linalg.norm(z))
        assert abs(np.linalg.norm(beta) - np.linalg.norm(tb)) <= 1e-10


def _diagonalize_by_root(des, lam, s2, i, y, theta):
    """The symmetric-root formula: with Sigma_v^{-1/2} from the eigenpairs
    of the assembled Sigma_v and the thin SVD Sigma_v^{-1/2} G^(i) /
    sqrt(n) = U D V^T, (z, d, beta) = (U^T Sigma_v^{-1/2} y / sqrt(n), D,
    V^T theta^(i))."""
    lam_v = lam.copy()
    lam_v[i] = 0.0
    w, Q = np.linalg.eigh(assemble_sigma_y(des, lam_v, s2))
    isq = Q @ ((1.0 / np.sqrt(w))[:, None] * Q.T)
    rootn = np.sqrt(des.n)
    U, d, Vt = np.linalg.svd(isq @ des.block(i) / rootn, full_matrices=False)
    return U.T @ (isq @ y) / rootn, d, Vt @ theta[des.slices[i]]


def test_diagonalize_block_matches_symmetric_root_formula(rng):
    """The same z, d and beta as the assembled-Sigma_v reference, up to the
    sign of each column of V, on both factor routes and on blocks wider
    than n."""
    wide = 0
    for trial in range(40):
        des = random_grouped(rng, k_max=6, n_extra=6)
        if trial % 4 == 0:                  # fewer rows than block 0 has
            des = GroupedDesign(des.G[:max(1, des.group_sizes[0] - 2)],
                                des.group_sizes)
        lam = rng.uniform(0.1, 2.0, des.p)
        s2 = float(rng.uniform(0.2, 1.5))
        theta = rng.standard_normal(des.m)
        y = rng.standard_normal(des.n)
        i = 0 if trial % 4 == 0 else int(rng.integers(0, des.p))
        wide += des.n < des.group_sizes[i]
        z, d, beta = diagonalize_block(des, lam, s2, i, y, theta_true=theta)
        z_ref, d_ref, beta_ref = _diagonalize_by_root(des, lam, s2, i, y,
                                                      theta)
        sign = np.sign(beta * beta_ref)
        np.testing.assert_allclose(d, d_ref, rtol=1e-10)
        np.testing.assert_allclose(beta, sign * beta_ref, atol=1e-10)
        np.testing.assert_allclose(z, sign * z_ref,
                                   atol=1e-10 * (1 + np.abs(z_ref).max()))
    assert wide >= 5
