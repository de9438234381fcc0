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
    PqnResult (.lam); config may pin blocks with active_set."""
    from groupsparse import MarginalFactor, PqnConfig, minimize_pqn
    y = np.asarray(y, dtype=float)

    def fun_grad(lam):
        fac = MarginalFactor(des, lam, s2)
        return (0.5 * fac.quad(y) + gam * lam.sum(),
                -0.5 * fac.block_scores(y) + gam)

    return minimize_pqn(fun_grad, np.zeros(des.p),
                        config or PqnConfig(grad_tol=1e-10, max_iter=2000))


def orthogonal_design(rng, sizes, n):
    """Design with G^T G = n I built from a random orthonormal basis."""
    from groupsparse import GroupedDesign
    m = sum(sizes)
    assert n >= m
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return GroupedDesign(Q * np.sqrt(n), list(sizes))
