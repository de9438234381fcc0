"""Projected quasi-Newton engine on bound-constrained test problems."""

import numpy as np
import pytest

from groupsparse.pqn import PqnConfig, minimize_pqn


def quad_problem(A, b):
    def fun_grad(x):
        r = A @ x - b
        return 0.5 * r @ r, A.T @ r
    return fun_grad


def test_config_validation():
    with pytest.raises(ValueError):
        PqnConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        PqnConfig(max_iter=0)


def test_unconstrained_quadratic_reaches_solution():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 6)) + 3 * np.eye(12, 6)
    x_true = rng.uniform(0.5, 2.0, 6)  # interior optimum
    b = A @ x_true
    res = minimize_pqn(quad_problem(A, b), np.zeros(6),
                       PqnConfig(grad_tol=1e-12, max_iter=500))
    assert res.converged
    assert np.linalg.norm(res.lam - x_true) <= 1e-8


def test_active_bounds_are_exact_zeros():
    """Optimum with some negative unconstrained coordinates: the projected
    solution has exact zeros there."""
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    A = Q[:, :5] * np.array([3.0, 2.0, 1.5, 1.0, 0.5])
    x_unc = np.array([1.0, -2.0, 0.5, -0.1, 2.0])
    b = A @ x_unc
    res = minimize_pqn(quad_problem(A, b), np.ones(5),
                       PqnConfig(grad_tol=1e-12, max_iter=500))
    assert res.converged
    # orthogonal columns: constrained optimum is the positive part
    assert np.allclose(res.lam, np.maximum(x_unc, 0.0), atol=1e-8)
    assert res.lam[1] == 0.0 and res.lam[3] == 0.0


def test_ill_conditioned_quadratic_converges():
    """Condition number 1e6 along the positive orthant boundary."""
    scales = np.array([1e3, 1.0, 1e-3])
    A = np.diag(scales)
    x_true = np.array([2.0, 0.0, 5.0])
    b = A @ x_true - np.array([0.0, 1e-3, 0.0])  # pushes x2 negative
    res = minimize_pqn(quad_problem(A, b), np.ones(3),
                       PqnConfig(grad_tol=1e-12, max_iter=2000))
    assert res.converged
    assert res.lam[1] == 0.0
    assert np.allclose(res.lam[[0, 2]], [2.0, 5.0], atol=1e-6)


def test_iterates_stay_in_orthant_and_objective_decreases():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((10, 5))
    b = rng.standard_normal(10)
    seen = []

    base = quad_problem(A, b)

    def recording(x):
        assert np.all(x >= 0.0)
        f, g = base(x)
        seen.append(f)
        return f, g

    res = minimize_pqn(recording, np.full(5, 2.0), PqnConfig(grad_tol=1e-10))
    assert res.converged
    # accepted objective values never increase (line-search evaluations may)
    f_prev = seen[0]
    assert res.objective <= f_prev + 1e-12 * (1 + abs(f_prev))


def test_result_reports_iterations_and_gradient():
    res = minimize_pqn(quad_problem(np.eye(2), np.array([1.0, 1.0])),
                       np.zeros(2), PqnConfig(grad_tol=1e-10))
    assert res.converged and res.iterations >= 1
    assert res.grad_norm <= 1e-10 * (1 + abs(res.objective))
