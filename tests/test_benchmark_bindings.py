"""The names benchmarks/tracing.py binds to exist in the package, so a
rename fails here instead of breaking the traced benchmark run."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" \
    / "tracing.py"


def _tracing():
    """benchmarks/tracing.py loaded by path (it installs nothing on
    import)."""
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_layers_resolve():
    """Every (module, attribute) of LAYERS, which the tracer wraps at
    install time, is a function of the package."""
    for module, attr, *_ in _tracing().LAYERS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), "%s.%s" % (module, attr)


def test_tracing_factor_queries_are_marginal_factor_methods():
    from groupsparse.model import MarginalFactor
    for meth in _tracing().FACTOR_QUERIES:
        assert callable(vars(MarginalFactor).get(meth)), meth


def test_tracing_hooks_read_real_solver_results():
    """The traced run's hooks applied to real solver calls: solve_lasso,
    converged and not (two nearly equal columns at a penalty of 1e-12 of
    the largest correlation, where the certificate fails, so _lasso_after
    reads config.max_iter), and a cold solve_glasso that goes through the
    retreat."""
    import numpy as np
    import groupsparse.convex as cv
    from groupsparse import McConfig, estimate_sigma2_ls, gen_problem
    rng = np.random.default_rng(0)
    G = rng.standard_normal((6, 3))
    G[:, 1] = G[:, 0] + 1e-10 * rng.standard_normal(6)
    y = rng.standard_normal(6)
    gmax = np.max(np.abs(G.T @ y))
    des, _, y2, _ = gen_problem(McConfig(experiment="exp2", runs=1,
                                         master_seed=7, estimators=[]), 0)
    s2 = estimate_sigma2_ls(y2, des.G)
    b = des.G.T @ y2
    reg = 1e-3 * max(np.linalg.norm(b[sl]) for sl in des.slices) / s2
    with _tracing().Tracer() as tracer:
        lassos = [cv.solve_lasso(y, G, cv.ConvexFitConfig(reg_param=f * gmax))
                  for f in (0.5, 1e-12)]
        glasso = cv.solve_glasso(y2, des, s2, reg)
    assert lassos[0].converged and not lassos[1].converged
    assert glasso.converged and glasso.iterations > 0
    assert tracer.counts["convex.lasso.sweeps"] == \
        sum(fit.iterations for fit in lassos)
    assert tracer.counts["convex.lasso.capped"] == 0
    assert tracer.counts["convex.glasso.sweeps"] == glasso.iterations
    assert not hasattr(cv.solve_lasso, "__wrapped__")  # uninstalled
