"""The names benchmarks/tracing.py and benchmarks/run.py bind to exist in
the package and behave as they read them, so a rename or deletion fails
here instead of breaking a benchmark run."""

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


def test_tracing_reads_of_a_marginal_factor():
    """What the tracer's factor hooks read, on both routes: fac.lowrank
    (n > m), fac.design (its n and m) and fac._gtwg, None until gtwg() is
    called and the returned matrix after; then a traced build and two
    gtwg calls per route count one factor of each kind and no flops for
    the cached call."""
    import numpy as np
    from groupsparse.model import GroupedDesign, MarginalFactor
    rng = np.random.default_rng(1)
    designs = [GroupedDesign(rng.standard_normal((n, 6)), [2, 4])
               for n in (12, 4)]
    for des in designs:
        fac = MarginalFactor(des, np.array([0.5, 2.0]), 0.3)
        assert fac.lowrank is (des.n > des.m)
        assert fac.design is des
        assert fac._gtwg is None
        M = fac.gtwg()
        assert fac._gtwg is M and M.shape == (des.m, des.m)
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        for des in designs:
            fac = MarginalFactor(des, np.array([0.5, 2.0]), 0.3)
            fac.gtwg()
            before = tracer.counts["model.factor.flop"]
            fac.gtwg()
            assert tracer.counts["model.factor.flop"] == before
    assert tracer.counts["model.factor.lowrank.count"] == 1
    assert tracer.counts["model.factor.dense.count"] == 1
    assert tracer.counts["model.factor.flop"] > 0


def test_tracing_hooks_read_real_solver_results():
    """The traced run's hooks applied to real solver calls: solve_lasso,
    converged and not (two nearly equal columns at a penalty of 1e-12 of
    the largest correlation, where the certificate fails, so _lasso_after
    reads config.max_iter), and a cold solve_glasso that goes through the
    retreat."""
    import numpy as np
    import groupsparse.convex as cv
    from groupsparse import McConfig
    from groupsparse.experiments import gen_problem
    from groupsparse.selection import estimate_sigma2_ls
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


def test_run_py_reads_of_the_package(tmp_path, capsys):
    """What benchmarks/run.py reads from the package, used the way it uses
    it: gen_problem's (design, theta, y, sigma2) with theta's .theta,
    .block(i) and .group_sizes; estimate_sigma2_ls and the registry fit
    sharing a ctx; write_csv_matrix and `fit` through cli.main, whose JSON
    becomes EstimateResult(theta=, lam=, selected=) with converged True by
    default; percentage_error, zero_pattern and sparsity_index."""
    import json
    import numpy as np
    from groupsparse import cli, experiments as ex
    from groupsparse.model import EstimateResult
    cfg = ex.McConfig(experiment="exp1", runs=1, master_seed=0,
                      estimators=["hgla"], p=10, k=4, n=100)
    design, theta_true, y, sigma2 = ex.gen_problem(cfg, 0)
    assert len(theta_true.group_sizes) == design.p
    for i in range(design.p):
        assert np.array_equal(theta_true.block(i),
                              theta_true.theta[design.slices[i]])
    true_zeros = [float(theta_true.block(i) @ theta_true.block(i)) == 0.0
                  for i in range(len(theta_true.group_sizes))]
    lib = ex.ESTIMATORS["hgla"](y, design, ex.estimate_sigma2_ls(y, design.G),
                                {"theta_true": theta_true})
    g_path, y_path = tmp_path / "G.csv", tmp_path / "y.csv"
    cli.write_csv_matrix(g_path, design.G)
    cli.write_csv_matrix(y_path, y.reshape(-1, 1))
    capsys.readouterr()
    assert cli.main(["fit", "--method", "hgla", "--data-g", str(g_path),
                     "--data-y", str(y_path), "--groups", str(cfg.k),
                     "--sigma2", repr(sigma2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    res = EstimateResult(theta=np.array(doc["theta"]),
                         lam=np.array(doc["lambda"]),
                         selected=doc["selected"])
    assert res.converged is True
    for fit in (lib, res):
        assert np.isfinite(ex.percentage_error(fit.theta, theta_true))
        pattern = ex.zero_pattern(fit, design)
        assert len(pattern) == design.p
        assert 0.0 <= ex.sparsity_index([(pattern, true_zeros)]) <= 100.0


def test_what_selected_lists():
    """benchmarks/run.py::MonteCarlo.run reads ESTIMATORS["lasso"]'s
    `selected` as columns and every other fit's as blocks, and
    cli.COLUMN_SELECTED names the fits that list columns: on an exp1
    problem (10 blocks of 4 columns) each lists the nonzero columns or
    the nonzero blocks of its theta."""
    import numpy as np
    from groupsparse import cli, experiments as ex
    cfg = ex.McConfig(experiment="exp1", runs=1, master_seed=0,
                      estimators=[])
    design, _, y, _ = ex.gen_problem(cfg, 0)
    sigma2 = ex.estimate_sigma2_ls(y, design.G)
    ctx = {}
    assert "lasso" in cli.COLUMN_SELECTED
    for name in cli.FIT_METHODS:
        res = ex.ESTIMATORS[name](y, design, sigma2, ctx)
        nonzero = res.theta if name in cli.COLUMN_SELECTED \
            else design.block_norms(res.theta)
        assert list(res.selected) == list(np.flatnonzero(nonzero)), name
