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
