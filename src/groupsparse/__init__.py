"""Group-sparse linear regression toolkit.

Convex estimators (Lasso, Group Lasso, kernel-scale/MKL) and empirical-Bayes
estimators that put per-block scale factors on the coefficients, estimate
them from the marginal likelihood, and read off sparsity from exact zeros.
"""

from .model import GroupedDesign
from .convex import solve_mkl_lambda
from .hglasso import (
    solve_hgl_pqn, closed_form_lambda_orth, closed_form_lambda_mkl_orth,
    ZeroProbQuery, prob_lambda_zero, two_group_thresholds,
)
from .selection import SelectionConfig, fit_hglasso
from .experiments import (
    McConfig, arx_cod, build_arx, gen_arx_series, run_monte_carlo,
)

__version__ = "0.1.0"
