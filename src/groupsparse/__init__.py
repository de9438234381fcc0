"""Group-sparse linear regression toolkit.

Convex estimators (Lasso, Group Lasso, kernel-scale/MKL) and empirical-Bayes
estimators that put per-block scale factors on the coefficients, estimate
them from the marginal likelihood, and read off sparsity from exact zeros.
"""

from .model import (
    GroupedDesign, BlockVector, EstimateResult, MarginalFactor,
    posterior_mean, mse_of_lambda, diagonalize_block,
)
from .pqn import PqnConfig, PqnResult, minimize_pqn
from .convex import (
    ConvexFitConfig, solve_lasso, solve_glasso, solve_mkl_lambda,
    kkt_residual_mkl,
)
from .hglasso import (
    solve_hgl_pqn, closed_form_lambda_orth, closed_form_lambda_mkl_orth,
    ZeroProbQuery, prob_lambda_zero, two_group_thresholds,
    weighted_mse_profile,
)
from .selection import (
    SelectionConfig, SelectionTrace, estimate_sigma2_ls, estimate_kappa,
    forward_select, fit_hglasso,
)
from .experiments import (
    McConfig, McReport, ArxProblem, ArxModel, gen_problem, percentage_error,
    sparsity_index, zero_pattern, build_arx, cod_k, gen_arx_series,
    run_monte_carlo, ESTIMATORS,
)

__version__ = "0.1.0"
