"""Core model for grouped linear regression with per-block scale factors.

The observation model is y = G theta + v, v ~ N(0, sigma2 I), where the
columns of G are partitioned into p blocks G^(i) and each block of theta
carries a scale factor lambda_i.  Marginalizing theta gives the output
covariance

    Sigma_y(lambda) = sum_i lambda_i G^(i) G^(i)^T + sigma2 I,

and everything downstream (posterior mean, marginal likelihood, MSE) is a
function of lambda through Sigma_y.  This module holds the data containers
and the numerical kernel shared by all solvers.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs


# ============================================================
# containers
# ============================================================

class GroupedDesign:
    """Regression matrix with a block partition of its columns.

    Parameters
    ----------
    G : (n, m) array
    group_sizes : sequence of p positive ints summing to m
    """

    def __init__(self, G, group_sizes):
        G = np.atleast_2d(np.asarray(G, dtype=float))
        sizes = [int(k) for k in group_sizes]
        if any(k < 1 for k in sizes):
            raise ValueError("every group size must be >= 1")
        if sum(sizes) != G.shape[1]:
            raise ValueError(
                "group sizes sum to %d but design has %d columns"
                % (sum(sizes), G.shape[1])
            )
        self.G = G
        self.group_sizes = sizes
        ends = np.cumsum(sizes)
        self.slices = [slice(int(e - k), int(e)) for k, e in zip(sizes, ends)]
        self.starts = ends - sizes         # first column of each block
        self.owner = np.repeat(np.arange(len(sizes)), sizes)  # column -> block
        self._gtg = None

    @property
    def n(self):
        return self.G.shape[0]

    @property
    def m(self):
        return self.G.shape[1]

    @property
    def p(self):
        return len(self.group_sizes)

    def block(self, i):
        """Column block G^(i), shape (n, k_i)."""
        return self.G[:, self.slices[i]]

    def expand(self, per_block):
        """Spread a per-block p-vector to a length-m vector."""
        per_block = np.asarray(per_block, dtype=float)
        if per_block.shape != (self.p,):
            raise ValueError("expected a length-%d per-block vector" % self.p)
        return np.repeat(per_block, self.group_sizes)

    def block_sums(self, x):
        """Per-block sums of a length-m vector, as a p-vector."""
        return np.bincount(self.owner, x, minlength=self.p)

    def block_norms(self, x):
        """Euclidean norm of each block of a length-m vector, as a p-vector."""
        return np.sqrt(self.block_sums(x * x))

    def gram(self):
        """G^T G, cached."""
        if self._gtg is None:
            self._gtg = self.G.T @ self.G
        return self._gtg

    def subdesign(self, blocks):
        """Design restricted to the listed blocks (order preserved)."""
        blocks = sorted(blocks)
        return GroupedDesign(self.G[:, np.isin(self.owner, blocks)],
                             [self.group_sizes[i] for i in blocks])


@dataclass
class BlockVector:
    """Coefficient vector partitioned like a GroupedDesign."""

    theta: np.ndarray
    group_sizes: list

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (sum(self.group_sizes),):
            raise ValueError("theta length does not match the partition")
        ends = np.cumsum(self.group_sizes)
        self.slices = [slice(int(e - k), int(e))
                       for k, e in zip(self.group_sizes, ends)]

    def block(self, i):
        return self.theta[self.slices[i]]


@dataclass
class EstimateResult:
    """Output of any estimator: coefficients plus solver diagnostics."""

    theta: np.ndarray
    lam: np.ndarray = None
    selected: list = field(default_factory=list)
    gamma: float = None
    converged: bool = True
    iterations: int = 0
    objective: float = np.nan
    extra: dict = field(default_factory=dict)


# ============================================================
# Sigma_y factorization
# ============================================================

class MarginalFactor:
    """Factorized access to Sigma_y = G Lam G^T + sigma2 I.

    Two routes with identical semantics, both built from
    Gt = G diag(sqrt(lam)):

    - n <= m (dense): the Cholesky factor L of Sigma_y = Gt Gt^T + sigma2 I,
      formed by one symmetric rank-m product, and G^T W G = X^T X with
      X = L^{-1} G from one triangular solve;
    - n > m (low rank): the m x m factor of M = sigma2 I + Gt^T Gt, with

        Sigma_y^{-1} = [I - Gt M^{-1} Gt^T] / sigma2,

      which never inverts Lam, so lambda_i = 0 is fine.

    A negative lambda raises ValueError; sigma2 <= 0, or a Sigma_y that is
    not positive definite, raises np.linalg.LinAlgError.  The solve against
    y is kept for the last y queried, so quad, gtw_y, block_scores,
    neg_log_marginal and block_hessian of one y share it.
    """

    def __init__(self, design, lam, sigma2):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (design.p,):
            raise ValueError("lambda length %d does not match p=%d"
                             % (lam.size, design.p))
        if np.any(lam < 0):
            raise ValueError("lambda must be nonnegative")
        if not sigma2 > 0:
            raise np.linalg.LinAlgError(
                "Sigma_y is not positive definite (sigma2 <= 0)")
        self.design = design
        self.lam = lam
        self.sigma2 = float(sigma2)
        self.lam_full = design.expand(lam)
        n, m = design.n, design.m
        self.lowrank = n > m
        self._d = d = np.sqrt(self.lam_full)
        if self.lowrank:
            gram = design.gram()
            M = d[:, None] * gram * d[None, :]
            M[np.diag_indices_from(M)] += self.sigma2
            self._L = _cholesky(M)
            self._A = gram * d[None, :]          # G^T Gt
            self._logdet = ((n - m) * np.log(self.sigma2)
                            + 2.0 * np.sum(np.log(np.diag(self._L))))
        else:
            # lower triangle of Gt Gt^T (Gt.T is Fortran-ordered: no copy)
            S = dsyrk(1.0, (design.G * d).T, trans=1, lower=1)
            S[np.diag_indices_from(S)] += self.sigma2
            self._L = _cholesky(S)
            self._logdet = 2.0 * np.sum(np.log(np.diag(self._L)))
        self._gtwg = None
        self._y = self._y_terms = None

    def logdet(self):
        return self._logdet

    def solve(self, B):
        """Sigma_y^{-1} B."""
        if self.lowrank:
            Gt = self.design.G * self._d[None, :]
            return (B - Gt @ dpotrs(self._L, Gt.T @ B, lower=1)[0]) \
                / self.sigma2
        return dpotrs(self._L, B, lower=1)[0]

    def _terms(self, y):
        """(y^T W y, G^T W y) from one solve against y, kept for the last
        y (compared by value, so a y changed in place is solved again)."""
        if self._y is None or not np.array_equal(self._y, y):
            y = np.array(y, dtype=float)
            if self.lowrank:
                gy = self.design.G.T @ y
                ty = self._d * gy
                z = dpotrs(self._L, ty, lower=1)[0]
                quad = (y @ y - ty @ z) / self.sigma2
                gwy = (gy - self._A @ z) / self.sigma2
            else:
                wy = self.solve(y)
                quad, gwy = y @ wy, self.design.G.T @ wy
            gwy.flags.writeable = False
            self._y, self._y_terms = y, (quad, gwy)
        return self._y_terms

    def quad(self, y):
        """y^T Sigma_y^{-1} y without forming anything n x n on the low-rank route."""
        return self._terms(y)[0]

    def gtw_y(self, y):
        """G^T Sigma_y^{-1} y, an m-vector (read-only)."""
        return self._terms(y)[1]

    def gtwg(self):
        """G^T Sigma_y^{-1} G, an m x m matrix (cached)."""
        if self._gtwg is None:
            if self.lowrank:
                self._gtwg = (self.design.gram() - self._A @ dpotrs(
                    self._L, self._A.T, lower=1)[0]) / self.sigma2
            else:
                X = dtrtrs(self._L, self.design.G, lower=1)[0]  # L^{-1} G
                self._gtwg = X.T @ X
        return self._gtwg

    def block_traces(self):
        """tr(G^(i)^T W G^(i)) for every block, as a p-vector."""
        return self.design.block_sums(np.diag(self.gtwg()))

    def block_scores(self, y):
        """||G^(i)^T W y||^2 for every block, as a p-vector."""
        return self.design.block_sums(self.gtw_y(y) ** 2)

    def neg_log_marginal(self, y, gamma):
        """(f, grad) of the penalized negative log marginal likelihood

            f = 0.5 logdet Sigma_y + 0.5 y^T W y + gamma sum_i lambda_i

        at this factor's lambda, W = Sigma_y^{-1}; grad_i = 0.5 tr(G^(i)T W
        G^(i)) - 0.5 ||G^(i)T W y||^2 + gamma.  gamma must be nonnegative.
        """
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        f = 0.5 * self.logdet() + 0.5 * self.quad(y) + gamma * self.lam.sum()
        grad = 0.5 * self.block_traces() - 0.5 * self.block_scores(y) + gamma
        return f, grad

    def block_hessian(self, y):
        """Hessian in lambda of 0.5 logdet Sigma_y + 0.5 y^T W y, p x p.

        With M = G^T W G and q = G^T W y, entry (i, j) is
        -0.5 ||M_ij||_F^2 + q_i^T M_ij q_j, M_ij the (i, j) block of M.
        """
        M = self.gtwg()
        q = self.gtw_y(y)
        starts = self.design.starts
        H = np.add.reduceat(np.add.reduceat(
            M * (np.outer(q, q) - 0.5 * M), starts, axis=0), starts, axis=1)
        return 0.5 * (H + H.T)


def _cholesky(S):
    """Lower Cholesky factor of S, computed in place (LAPACK directly: on
    these sizes the checks of the scipy.linalg wrappers cost more than the
    factorization)."""
    L, info = dpotrf(S, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("Sigma_y is not positive definite")
    return L


# ============================================================
# operations
# ============================================================

def posterior_mean(design, lam, sigma2, y):
    """Conditional mean E[theta | y, lambda] = Lam G^T Sigma_y^{-1} y, an
    m-vector.  Blocks with lambda_i = 0 come out exactly zero."""
    fac = MarginalFactor(design, lam, sigma2)
    return fac.lam_full * fac.gtw_y(np.asarray(y, dtype=float))


def _coefficients(theta):
    """theta, an m-vector or a BlockVector, as an m-vector."""
    return np.asarray(getattr(theta, "theta", theta), dtype=float)


def mse_of_lambda(design, lam, sigma2, theta_true):
    """Mean squared error of the posterior-mean estimator at a given lambda.

    For blocks with lambda_i > 0 this is the matrix formula

        tr[sigma2 (G^T G + sigma2 Lam^{-1})^{-1}
           (G^T G + sigma2 Lam^{-1} tb tb^T Lam^{-1})
           (G^T G + sigma2 Lam^{-1})^{-1}]

    restricted to the active blocks; a block with lambda_i = 0 is estimated
    as exactly zero, so it contributes ||theta_true^(i)||^2 (the limit of the
    formula as lambda_i -> 0).
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    tb = _coefficients(theta_true)
    lam_full = design.expand(lam)
    on = lam_full > 0                          # the columns of active blocks
    total = float(tb[~on] @ tb[~on])
    if not on.any():
        return total
    sub = design.subdesign(np.flatnonzero(lam))
    lam_full = lam_full[on]
    M = sub.gram() + sigma2 * np.diag(1.0 / lam_full)
    u = tb[on] / lam_full
    inner = sub.gram() + sigma2 * np.outer(u, u)
    Minv = np.linalg.inv(M)
    total += sigma2 * np.trace(Minv @ inner @ Minv)
    return total


def diagonalize_block(design, lam, sigma2, i, y, theta_true=None):
    """Rotate block i of the model into the scalar form z = D beta + eps.

    The disturbance covariance seen by block i is Sigma_v = Sigma_y at
    lambda_i = 0; with the thin SVD Sigma_v^{-1/2} G^(i) / sqrt(n) = U D
    V^T, the transformed data are z = U^T Sigma_v^{-1/2} y / sqrt(n) and
    beta = V^T theta^(i).  D^2 and V are the eigenpairs of
    G^(i)T Sigma_v^{-1} G^(i) / n (its min(n, k_i) largest, descending),
    so z = D^{-1} V^T G^(i)T Sigma_v^{-1} y / n.  Returns (z, d, beta),
    beta None without theta_true.
    """
    lam_v = np.array(lam, dtype=float)
    lam_v[i] = 0.0
    fac = MarginalFactor(design, lam_v, sigma2)
    sl, n = design.slices[i], design.n
    w, V = np.linalg.eigh(fac.gtwg()[sl, sl] / n)
    r = min(n, w.size)
    w, V = w[::-1][:r], V[:, ::-1][:, :r]
    if w[-1] <= 0:
        raise np.linalg.LinAlgError("block %d is numerically rank deficient" % i)
    d = np.sqrt(w)
    z = V.T @ fac.gtw_y(np.asarray(y, dtype=float))[sl] / (n * d)
    beta = None
    if theta_true is not None:
        beta = V.T @ _coefficients(theta_true)[sl]
    return z, d, beta
