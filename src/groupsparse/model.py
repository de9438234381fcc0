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
from scipy.linalg.blas import dsyrk, dtrsm
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

    def block_sums(self, x):
        """Per-block sums of a length-m vector, as a p-vector."""
        return np.bincount(self.owner, x, minlength=self.p)

    def block_norms(self, x):
        """Euclidean norm of each block of a length-m vector, as a p-vector."""
        return np.sqrt(self.block_sums(x * x))

    def size_classes(self):
        """Per block size k, in increasing order: (k, the blocks of that
        size, their columns as an array whose row j is blocks[j]'s)."""
        sizes = np.asarray(self.group_sizes)
        out = []
        for k in np.unique(sizes):
            blocks = np.flatnonzero(sizes == k)
            out.append((int(k), blocks,
                        self.starts[blocks][:, None] + np.arange(k)))
        return out

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
      X^T = G^T L^{-T} from one right-sided triangular solve on G^T (a
      dtrsm, faster on these shapes than a left-sided one on G);
    - n > m (low rank): the m x m factor L of M = sigma2 I + Gt^T Gt, with

        Sigma_y^{-1} = [I - Gt M^{-1} Gt^T] / sigma2,

      which never inverts Lam, so lambda_i = 0 is fine, and
      G^T W G = (G^T G - B^T B) / sigma2 with B = L^{-1} Gt^T G from one
      triangular solve.

    NumPy forms X^T X, G^T G and B^T B as symmetric rank updates, so
    G^T W G comes out exactly symmetric on both routes.

    A negative lambda raises ValueError; sigma2 <= 0, or a Sigma_y that is
    not positive definite, raises np.linalg.LinAlgError.  quad, gtw_y,
    block_scores, neg_log_marginal and block_hessian answer for a copy of
    y kept at the build (one solve); without y they raise ValueError.

    BLAS and LAPACK are called directly (dsyrk, dtrsm, dpotrf, dpotrs,
    dtrtrs): on these sizes the checks of the scipy.linalg wrappers cost
    more than the arithmetic.  On the dense route S = Gt Gt^T comes back
    from dsyrk in Fortran order, so sigma2 is added to its diagonal
    through a view of its own memory (_add_to_diagonal); a C-order
    reshape would be a copy.
    """

    def __init__(self, design, lam, sigma2, y=None):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (design.p,):
            raise ValueError("lambda length %d does not match p=%d"
                             % (lam.size, design.p))
        if (lam < 0).any():
            raise ValueError("lambda must be nonnegative")
        if not sigma2 > 0:
            raise np.linalg.LinAlgError(
                "Sigma_y is not positive definite (sigma2 <= 0)")
        self.design = design
        self.lam = lam
        self.sigma2 = float(sigma2)
        self.y = None if y is None else np.array(y, dtype=float)
        self.lam_full = lam[design.owner]
        n, m = design.n, design.m
        self.lowrank = n > m
        self._d = d = np.sqrt(self.lam_full)
        if self.lowrank:
            gram = design.gram()
            M = d[:, None] * gram * d[None, :]
            _add_to_diagonal(M, self.sigma2)
            self._L = _cholesky(M)
            self._A = gram * d[None, :]          # G^T Gt
            self._logdet = ((n - m) * np.log(self.sigma2)
                            + 2.0 * np.log(self._L.diagonal()).sum())
        else:
            # lower triangle of Gt Gt^T (Gt.T is Fortran-ordered: no copy)
            S = dsyrk(1.0, (design.G * d).T, trans=1, lower=1)
            _add_to_diagonal(S, self.sigma2)
            self._L = _cholesky(S)
            self._logdet = 2.0 * np.log(self._L.diagonal()).sum()
        self._gtwg = self._y_terms = None

    def logdet(self):
        return self._logdet

    def solve(self, B):
        """Sigma_y^{-1} B."""
        if self.lowrank:
            Gt = self.design.G * self._d[None, :]
            return (B - Gt @ dpotrs(self._L, Gt.T @ B, lower=1)[0]) \
                / self.sigma2
        return dpotrs(self._L, B, lower=1)[0]

    def _terms(self):
        """(y^T W y, G^T W y) from one solve against y, made on first use."""
        if self._y_terms is None:
            y = self.y
            if y is None:
                raise ValueError("this MarginalFactor was built without y")
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
            self._y_terms = quad, gwy
        return self._y_terms

    def quad(self):
        """y^T Sigma_y^{-1} y without forming anything n x n on the low-rank route."""
        return self._terms()[0]

    def gtw_y(self):
        """G^T Sigma_y^{-1} y, an m-vector (read-only)."""
        return self._terms()[1]

    def gtwg(self):
        """G^T Sigma_y^{-1} G, an m x m matrix (cached)."""
        if self._gtwg is None:
            if self.lowrank:
                B = dtrtrs(self._L, self._A.T, lower=1)[0]  # L^{-1} Gt^T G
                self._gtwg = (self.design.gram() - B.T @ B) / self.sigma2
            else:
                # X^T = G^T L^{-T} (G.T is Fortran-ordered: no copy in)
                Xt = dtrsm(1.0, self._L, self.design.G.T, side=1, lower=1,
                           trans_a=1)
                self._gtwg = Xt @ Xt.T
        return self._gtwg

    def block_traces(self):
        """tr(G^(i)^T W G^(i)) for every block, as a p-vector."""
        return self.design.block_sums(self.gtwg().diagonal())

    def block_scores(self):
        """||G^(i)^T W y||^2 for every block, as a p-vector."""
        return self.design.block_sums(self.gtw_y() ** 2)

    def neg_log_marginal(self, gamma):
        """(f, grad) of the penalized negative log marginal likelihood

            f = 0.5 logdet Sigma_y + 0.5 y^T W y + gamma sum_i lambda_i

        at this factor's lambda, W = Sigma_y^{-1}; grad_i = 0.5 tr(G^(i)T W
        G^(i)) - 0.5 ||G^(i)T W y||^2 + gamma.  gamma must be nonnegative.
        """
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        f = 0.5 * self.logdet() + 0.5 * self.quad() + gamma * self.lam.sum()
        grad = 0.5 * self.block_traces() - 0.5 * self.block_scores() + gamma
        return f, grad

    def block_hessian(self):
        """Hessian in lambda of 0.5 logdet Sigma_y + 0.5 y^T W y, p x p.

        With M = G^T W G and q = G^T W y, entry (i, j) is
        -0.5 ||M_ij||_F^2 + q_i^T M_ij q_j, M_ij the (i, j) block of M.
        """
        M = self.gtwg()
        q = self.gtw_y()
        starts = self.design.starts
        H = np.add.reduceat(np.add.reduceat(
            M * (np.multiply.outer(q, q) - 0.5 * M), starts, axis=0),
            starts, axis=1)
        return 0.5 * (H + H.T)


def _add_to_diagonal(S, s):
    """S[i, i] += s in place, for a C- or Fortran-contiguous square S (the
    diagonal has stride n + 1 in memory order either way)."""
    S.ravel(order="K")[::S.shape[0] + 1] += s


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
    fac = MarginalFactor(design, lam, sigma2, y)
    return fac.lam_full * fac.gtw_y()


def kkt_violation_hgl(lam, e):
    """Max violation of the first-order conditions of a minimization over
    lam >= 0 at lam, from e, a positive multiple of the gradient: active
    coordinates must have e_i = 0 and zero ones e_i >= 0, so max |e_i| if
    lam_i > 0, else max(0, -e_i).  solve_hgl_pqn's e is twice its
    gradient, kkt_residual_mkl's 2 gamma - ||G^(i)T W y||^2."""
    res = np.where(lam > 0, np.abs(e), np.maximum(0.0, -e))
    return float(np.max(res, initial=0.0))


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
    if lam.shape != (design.p,):
        raise ValueError("expected a length-%d per-block vector" % design.p)
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    tb = _coefficients(theta_true)
    lam_full = lam[design.owner]
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
    fac = MarginalFactor(design, lam_v, sigma2, y)
    sl, n = design.slices[i], design.n
    w, V = np.linalg.eigh(fac.gtwg()[sl, sl] / n)
    r = min(n, w.size)
    w, V = w[::-1][:r], V[:, ::-1][:, :r]
    if w[-1] <= 0:
        raise np.linalg.LinAlgError("block %d is numerically rank deficient" % i)
    d = np.sqrt(w)
    z = V.T @ fac.gtw_y()[sl] / (n * d)
    beta = None
    if theta_true is not None:
        beta = V.T @ _coefficients(theta_true)[sl]
    return z, d, beta
