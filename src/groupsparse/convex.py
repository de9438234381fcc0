"""Convex solvers: Lasso, Group Lasso, the kernel-scale problem, AdaLasso.

The kernel-scale (MKL-style) problem minimizes
    y^T (K(lambda) + sigma2 I)^{-1} y / 2 + gamma sum_i lambda_i
over lambda >= 0 with K^(i) = G^(i) G^(i)^T.  It is Group Lasso in another
parametrization: with theta the Group Lasso solution at regularization
sqrt(2 gamma), lambda_i = ||theta^(i)|| / sqrt(2 gamma) is its minimizer and
theta is the posterior mean at those scales (Bach, JMLR 2008).  So one
Group Lasso solver serves both: glasso_path walks a penalty grid by an
active-set Newton corrector from each warm start (a violating block joins
at its proximal-gradient step and Newton finishes it), retreating to the
last certified point with a halved penalty step where the corrector
fails, and solve_glasso is that path at one penalty.  The Lasso and the
adaptive Lasso are solved exactly, by one homotopy pass over the penalty
(lasso_path) that keeps one Cholesky factor of the active set's Gram
matrix per segment (_ActiveSet): a join extends it by a triangular solve,
a drop factors it afresh, and the path's slope and the exact, certified
solution at every grid point on the segment come from it.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg.lapack import dposv, dpotrf, dpotrs, dtrtrs

from .model import EstimateResult, MarginalFactor, kkt_violation_hgl


@dataclass
class ConvexFitConfig:
    reg_param: float = 0.0
    # the Lasso is an exact homotopy (lasso_path) and ignores max_iter, a
    # constant (no field) that benchmarks/tracing.py reads on a fit
    max_iter = 20000

    def __post_init__(self):
        if self.reg_param < 0:
            raise ValueError("reg_param must be nonnegative")


# weight used in place of |theta_ls_j|^(-eta) when the LS coefficient is 0;
# large enough to exclude the variable for any sane gamma
ADALASSO_WEIGHT_CAP = 1e8

# Lasso path events less than _TIE * mu apart in mu happen together
_TIE = 1e-12
# a Cholesky pivot below _PIVOT of its diagonal entry marks a column in the
# span of the others
_PIVOT = 1e-12

# the Group Lasso corrector: Newton steps per solve of an active set, and
# solves (after each drop or add) per corrector run
_NEWTON_STEPS = 10
_CORRECTOR_SOLVES = 8
# halvings of the penalty step after which the Group Lasso's retreat
# (_glasso_point) gives a point up as unconverged; they bound its runs
_HALVINGS = 40

# rows of the sign fold: _SIGNS * v stacks v over -v, exactly
_SIGNS = np.array([[1.0], [-1.0]])
# the empty index array a breakpoint without drops or held coordinates
# shares (nothing writes to it)
_NONE = np.zeros(0, dtype=np.intp)


def _absmax(v):
    """max |v_j| of a nonempty v (NaN if any is): argmax is one C call where
    .max() goes through the ufunc reduction machinery."""
    v = np.abs(v)
    return v[v.argmax()]


@dataclass
class PenaltyPath:
    """Solutions along a penalty grid, as the *_path solvers return them:
    theta (points x m) has one row per penalty, in the order given,
    converged flags the rows that passed the path's certificate, and work
    holds the path's counts (lasso_path, adalasso_path: breakpoints and
    factorizations; glasso_path: newton_steps, blocks_added, retreats)."""
    theta: np.ndarray
    converged: np.ndarray
    work: dict


def solve_lasso(y, G, config, sigma2=1.0):
    """L1-penalized least squares at the single penalty config.reg_param.

    Minimizes (y - G theta)^T (y - G theta) / (2 sigma2) + reg ||theta||_1
    exactly: lasso_path walked from ||G^T y||_inf down to mu = sigma2 reg.
    iterations is the number of breakpoints walked; extra holds the path's
    work (breakpoints, factorizations) and kkt_residual, the largest
    violation of the optimality conditions, in units of reg.
    """
    y = np.asarray(y, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    H, b, reg = G.T @ G, G.T @ y, config.reg_param
    path = lasso_path(H, b, [reg], sigma2)
    theta, work = path.theta[0], path.work
    g = (b - H @ theta) / sigma2
    viol = np.where(theta != 0, np.abs(g - reg * np.sign(theta)),
                    np.abs(g) - reg)
    r = y - G @ theta
    return EstimateResult(
        theta=theta, selected=list(np.flatnonzero(theta)), gamma=reg,
        converged=bool(path.converged[0]), iterations=work["breakpoints"],
        objective=(r @ r) / (2.0 * sigma2) + reg * np.sum(np.abs(theta)),
        extra={"kkt_residual": float(np.max(viol, initial=0.0)), **work})


def _cholesky(M):
    """Lower Cholesky factor of symmetric M, or None when M is numerically
    singular: a pivot below _PIVOT of its diagonal entry (a column in the
    span of the others)."""
    # LAPACK directly: on these small systems the checks of the
    # scipy.linalg wrappers cost more than the factorization
    L, info = dpotrf(M, lower=1, clean=0)
    if info != 0 or (L.diagonal() ** 2 <= _PIVOT * M.diagonal()).any():
        return None
    return L


def _spd_solve(M, r):
    """M^{-1} r for symmetric positive definite M, or None when M is
    numerically singular (_cholesky)."""
    if not r.size:
        return r
    L = _cholesky(M)
    return None if L is None else dpotrs(L, r, lower=1)[0]


def _path_slope(HE, s, zero, held):
    """Slope of the Lasso path just below a breakpoint.

    HE is H restricted to E, the coordinates whose correlation is at the
    bound, s their signs, and zero marks those of them that are zero at
    the breakpoint.  The slope d (theta_E moves by delta d as mu falls by
    delta) minimizes d^T HE d / 2 - s^T d subject to s_j d_j >= 0 where
    zero holds: the coordinates that move keep their correlations at the
    bound and the ones held at zero see theirs fall at least as fast as
    mu, which settles ties and simultaneous joins and drops (Efron et al.,
    Ann. Stat. 2004).  Primal active-set method from d = 0, with the zero
    coordinates in held (those that just dropped) held at first.  A zero
    coordinate whose column lies in the span of the moving ones (more
    than rank G of them) stays held.  Returns d, or None when the nonzero
    coordinates alone are singular.
    """
    held = held.copy()
    barred = np.zeros_like(zero)
    d = np.zeros(s.size)
    freed = None
    while True:
        free = ~held
        target = np.zeros(s.size)
        sol = _spd_solve(HE[free][:, free], s[free])
        if sol is None:
            if freed is not None:
                held[freed] = barred[freed] = True
            elif np.any(free & zero):
                held |= zero  # free them one at a time instead
            else:
                return None
            freed = None
            continue
        target[free] = sol
        # step towards target, stopped where a free zero coordinate would
        # take the wrong sign; that coordinate is held again
        cross = np.flatnonzero(free & zero & (s * target < 0))
        if cross.size:
            sd, st = s[cross] * d[cross], s[cross] * target[cross]
            ratio = sd / (sd - st)
            k = np.argmin(ratio)
            d += ratio[k] * (target - d)
            d[cross[k]] = 0.0
            held[cross[k]] = True
            continue
        d = target
        if not held.any():
            return d
        mult = np.where(held & ~barred, s * (HE @ d) - 1.0, np.inf)
        j = np.argmin(mult)
        if mult[j] >= -1e-10:
            return d
        held[j] = False
        freed = j


class _ActiveSet:
    """The Lasso path's active set A, its signs s_A and coefficients
    theta_A, in the order of the lower Cholesky factor L of H_AA, with the
    rows H[A, :], in buffers sized for every column (L's in Fortran order,
    which the LAPACK solves copy from fastest).  factorizations counts each
    dpotrf and each column appended."""

    def __init__(self, H):
        m = H.shape[0]
        self.H, self.factorizations = H, 0
        self.idx = np.zeros(m, dtype=np.intp)
        self.s, self.th = np.zeros(m), np.zeros(m)
        self.rows, self.L = np.zeros((m, m)), np.zeros((m, m), order="F")
        self._resize(0)

    def _resize(self, k):
        self.k = k
        self.A, self.sA, self.thA = self.idx[:k], self.s[:k], self.th[:k]
        self.HA = self.rows[:k]

    def _solve(self, r):
        """H_AA^{-1} r from the factor."""
        return dpotrs(self.L[:self.k, :self.k], r, lower=1)[0] \
            if self.k else r

    def _factor(self):
        """L from one dpotrf of H_AA; False when H_AA is numerically
        singular (_cholesky)."""
        if not self.k:
            return True
        self.factorizations += 1
        L = _cholesky(self.HA[:, self.A])
        if L is None:
            return False
        self.L[:self.k, :self.k] = L
        return True

    def reset(self, A, s, th):
        """Make A (with signs s and coefficients th) the active set and
        factor it afresh."""
        self._resize(A.size)
        self.A[:], self.sA[:], self.thA[:] = A, s, th
        self.HA[:] = self.H[A]
        return self._factor()

    def append(self, j, s_j):
        """Join j at zero with sign s_j: L gains a row by one triangular
        solve.  False, and A unchanged, when the new pivot is below _PIVOT
        of H_jj, as in _cholesky (column j in the span of A's)."""
        k, h = self.k, self.H[j]
        self.factorizations += 1
        pivot = h[j]
        if k:
            w = dtrtrs(self.L[:k, :k], h[self.A], lower=1)[0]
            pivot -= w @ w
            self.L[k, :k] = w
        if not pivot > _PIVOT * h[j]:
            return False
        self.L[k, k] = np.sqrt(pivot)
        self.idx[k], self.s[k], self.th[k] = j, s_j, 0.0
        self.rows[k] = h
        self._resize(k + 1)
        return True

    def pop(self):
        """Undo the last append (the leading rows of L stay as they were)."""
        self._resize(self.k - 1)

    def remove(self, p):
        """Drop the p-th coordinate of A and factor the rest afresh."""
        k = self.k
        for buf in (self.idx, self.s, self.th, self.rows):
            buf[p:k - 1] = buf[p + 1:k]
        self._resize(k - 1)
        return self._factor()

    def slope(self):
        """d = H_AA^{-1} s_A: theta_A moves by delta d as mu falls by
        delta."""
        return self._solve(self.sA)

    def points(self, b, mus, slack):
        """The exact solutions theta_A = H_AA^{-1} (b_A - mu s_A) at each
        mu of mus (one dpotrs for all), as rows of thA, and whether each
        is certified: it keeps every sign of s_A and its correlations
        q = b - H[:, A] theta_A have |q_j| <= mu (1 + 1e-9) + slack off A
        (at mu = 0, an interpolating fit when m > n, only the rounding
        slack is left)."""
        thA = self._solve(b[self.A, None] - self.sA[:, None] * mus).T
        bad = np.abs(b - thA @ self.HA) > (mus * (1 + 1e-9) + slack)[:, None]
        bad[:, self.A] = np.sign(thA) != self.sA  # on A: a sign lost
        return thA, ~bad.any(axis=1)


def _settle(act, c, E, theta, dropped):
    """The slope below a breakpoint that one join or drop does not settle:
    several events within _TIE, a joiner in the span of A or not leaving
    zero, a dropped coordinate whose correlation does not leave the bound.
    _path_slope on E, the coordinates at the bound (theta their
    coefficients at the breakpoint, dropped those that just reached zero),
    then act is reset to the coordinates that move, factored afresh.
    Returns (held, s_held), the coordinates of E held at zero and their
    signs, or None when the nonzero coordinates alone are singular."""
    zero = theta[E] == 0
    s = np.sign(np.where(zero, c[E], theta[E]))
    d = _path_slope(act.H[E[:, None], E], s, zero, np.isin(E, dropped))
    if d is None:
        return None
    # a zero coordinate moves only if it leaves zero faster than rounding:
    # a tie settled at d_j = 0 comes out as d_j ~ 1e-17
    moving = ~zero | (s * d > _TIE * np.max(np.abs(d), initial=0.0))
    if not act.reset(E[moving], s[moving], theta[E[moving]]):
        return None
    return E[~moving], s[~moving]


def lasso_path(H, b, gammas, sigma2=1.0):
    """Exact Lasso solutions at every penalty in gammas, one PenaltyPath,
    by one homotopy pass (Osborne, Presnell & Turlach, IMA J. Numer.
    Anal. 2000; LARS-Lasso, Efron et al. 2004) on H = G^T G and b = G^T y.

    With mu = sigma2 gamma the solution is
    piecewise linear in mu.  The walk starts at theta = 0 at mu_max =
    ||b||_inf and keeps the active set A and signs s, so that on a segment
    theta_A(mu) = H_AA^{-1} (b_A - mu s); the next breakpoint is the
    largest mu below the current one at which an inactive correlation
    c_j = b_j - H_j theta reaches +-mu (a join) or an active coefficient
    reaches 0 (a drop).  Each segment works from one lower Cholesky
    factor of H_AA (_ActiveSet): a join extends it by one triangular
    solve, a drop factors H_AA afresh, and the slope d = H_AA^{-1} s and
    every grid point on the segment come from it.  A breakpoint that one
    join or drop does not settle (events within _TIE mu of each other, a
    joiner in the span of A, as when m > n or columns repeat, or one that
    does not leave zero, a dropped coordinate that stays at the bound)
    takes its slope from _path_slope (_settle), and the coordinates that
    move are factored afresh.  While a grid point at mu = 0 remains,
    events below _TIE mu_max are rounding: the last segment runs on to
    mu = 0, where it ends at least squares when n > m.  Each grid point
    is the exact solution on its segment's A and s, read from the factor
    and certified there (_ActiveSet.points): converged is true only where
    every sign is kept and no correlation off A exceeds mu, up to 1e-9 of
    mu and 1e-14 of ||b||_inf.  work counts the breakpoints walked and
    the factorizations made.  A NaN or infinite sigma2 gamma raises
    ValueError (no grid point would ever be reached).
    """
    gammas = np.asarray(gammas, dtype=float)
    m = b.size
    mus = sigma2 * gammas
    if not np.isfinite(mus).all():
        raise ValueError("every penalty sigma2 gamma must be finite")
    # the grid points in the order the walk reaches them (mu falling), nxt
    # the first of them not yet read off; the NaN after them meets no stop
    order = np.argsort(mus, kind="stable")[::-1]
    mus = mus[order]
    stops, nxt = mus.tolist() + [np.nan], 0
    theta = np.zeros((gammas.size, m))
    converged = np.zeros(gammas.size, dtype=bool)
    mu = mu_max = np.max(np.abs(b), initial=0.0)
    slack, to_zero = 1e-14 * mu_max, mus.size > 0 and mus[-1] <= 0
    act = _ActiveSet(H)
    breaks = 0
    inf = np.full((2, m), np.inf)

    def read_off(stop):
        nonlocal nxt
        end = nxt
        while stops[end] >= stop:
            end += 1
        if end > nxt:
            take = order[nxt:end]
            theta[take[:, None], act.A], converged[take] = act.points(
                b, mus[nxt:end], slack)
            nxt = end

    read_off(mu)  # above mu_max theta = 0
    c = b
    joins = np.zeros(m, dtype=bool)  # inactive coordinates at the bound
    drops = _NONE  # positions in A of those at zero
    while nxt < mus.size:
        # every correlation at the bound, so that ties are settled together
        joins |= np.abs(c) >= mu * (1.0 - _TIE)
        joins[act.A] = False
        J = joins.nonzero()[0]
        d = e = None
        held = s_held = dropped = _NONE
        A, thA = act.A, act.thA
        if drops.size:
            dropped = A[drops]
        # one join or one drop: update the factor and take the slope from
        # it, unless a check _path_slope would also make fails (in exact
        # arithmetic a lone event passes them; rounding near a tie may not)
        if J.size == 1 and not drops.size:
            if act.append(J[0], np.sign(c[J[0]])):
                d = act.slope()
                if act.sA[-1] * d[-1] <= _TIE * _absmax(d):
                    act.pop()  # the joiner does not leave zero
                    d = None
        elif drops.size == 1 and not J.size:
            A, thA = A.copy(), thA.copy()  # for _settle, should it fail
            if act.remove(drops[0]):
                d = act.slope()
                e = d @ act.HA
                # the dropped correlation must leave the bound inwards
                held, s_held = dropped, np.sign(c[dropped])
                if s_held[0] * e[held[0]] < 1.0 - 1e-10:
                    d = None
        if d is None:
            th = np.zeros(m)
            th[A] = thA
            E = np.union1d(A, J)
            settled = _settle(act, c, E, th, dropped)
            if settled is None:  # no slope: the rest stay at this point
                theta[order[nxt:]] = th
                break
            held, s_held = settled
            d, e = act.slope(), None
        if e is None:
            e = d @ act.HA
        A, thA = act.A, act.thA
        # drops: active coefficients heading for zero
        to_drop = np.divide(-thA, d, out=inf[0, :A.size].copy(),
                            where=thA * d < 0)
        # joins: c_j falls by delta e_j while the bound falls by delta, so
        # the gap mu - c_j closes at rate 1 - e_j (> 0 exactly where
        # e_j < 1); row 0 of the fold is c_j meeting mu, row 1 -c_j
        # meeting mu (c_j meeting -mu), in one divide
        rate = 1.0 - _SIGNS * e
        to_join = np.divide(np.maximum(mu - _SIGNS * c, 0.0), rate,
                            out=inf.copy(), where=rate > 0.0)
        # coordinates held at the bound leave it inwards (_path_slope) but
        # may still cross to the opposite bound
        if held.size:
            to_join[0, held[s_held > 0]] = np.inf
            to_join[1, held[s_held < 0]] = np.inf
        to_join = np.minimum(to_join[0], to_join[1])
        to_join[A] = np.inf
        # the least of each, read off argmin (a cheaper call than min)
        delta = min(to_drop[to_drop.argmin()] if A.size else np.inf,
                    to_join[to_join.argmin()])
        # while a grid point at mu = 0 remains, events this close to it
        # are rounding
        if mu - delta <= _TIE * mu_max and to_zero:
            delta = np.inf
        read_off(mu - delta)
        if nxt == mus.size:
            break
        thA += delta * d
        window = delta + _TIE * mu
        drops = (to_drop <= window).nonzero()[0]
        if drops.size:
            thA[drops] = 0.0
        joins = to_join <= window
        mu -= delta
        breaks += 1
        c = b - thA @ act.HA
    return PenaltyPath(theta, converged, {
        "breakpoints": breaks, "factorizations": act.factorizations})


def _newton(H_AA, b_A, x, blk, a):
    """Newton's method on the stationarity equations of a set of blocks,
    H_AA x - b_A + a x_i / ||x_i|| = 0, from x (nonzero on every block);
    blk numbers each coordinate's block 0, 1, ...  The Jacobian H_AA +
    c_i (I - u_i u_i^T), c_i = a / ||x_i|| on same-block entries, is
    solved by one Cholesky solve (dposv): H_AA plus a semidefinite term is
    singular exactly when not positive definite.  It is built transposed,
    entry by entry as the same products and sums, in a C-order buffer
    whose transpose is the Fortran-order matrix dposv factors in place.
    Returns (x, steps, turned): on convergence (a step below 1e-10 of
    max |x|: convergence is quadratic, so what is left is rounding) turned
    is None; when a step would turn some block around (x_new_i . x_i <= 0)
    x is the iterate before it and turned flags those blocks; x is None
    when the Jacobian is singular or _NEWTON_STEPS run out.
    """
    # J's off-diagonal term -(c_i u_i) u_j on same-block entries is
    # (u_j (c_i u_i)) (-1), and across blocks -0 makes the zero J had
    minus_same = -(blk[:, None] == blk).astype(float)
    HT = H_AA.T.copy()
    JT = np.empty_like(HT)
    diag = JT.reshape(-1)[::x.size + 1]
    for it in range(1, _NEWTON_STEPS + 1):
        # np.count_nonzero: one C call where .all() and .any() are three
        nrm = np.sqrt(np.bincount(blk, x * x))
        if np.count_nonzero(nrm) < nrm.size:
            return None, it, None
        nrm = nrm[blk]
        u, c = x / nrm, a / nrm
        F = H_AA @ x - b_A + a * u
        np.multiply.outer(u, c * u, out=JT)
        JT *= minus_same
        diag += c
        JT += HT
        step, info = dposv(JT.T, F, lower=1, overwrite_a=1,
                           overwrite_b=1)[1:]
        if info != 0:
            return None, it, None
        x_new = x - step
        turned = np.bincount(blk, x_new * x) <= 0.0
        if np.count_nonzero(turned):
            return x, it, turned
        x = x_new
        if _absmax(step) <= 1e-10 * _absmax(x):
            return x, it, None
    return None, _NEWTON_STEPS, None


class _GlassoProblem:
    """What glasso_path computes once per design and data: H = G^T G
    (design.gram()), b = G^T y, in tops every block's L_i (one batched
    eigvalsh per block size), and the parts of the last active set
    (_active)."""

    def __init__(self, y, design, sigma2):
        self.y, self.design, self.sigma2 = y, design, sigma2
        self.H = H = design.gram()
        self.b = design.G.T @ y
        self.tops = np.empty(design.p)
        for _, blocks, cols in design.size_classes():
            self.tops[blocks] = np.linalg.eigvalsh(
                H[cols[:, :, None], cols[:, None, :]])[:, -1]
        self._key = self._parts = None

    def _active(self, act):
        """For the blocks flagged in act: their coordinates idx, each one's
        block numbered 0, 1, ... among them, H and b on idx, and H's
        columns at idx.  Kept for the last set asked for, which the next
        solve or grid point asks for again about two times in three."""
        key = act.tobytes()
        if key != self._key:
            owner = self.design.owner
            idx = act[owner].nonzero()[0]
            self._key, self._parts = key, (
                idx, (np.cumsum(act) - 1)[owner[idx]],
                self.H[idx[:, None], idx], self.b[idx], self.H[:, idx])
        return self._parts

    def correct(self, x, a, one=False):
        """Active-set corrector from x at a = sigma2 reg > 0: Newton
        (_newton) on x's nonzero blocks; a block that turns around is set
        to zero and the rest solved again; every inactive block with
        ||b_i - H_iA x_A|| = ||q_i|| > a (1 + 1e-9) (with one, only the
        most violating of them) then joins at its proximal-gradient step
        (1 - a / ||q_i||) q_i / L_i, L_i the largest eigenvalue of
        G^(i)T G^(i) (the exact block minimizer for a singleton or
        orthogonal block), and the set is solved again.
        Returns (x, newton steps, blocks added), x None unless a solve
        left no violator within _CORRECTOR_SOLVES solves: then x
        satisfies the Group Lasso optimality conditions (the
        certificate)."""
        b, design, tops = self.b, self.design, self.tops
        x = x.copy()
        steps = added = 0
        for _ in range(_CORRECTOR_SOLVES):
            act = design.block_sums(x * x) > 0.0  # the nonzero blocks
            idx, blk, H_AA, b_A, H_A = self._active(act)
            if idx.size:
                xA, k, turned = _newton(H_AA, b_A, x[idx], blk, a)
                steps += k
                if xA is None:
                    break
                x[idx] = xA
                if turned is not None:
                    x[idx[turned[blk]]] = 0.0
                    continue
            q = b - H_A @ x[idx]
            qn = design.block_norms(q)
            viol = (~act & (qn > a * (1.0 + 1e-9))).nonzero()[0]
            if not viol.size:
                return x, steps, added
            if one:
                viol = viol[[np.argmax(qn[viol])]]
            for i in viol:
                sl = design.slices[i]
                x[sl] = (1.0 - a / qn[i]) / tops[i] * q[sl]
            added += viol.size
        return None, steps, added


def _glasso_point(prob, warm, reg, cert):
    """One point of glasso_path.  At reg = 0, the minimum-norm least-squares
    solution, certified where ||G^T r||_inf <= 1e-9 ||G||_2 ||y||.
    Otherwise the active-set corrector (_GlassoProblem.correct) from warm,
    adding every violator; where it fails, the retreat: the corrector from
    the last certified point cert = (reg_c, x_c) at penalty t, adding one
    block per solve, first at t = reg; a failure moves t to the midpoint of
    reg_c and t, a success at t != reg advances cert to t and sends t back
    to reg, until reg is certified or _HALVINGS halvings are spent (x is
    then x_c, unconverged).  Returns (x, converged, Newton steps, added
    blocks, the retreat's corrector runs)."""
    G, y = prob.design.G, prob.y
    runs = steps = added = halvings = 0
    if reg == 0:
        x, _, _, sv = np.linalg.lstsq(G, y, rcond=None)
        converged = np.max(np.abs(G.T @ (y - G @ x))) \
            <= 1e-9 * sv[0] * np.linalg.norm(y)
    else:
        x, steps, added = prob.correct(warm, prob.sigma2 * reg)
        (reg_c, x_c), t = cert, reg
        while x is None and halvings <= _HALVINGS:
            x, k, n_add = prob.correct(x_c, prob.sigma2 * t, one=True)
            runs, steps, added = runs + 1, steps + k, added + n_add
            if x is None:
                t, halvings = 0.5 * (reg_c + t), halvings + 1
            elif t != reg:
                reg_c, x_c, t, x = t, x, reg, None
        converged = x is not None
        x = x if converged else x_c
    return x, converged, steps, added, runs


def glasso_path(y, design, sigma2, regs, theta0=None):
    """Group Lasso solutions at every penalty in regs, as one PenaltyPath.

    Minimizes (y - G theta)^T (y - G theta) / (2 sigma2)
    + reg sum_i ||theta^(i)||.  H = G^T G and b = G^T y are computed
    once; the walk goes from the largest reg down, each point starting
    from the previous solution (the first from theta0, default zero), and
    is solved by an active-set corrector (Roth & Fischer, ICML 2008):
    Newton on the warm active set's stationarity equations, blocks that
    turn around dropped, violating blocks joining at their
    proximal-gradient step, which the next Newton solve finishes.  Where
    that fails the point is reached from the last certified one (at first
    reg_max = max_i ||b_i|| / sigma2, where theta = 0) by penalty steps
    halved on failure, one block added at a time (_glasso_point).
    converged is true only where the point passed the certificate (the
    optimality conditions of every block, inactive ones up to 1e-9 of
    sigma2 reg).  work totals the Newton steps, the blocks added and the
    retreat's corrector runs over the points.  A negative, NaN or
    infinite reg raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    regs = np.asarray(regs, dtype=float)
    if not np.all((regs >= 0) & (regs < np.inf)):
        raise ValueError("reg must be nonnegative and finite")
    prob = _GlassoProblem(y, design, sigma2)
    x = np.zeros(design.m) if theta0 is None else \
        np.array(theta0, dtype=float)
    cert = (np.max(design.block_norms(prob.b)) / sigma2, np.zeros(design.m))
    theta = np.zeros((regs.size, design.m))
    converged = np.zeros(regs.size, dtype=bool)
    work = dict.fromkeys(("newton_steps", "blocks_added", "retreats"), 0)
    for i in np.argsort(regs, kind="stable")[::-1]:
        x, converged[i], *counts = _glasso_point(prob, x, regs[i], cert)
        theta[i] = x
        for key, count in zip(work, counts):
            work[key] += count
        if converged[i]:
            cert = (regs[i], x)
    return PenaltyPath(theta, converged, work)


def solve_glasso(y, design, sigma2, reg, theta0=None):
    """Group Lasso at the single penalty reg: glasso_path run at that
    penalty from theta0 (default zero).  iterations counts the retreat's
    corrector runs and extra holds the path's work (Newton steps, added
    blocks, retreats)."""
    y = np.asarray(y, dtype=float)
    path = glasso_path(y, design, sigma2, [reg], theta0)
    theta, work = path.theta[0], path.work
    norms = design.block_norms(theta)
    r = y - design.G @ theta
    return EstimateResult(
        theta=theta, selected=list(np.flatnonzero(norms)), gamma=reg,
        converged=bool(path.converged[0]), iterations=work["retreats"],
        objective=(r @ r) / (2.0 * sigma2) + reg * np.sum(norms),
        extra=work)


def solve_mkl_lambda(y, design, sigma2, gamma, theta0=None):
    """Global minimizer of the convex kernel-scale objective.

    Solves Group Lasso at reg = sqrt(2 gamma) from theta0 (default zero;
    est_mkl passes its validation path's point at gamma) and returns that
    EstimateResult with lam_i = ||theta^(i)|| / sqrt(2 gamma), the
    nonnegative p-vector of scales, and gamma set to gamma.
    The quality of the solve is certified by kkt_residual_mkl.
    """
    if gamma <= 0:
        raise ValueError("mkl requires positive gamma")
    reg = np.sqrt(2.0 * gamma)
    res = solve_glasso(y, design, sigma2, reg, theta0=theta0)
    res.lam = design.block_norms(res.theta) / reg
    res.gamma = gamma
    return res


def kkt_residual_mkl(lam, y, design, sigma2, gamma):
    """Max violation of the kernel-scale optimality conditions at lambda.

    Active coordinates need ||G^(i)T W y||^2 = 2 gamma; zero coordinates
    need ||G^(i)T W y||^2 <= 2 gamma.
    """
    lam = np.asarray(lam, dtype=float)
    sq = MarginalFactor(design, lam, sigma2, y).block_scores()
    return kkt_violation_hgl(lam, 2.0 * gamma - sq)


def _adalasso_weights(ls, eta):
    """Adaptive Lasso weights |theta_ls_j|^(-eta) from the least-squares
    coefficients ls, capped at ADALASSO_WEIGHT_CAP (also where ls_j = 0,
    which is not raised to -eta)."""
    w = np.power(np.abs(ls), -eta, where=ls != 0,
                 out=np.full(ls.shape, ADALASSO_WEIGHT_CAP))
    return np.minimum(w, ADALASSO_WEIGHT_CAP)


def adalasso_path(G, y, gammas, etas, sigma2):
    """Adaptive Lasso solutions over the (eta, gamma) grid, as one
    PenaltyPath whose rows run over gammas for each eta in turn.  The
    weights w = |theta_ls|^(-eta) (_adalasso_weights) come from one
    least-squares fit; with u = w * theta each eta is one lasso_path on
    the columns G_j / w_j, with Gram matrix H / (w w^T) and correlations
    b / w for the one H = G^T G and b = G^T y (a capped weight only
    shrinks its column, which then joins last, if at all).  theta is in
    the original coordinates and work totals the paths'."""
    H, b = G.T @ G, G.T @ y
    ls = np.linalg.lstsq(G, y, rcond=None)[0]
    ws = [_adalasso_weights(ls, eta) for eta in etas]
    paths = [lasso_path(H / np.outer(w, w), b / w, gammas, sigma2)
             for w in ws]
    return PenaltyPath(
        np.concatenate([p.theta / w for p, w in zip(paths, ws)]),
        np.concatenate([p.converged for p in paths]),
        {k: sum(p.work[k] for p in paths)
         for k in ("breakpoints", "factorizations")})
