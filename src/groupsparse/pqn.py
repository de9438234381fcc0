"""Limited-memory projected quasi-Newton minimization over the nonnegative orthant.

Minimizes f(x) subject to x >= 0 using L-BFGS directions with backtracking
along the projection arc (Armijo sufficient decrease).  The projection is a
componentwise max with 0, so coordinates land on the boundary exactly.  An
optional active set pins the complement coordinates at 0 for the whole run.
"""

import numpy as np
from dataclasses import dataclass


@dataclass
class PqnConfig:
    memory: int = 10
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    grad_tol: float = 1e-6
    max_iter: int = 500
    active_set: list = None

    def __post_init__(self):
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must lie in (0,1)")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must lie in (0,1)")
        if self.grad_tol <= 0 or self.max_iter < 1 or self.memory < 1:
            raise ValueError("grad_tol, max_iter and memory must be positive")


@dataclass
class PqnResult:
    lam: np.ndarray
    converged: bool
    iterations: int
    objective: float
    grad_norm: float
    grad: np.ndarray = None   # gradient at lam (solve_hgl_pqn)
    # smallest Hessian eigenvalue on the final free coordinates
    # (solve_hgl_pqn; None when none is free)
    min_free_hessian_eig: float = None


def _two_loop(g, S, Y):
    """Standard L-BFGS two-loop recursion for -H g."""
    q = g.copy()
    alphas = []
    rhos = [1.0 / (s @ y) for s, y in zip(S, Y)]
    for s, y, rho in zip(reversed(S), reversed(Y), reversed(rhos)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if S:
        s, y = S[-1], Y[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(zip(S, Y, rhos), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def minimize_pqn(fun_grad, x0, config=None):
    """Minimize fun_grad (returning (f, grad)) over x >= 0.

    Convergence test: ||x - proj(x - g)||_inf <= grad_tol * (1 + |f|),
    restricted to the free coordinates.
    """
    cfg = config or PqnConfig()
    x = np.maximum(np.asarray(x0, dtype=float).copy(), 0.0)
    free = np.zeros(x.size, dtype=bool)
    if cfg.active_set is None:
        free[:] = True
    else:
        free[list(cfg.active_set)] = True
        x[~free] = 0.0

    f, g = fun_grad(x)
    S, Y = [], []
    it = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        pg = x - np.maximum(x - g, 0.0)
        pg[~free] = 0.0
        if np.max(np.abs(pg), initial=0.0) <= cfg.grad_tol * (1.0 + abs(f)):
            converged = True
            break

        accepted = False
        # binding coordinates sit at 0 with the gradient pushing further
        # down; the projection would clip any motion there, and leaving
        # them in the quasi-Newton direction can turn the clipped step
        # into an ascent step, so drop them from the direction entirely
        binding = (~free) | ((x <= 0.0) & (g > 0.0))
        gm = g.copy()
        gm[binding] = 0.0
        for attempt in (0, 1):
            d = _two_loop(gm, S, Y) if (S and attempt == 0) else -gm
            d[binding] = 0.0
            if g @ d >= 0.0:
                d = -gm
            # cap the trial step so a huge raw gradient cannot catapult the
            # iterate into a flat far region with useless curvature pairs
            cap = 10.0 * max(1.0, np.max(np.abs(x), initial=0.0))
            dmax = np.max(np.abs(d), initial=0.0)
            if dmax > cap:
                d = d * (cap / dmax)
            t = 1.0
            first_trial = True
            while t > 1e-20:
                xt = np.maximum(x + t * d, 0.0)
                xt[~free] = 0.0
                step = xt - x
                if not np.any(step):
                    break
                ft, gt = fun_grad(xt)
                # the 1e-13|f| term keeps rounding noise from rejecting
                # honest decreases once |ft - f| nears machine precision
                if ft <= f + min(cfg.armijo_c * (g @ step), 0.0) + 1e-13 * abs(f):
                    accepted = True
                    break
                first_trial = False
                t *= cfg.backtrack
            if accepted and first_trial:
                # the unit step succeeded outright, which can mean the
                # direction magnitude has collapsed; expand while the 1-D
                # profile keeps improving and Armijo still holds
                for _ in range(60):
                    t2 = 2.0 * t
                    x2 = np.maximum(x + t2 * d, 0.0)
                    x2[~free] = 0.0
                    step2 = x2 - x
                    if not np.any(x2 != xt):
                        break
                    f2, g2 = fun_grad(x2)
                    if f2 < ft and f2 <= f + cfg.armijo_c * (g @ step2):
                        t, xt, ft, gt = t2, x2, f2, g2
                    else:
                        break
            if accepted:
                break
            S, Y = [], []  # stale curvature: retry with steepest descent
        if not accepted:
            break  # no decrease representable; treat as terminal

        s = xt - x
        yv = gt - g
        if s @ yv > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            S.append(s)
            Y.append(yv)
            if len(S) > cfg.memory:
                S.pop(0)
                Y.pop(0)
        else:
            # negative curvature along the step: the stored quadratic model
            # is invalid here, so restart from steepest descent
            S, Y = [], []
        x, f, g = xt, ft, gt

    pg = x - np.maximum(x - g, 0.0)
    pg[~free] = 0.0
    gnorm = float(np.max(np.abs(pg), initial=0.0))
    if gnorm <= cfg.grad_tol * (1.0 + abs(f)):
        converged = True
    return PqnResult(lam=x, converged=converged, iterations=it,
                     objective=float(f), grad_norm=gnorm)
