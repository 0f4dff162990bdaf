"""Quadratic path action of the averaged system and its minimization.

For a discrete path (X, Y) on a uniform mesh the action is

    J = (1/2) sum_k h [ Xdot_k' Qbar^{-1}(Y_k) Xdot_k
                        + (Ydot_k - Fbar(Y_k))' Abar^{-1}(Y_k) (Ydot_k - Fbar(Y_k)) ]

with forward-difference velocities and left-endpoint coefficients — the same
Ito convention as the simulator, so Monte Carlo estimates and rate
predictions discretize identically.  Paths must start at X_0 = 0, Y_0 = y0;
violating the start condition is the one case with J = +infinity.

``minimize_endpoint`` minimizes J subject to an affine constraint on the
terminal pair (X_T, Y_T), enforced exactly through a nullspace
parametrization, by projected gradient descent with Barzilai-Borwein steps
and an Armijo backtracking safeguard.  The infimum over a terminal
half-space {c . X_T > r} sits on the boundary for this convex action.
Predictions are finite-horizon: the action is evaluated on [0, T] only,
relying on zero-cost continuation beyond T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, GridDomainError

__all__ = [
    "DiscretePath",
    "ActionValue",
    "action",
    "minimize_endpoint",
]

_IC_TOL = 1e-12
_GRAD_TOL = 1e-8  # gradient 2-norm at which the minimizer stops


@dataclass(frozen=True)
class DiscretePath:
    """Mesh path of the averaged pair; X (N+1, p), Y (N+1, l)."""

    times: np.ndarray
    X: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class ActionValue:
    J: float
    per_interval: np.ndarray


def _interval_costs(avg, times, X, Y):
    h = np.diff(times)
    d = np.diff(X, axis=0) / h[:, None]
    e = np.diff(Y, axis=0) / h[:, None] - avg.F_at(Y[:-1])
    Qi = avg.Q_inv_at(Y[:-1])
    Ai = avg.A_inv_at(Y[:-1])
    qd = np.einsum("kp,kpq,kq->k", d, Qi, d)
    qe = np.einsum("kp,kpq,kq->k", e, Ai, e)
    return 0.5 * h * (qd + qe)


def action(path, avg, *, y0=None):
    """Evaluate the discrete action; +infinity only when the start condition
    X_0 = 0 (and Y_0 = y0, when given) is violated."""
    X = np.asarray(path.X, float)
    Y = np.asarray(path.Y, float)
    times = np.asarray(path.times, float)
    n = times.size - 1
    bad_start = np.max(np.abs(X[0])) > _IC_TOL
    if y0 is not None:
        bad_start = bad_start or np.max(np.abs(Y[0] - np.atleast_1d(y0))) > _IC_TOL
    if bad_start:
        return ActionValue(J=math.inf, per_interval=np.full(n, math.inf))
    per = _interval_costs(avg, times, X, Y)
    return ActionValue(J=float(per.sum()), per_interval=per)


# ---------------------------------------------------------------------------
# endpoint-constrained minimization
# ---------------------------------------------------------------------------

def _terminal_constraint(target, p, l):
    """Normalize a terminal constraint into (particular point, nullspace basis).

    target: a length-p vector fixing X_T, or a pair (C, rhs) with C of shape
    (k, p + l) acting on the stacked (X_T, Y_T)."""
    if isinstance(target, tuple) and len(target) == 2 and np.ndim(target[0]) == 2:
        C = np.asarray(target[0], float)
        rhs = np.asarray(target[1], float).ravel()
        if C.shape != (rhs.size, p + l):
            raise ConfigError(
                f"constraint matrix shaped {C.shape}, expected ({rhs.size}, {p + l})"
            )
    else:
        x_tar = np.atleast_1d(np.asarray(target, float))
        if x_tar.shape != (p,):
            raise ConfigError(f"terminal X target must have {p} components")
        C = np.hstack([np.eye(p), np.zeros((p, l))])
        rhs = x_tar
    k = C.shape[0]
    if np.linalg.matrix_rank(C) < k:
        raise ConfigError("terminal constraint matrix is rank-deficient")
    t_particular, *_ = np.linalg.lstsq(C, rhs, rcond=None)
    _, _, Vt = np.linalg.svd(C)
    null_basis = Vt[k:].T          # (p+l, p+l-k), orthonormal columns
    return t_particular, null_basis


def _fd_coefficient_derivatives(avg, Ynodes, delta=1e-6):
    """d/dy of Qbar^{-1}, Abar^{-1}, Fbar at the given nodes, by symmetric
    differences of the interpolants (clamped to the grid near its edge)."""
    lo = np.array([ax[0] for ax in avg.y_grid.axes])
    hi = np.array([ax[-1] for ax in avg.y_grid.axes])
    n, l = Ynodes.shape
    p = avg.p
    dQi = np.empty((n, l, p, p))
    dAi = np.empty((n, l, l, l))
    DF = np.empty((n, l, l))
    for alpha in range(l):
        step = np.zeros(l)
        step[alpha] = delta
        Yp = np.minimum(Ynodes + step, hi)
        Ym = np.maximum(Ynodes - step, lo)
        denom = (Yp[:, alpha] - Ym[:, alpha])[:, None, None]
        dQi[:, alpha] = (
            np.linalg.inv(avg.Q_at(Yp)) - np.linalg.inv(avg.Q_at(Ym))
        ) / denom
        dAi[:, alpha] = (
            np.linalg.inv(avg.A_at(Yp)) - np.linalg.inv(avg.A_at(Ym))
        ) / denom
        DF[:, :, alpha] = (avg.F_at(Yp) - avg.F_at(Ym)) / denom[:, :, 0]
    return dQi, dAi, DF


def _gradient(avg, h, X, Y):
    """Analytic gradient of J with respect to nodes 1..n of X and Y."""
    n = X.shape[0] - 1
    d = np.diff(X, axis=0) / h
    Yl = Y[:-1]
    e = np.diff(Y, axis=0) / h - avg.F_at(Yl)
    Qi = avg.Q_inv_at(Yl)
    Ai = avg.A_inv_at(Yl)
    Qid = np.einsum("kpq,kq->kp", Qi, d)
    Aie = np.einsum("kpq,kq->kp", Ai, e)
    dQi, dAi, DF = _fd_coefficient_derivatives(avg, Yl)

    gX = Qid.copy()                       # slot j holds dJ/dX_{j+1}
    gX[: n - 1] -= Qid[1:]
    gY = Aie.copy()
    gY[: n - 1] -= Aie[1:]
    # left-endpoint coefficient dependence of interval k lands on Y_k (k >= 1)
    coef = (
        -h * np.einsum("kia,ki->ka", DF, Aie)
        + 0.5 * h * np.einsum("kapq,kp,kq->ka", dQi, d, d)
        + 0.5 * h * np.einsum("kapq,kp,kq->ka", dAi, e, e)
    )
    gY[: n - 1] += coef[1:]
    return gX, gY


def minimize_endpoint(
    avg,
    T,
    target,
    mesh_size,
    *,
    y0,
    max_iter=100_000,
):
    """Minimize the action over paths with (X_T, Y_T) on an affine target set.

    Returns (DiscretePath, ActionValue).  Declares convergence when the
    gradient 2-norm falls below ``_GRAD_TOL``; raises after max_iter
    iterations with the last value and gradient norm attached.
    """
    if mesh_size < 8:
        raise ConfigError("mesh_size must be at least 8")
    avg._require_margin("Q")
    avg._require_margin("A")
    p, l = avg.p, avg.l
    n = int(mesh_size)
    h = T / n
    times = h * np.arange(n + 1)
    y0 = np.atleast_1d(np.asarray(y0, float))
    t_part, null_basis = _terminal_constraint(target, p, l)

    # initial guess: straight X to the terminal target, Y on the averaged
    # drift orbit; terminal coordinates chosen nearest that guess
    Y_orbit = np.empty((n + 1, l))
    Y_orbit[0] = y0
    for k in range(n):
        Y_orbit[k + 1] = Y_orbit[k] + h * avg.F_at(Y_orbit[k])
    t_want = np.concatenate([t_part[:p], Y_orbit[n]])
    w = null_basis.T @ (t_want - t_part)
    X = np.linspace(np.zeros(p), (t_part + null_basis @ w)[:p], n + 1)
    Y = Y_orbit.copy()
    Y[n] = (t_part + null_basis @ w)[p:]

    def pack(X, Y, w):
        return np.concatenate([X[1:n].ravel(), Y[1:n].ravel(), w])

    def unpack(theta):
        Xn = np.empty((n + 1, p))
        Yn = np.empty((n + 1, l))
        Xn[0] = 0.0
        Yn[0] = y0
        nx = (n - 1) * p
        ny = (n - 1) * l
        Xn[1:n] = theta[:nx].reshape(n - 1, p)
        Yn[1:n] = theta[nx : nx + ny].reshape(n - 1, l)
        t = t_part + null_basis @ theta[nx + ny :]
        Xn[n] = t[:p]
        Yn[n] = t[p:]
        return Xn, Yn

    def J_of(theta):
        Xn, Yn = unpack(theta)
        try:
            return float(_interval_costs(avg, times, Xn, Yn).sum())
        except GridDomainError:
            return math.inf

    def grad_of(theta):
        Xn, Yn = unpack(theta)
        gX, gY = _gradient(avg, h, Xn, Yn)
        gw = null_basis.T @ np.concatenate([gX[n - 1], gY[n - 1]])
        return np.concatenate([gX[: n - 1].ravel(), gY[: n - 1].ravel(), gw])

    theta = pack(X, Y, w)
    J = J_of(theta)
    if not math.isfinite(J):
        raise ConfigError("initial guess leaves the tabulated y-grid")
    g = grad_of(theta)
    step = h / 4.0
    g_norm = float(np.linalg.norm(g))
    it = 0
    while g_norm > _GRAD_TOL:
        if it >= max_iter:
            raise ConvergenceError(
                f"endpoint minimization hit the {max_iter}-iteration cap",
                last_value=J,
                last_grad_norm=g_norm,
            )
        alpha = step
        for _ in range(60):
            theta_new = theta - alpha * g
            J_new = J_of(theta_new)
            # strict decrease required: once the sufficient-decrease margin
            # underflows, a flat step would otherwise pass forever
            if J_new < J and J_new <= J - 1e-4 * alpha * g_norm**2:
                break
            alpha *= 0.5
        else:
            # no productive step at any tried scale: gradient is noise-level
            break
        g_new = grad_of(theta_new)
        s = theta_new - theta
        delta_g = g_new - g
        denom = float(s @ delta_g)
        step = float(s @ s) / denom if denom > 1e-300 else h / 4.0
        step = min(max(step, 1e-12), 1e12)
        theta, J, g = theta_new, J_new, g_new
        g_norm = float(np.linalg.norm(g))
        it += 1

    Xn, Yn = unpack(theta)
    path = DiscretePath(times=times, X=Xn, Y=Yn)
    return path, action(path, avg, y0=y0)
