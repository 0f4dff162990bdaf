"""Averaged coefficients of the slow dynamics and their diffusion proxy.

With pi_y the invariant density of the frozen fast flow and u_y the centered
cell solution for the functional's integrand, the limiting objects are

    Qbar(y) = int (grad u) a (grad u)^T pi_y(dz)      effective covariance
    Abar(y) = int G G^T pi_y(dz)                      slow noise covariance
    Fbar(y) = int F pi_y(dz)                          slow drift

tabulated here on a rectangular y-grid and interpolated multilinearly.  The
averaged surrogate system replaces the coupled pair by

    dYbar = Fbar(Ybar) dt + s Abar(Ybar)^{1/2} dW,
    dXbar = s Qbar(Ybar)^{1/2} dBtilde,

with s the slow-noise amplitude (epsilon^(1/2 - kappa) by default, or any
override, e.g. 1.0 for the unit-scale Gaussian limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridDomainError, SimulationBlowupError, SingularOperatorError
from .grids import RectGrid, multilinear
from .model import diffusion_matrix
from .poisson import DEFAULT_PAD, solve_family
from .simulate import (
    DefectIntegral,
    PathSample,
    _macro_mesh,
    micro_substeps,
    path_generator,
    simulate_block,
)
from .stationary import invariant_density

__all__ = [
    "AveragedModel",
    "averaged_coefficients",
    "simulate_averaged",
    "DefectCell",
    "homogenization_defect",
    "write_averaged_csv",
]

_EIG_FLOOR = 1e-10


def default_z_grid(d):
    """The standing density-grid policy: [-6, 6] per axis, 601 nodes
    (101 per axis in two dimensions to keep the stationary solve tractable)."""
    n = 601 if d == 1 else 101
    return RectGrid.from_bounds([(-6.0, 6.0, n)] * d)


def _q_values(grad_u, a):
    """(grad u) a (grad u)^T with grad_u (..., p, d) and a (..., d, d)."""
    return np.einsum("...pi,...ij,...qj->...pq", grad_u, a, grad_u)


def _psd_sqrt(mats):
    w, V = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", V, np.sqrt(w), V)


@dataclass
class AveragedModel:
    """Averaged coefficient tables over a slow-variable grid.

    Qbar: (*y_shape, p, p); Abar: (*y_shape, l, l); Fbar: (*y_shape, l).
    min_eig_* are the smallest eigenvalues across the whole table — the
    nonsingularity margin quoted by diagnostics and required (> 1e-10) by
    anything taking an inverse or a square root.
    """

    y_grid: RectGrid
    Qbar: np.ndarray
    Abar: np.ndarray
    Fbar: np.ndarray
    source: str = ""
    min_eig_Q: float = field(init=False)
    min_eig_A: float = field(init=False)

    def __post_init__(self):
        self.min_eig_Q = float(np.min(np.linalg.eigvalsh(self.Qbar)))
        self.min_eig_A = float(np.min(np.linalg.eigvalsh(self.Abar)))
        self._sqrt_Q = _psd_sqrt(self.Qbar)
        self._sqrt_A = _psd_sqrt(self.Abar)

    @property
    def nonsingularity_margin(self):
        return min(self.min_eig_Q, self.min_eig_A)

    @property
    def p(self):
        return self.Qbar.shape[-1]

    @property
    def l(self):
        return self.Fbar.shape[-1]

    def Q_at(self, y):
        return multilinear(self.y_grid, self.Qbar, np.asarray(y, float))

    def A_at(self, y):
        return multilinear(self.y_grid, self.Abar, np.asarray(y, float))

    def F_at(self, y):
        return multilinear(self.y_grid, self.Fbar, np.asarray(y, float))

    def sqrt_Q_at(self, y):
        return multilinear(self.y_grid, self._sqrt_Q, np.asarray(y, float))

    def sqrt_A_at(self, y):
        return multilinear(self.y_grid, self._sqrt_A, np.asarray(y, float))

    def _require_margin(self, which):
        margin = self.min_eig_Q if which == "Q" else self.min_eig_A
        if margin <= _EIG_FLOOR:
            raise SingularOperatorError(
                f"{which}bar table is numerically singular "
                f"(smallest eigenvalue {margin:.3e} <= {_EIG_FLOOR:g})"
            )

    def Q_inv_at(self, y):
        self._require_margin("Q")
        return np.linalg.inv(self.Q_at(y))

    def A_inv_at(self, y):
        self._require_margin("A")
        return np.linalg.inv(self.A_at(y))


def averaged_coefficients(spec, y_grid, z_grid=None, *, method="auto", pad=None, family=None):
    """Tabulate Qbar, Abar, Fbar on a y-grid by quadrature against pi_y.

    A pre-solved cell family may be passed to avoid recomputing it; its grids
    must match.  z_grid defaults to the standing density-grid policy."""
    if z_grid is None:
        z_grid = family.z_grid if family is not None else default_z_grid(spec.d)
    if family is None:
        family = solve_family(
            spec, y_grid, z_grid, method=method, pad=DEFAULT_PAD if pad is None else pad
        )
    else:
        same = len(family.y_grid.axes) == y_grid.ndim and len(family.z_grid.axes) == z_grid.ndim
        same = same and all(
            np.array_equal(a, b) for a, b in zip(family.y_grid.axes, y_grid.axes)
        )
        same = same and all(
            np.array_equal(a, b) for a, b in zip(family.z_grid.axes, z_grid.axes)
        )
        if not same:
            raise ConfigError("cell-solution family was tabulated on different grids")

    y_nodes = y_grid.points().reshape(-1, y_grid.ndim)
    z_pts = z_grid.points().reshape(-1, z_grid.ndim)
    Qb = np.empty((y_nodes.shape[0], spec.p, spec.p))
    Ab = np.empty((y_nodes.shape[0], spec.l, spec.l))
    Fb = np.empty((y_nodes.shape[0], spec.l))
    grad_table = family.grad_u.reshape(y_nodes.shape[0], *z_grid.shape, spec.p, spec.d)
    for i, y in enumerate(y_nodes):
        pi = (
            family.densities[i]
            if family.densities is not None
            else invariant_density(spec, y, z_grid)
        )
        y_rep = np.broadcast_to(y, (z_pts.shape[0], spec.l))
        a = diffusion_matrix(spec, z_pts, y_rep).reshape(z_grid.shape + (spec.d, spec.d))
        Q = _q_values(grad_table[i], a)
        G = np.asarray(spec.G(z_pts, y_rep), float).reshape(z_grid.shape + (spec.l, spec.l))
        GG = np.einsum("...ij,...kj->...ik", G, G)
        F = np.asarray(spec.F(z_pts, y_rep), float).reshape(z_grid.shape + (spec.l,))
        w = pi.values[..., None, None]
        Qb[i] = z_grid.integrate(Q * w)
        Ab[i] = z_grid.integrate(GG * w)
        Fb[i] = z_grid.integrate(F * pi.values[..., None])
    return AveragedModel(
        y_grid=y_grid,
        Qbar=Qb.reshape(y_grid.shape + (spec.p, spec.p)),
        Abar=Ab.reshape(y_grid.shape + (spec.l, spec.l)),
        Fbar=Fb.reshape(y_grid.shape + (spec.l,)),
        source=spec.name,
    )


def simulate_averaged(avg, epsilon, kappa, T, h, seed, *, y0, path_id=0, noise_scale=None):
    """Euler path of the averaged surrogate (no fast component).

    Draw order per macro step: l slow increments then p proxy increments, from
    the same keyed stream family as the full simulator (distinct seeds keep
    the two uncorrelated).  Leaving the tabulated y-grid is a hard error
    carrying the exit time — no extrapolation.
    """
    n, times = _macro_mesh(T, h)
    s = epsilon ** (0.5 - kappa) if noise_scale is None else float(noise_scale)
    gen = path_generator(seed, path_id)
    sq_h = math.sqrt(h)
    l, p = avg.l, avg.p
    Y = np.empty((n + 1, l))
    X = np.empty((n + 1, p))
    Y[0] = np.atleast_1d(np.asarray(y0, float))
    X[0] = 0.0
    if not np.all(avg.y_grid.contains(Y[0])):
        raise GridDomainError("y0 lies outside the tabulated coefficient grid")
    dW = np.empty((n, l))
    for k in range(n):
        draws = gen.standard_normal(l + p)
        dW[k] = draws[:l] * sq_h
        dV = draws[l:] * sq_h
        y = Y[k]
        Y[k + 1] = y + h * avg.F_at(y) + s * avg.sqrt_A_at(y) @ dW[k]
        X[k + 1] = X[k] + s * avg.sqrt_Q_at(y) @ dV
        if not np.all(np.isfinite(Y[k + 1])):
            raise SimulationBlowupError(
                f"averaged slow state blew up at step {k + 1}",
                time_index=k + 1,
                time=(k + 1) * h,
            )
        if not np.all(avg.y_grid.contains(Y[k + 1])):
            raise GridDomainError(
                f"averaged slow state left the coefficient grid at "
                f"t = {(k + 1) * h:.6g}; no extrapolation is performed"
            )
    return PathSample(
        times=times,
        xi=None,
        Y=Y,
        X=X,
        dB=None,
        dW=dW,
        epsilon=float(epsilon),
        kappa=float(kappa),
        seed=int(seed),
        path_id=int(path_id),
        h=h,
        n_sub=1,
        model_name=f"averaged:{avg.source}",
    )


@dataclass
class DefectCell:
    """Per-epsilon summary of the pathwise homogenization defect."""

    epsilon: float
    n_paths: int
    median: float
    q90: float


def homogenization_defect(
    spec,
    avg,
    which,
    epsilon_list,
    T,
    h,
    N,
    seed,
    *,
    family=None,
    c_fast=0.1,
):
    """Per-epsilon statistics of sup_t || int_0^t V(xi_s, Y_s) ds || where V is
    a coefficient minus its averaged version: which selects F - Fbar,
    G G^T - Abar, or Q - Qbar (the last needs a cell-solution family and
    builds one on default grids if not supplied)."""
    if which not in ("F", "A", "Q"):
        raise ConfigError("which must be one of 'F', 'A', 'Q'")
    if which == "Q" and family is None:
        family = solve_family(spec, avg.y_grid, default_z_grid(spec.d))

    def V(z, y):
        if which == "F":
            return np.asarray(spec.F(z, y), float) - avg.F_at(y)
        if which == "A":
            G = np.asarray(spec.G(z, y), float)
            G = np.broadcast_to(G, z.shape[:-1] + (spec.l, spec.l))
            return np.einsum("...ij,...kj->...ik", G, G) - avg.A_at(y)
        g = family.grad_u_at(z, y, clamp_z=True)
        a = diffusion_matrix(spec, z, y)
        return _q_values(g, a) - avg.Q_at(y)

    cells = []
    for eps in epsilon_list:
        spec_e = spec.with_epsilon(float(eps))
        probe = DefectIntegral(V, h / micro_substeps(h, spec_e.epsilon, c_fast))
        simulate_block(spec_e, T, h, seed, list(range(N)), c_fast=c_fast, probes=(probe,))
        cells.append(
            DefectCell(
                epsilon=float(eps),
                n_paths=N,
                median=float(np.median(probe.sup)),
                q90=float(np.quantile(probe.sup, 0.9)),
            )
        )
    return cells


def write_averaged_csv(model, path):
    """Tabulated averaged coefficients, one row per y node (C order):
    y_1..y_l, Qbar_11..Qbar_pp, Abar_11..Abar_ll, Fbar_1..Fbar_l."""
    l, p = model.l, model.p
    cols = [f"y_{i + 1}" for i in range(model.y_grid.ndim)]
    cols += [f"Qbar_{i + 1}{j + 1}" for i in range(p) for j in range(p)]
    cols += [f"Abar_{i + 1}{j + 1}" for i in range(l) for j in range(l)]
    cols += [f"Fbar_{i + 1}" for i in range(l)]
    nodes = model.y_grid.points().reshape(-1, model.y_grid.ndim)
    Q = model.Qbar.reshape(-1, p * p)
    A = model.Abar.reshape(-1, l * l)
    F = model.Fbar.reshape(-1, l)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(nodes.shape[0]):
            row = np.concatenate([nodes[i], Q[i], A[i], F[i]])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
