"""Averaged coefficients of the slow dynamics and their diffusion proxy.

With pi_y the invariant density of the frozen fast flow and u_y the centered
cell solution for the functional's integrand, the limiting objects are

    Qbar(y) = int (grad u) a (grad u)^T pi_y(dz)      effective covariance
    Abar(y) = int G G^T pi_y(dz)                      slow noise covariance
    Fbar(y) = int F pi_y(dz)                          slow drift

tabulated here on a rectangular y-grid and interpolated multilinearly.  The
cell family solved over the caller's y- and z-grids gives pi_y, grad u and a
at every node, so only F and G are sampled for the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularOperatorError
from .grids import RectGrid, multilinear
from .mcengine import _sweep
from .model import diffusion_matrix
from .poisson import solve_family
from .simulate import DefectIntegral

__all__ = [
    "AveragedModel",
    "averaged_coefficients",
    "DefectCell",
    "homogenization_defect",
]

_EIG_FLOOR = 1e-10


def _q_values(grad_u, a):
    """(grad u) a (grad u)^T with grad_u (..., p, d) and a (..., d, d)."""
    return np.einsum("...pi,...ij,...qj->...pq", grad_u, a, grad_u)


@dataclass
class AveragedModel:
    """Averaged coefficient tables over a slow-variable grid.

    Qbar: (*y_shape, p, p); Abar: (*y_shape, l, l); Fbar: (*y_shape, l).
    min_eig_* are the smallest eigenvalues across the whole table — the
    nonsingularity margin quoted by diagnostics and required (> 1e-10) by
    anything taking an inverse.  counts is the cell family's
    ``PoissonFamily.counts`` when ``averaged_coefficients`` built the table.
    """

    y_grid: RectGrid
    Qbar: np.ndarray
    Abar: np.ndarray
    Fbar: np.ndarray
    counts: dict = field(default_factory=dict)
    min_eig_Q: float = field(init=False)
    min_eig_A: float = field(init=False)

    def __post_init__(self):
        self.min_eig_Q = float(np.min(np.linalg.eigvalsh(self.Qbar)))
        self.min_eig_A = float(np.min(np.linalg.eigvalsh(self.Abar)))

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


def averaged_coefficients(spec, y_grid, z_grid):
    """Tabulate Qbar, Abar, Fbar on a y-grid by quadrature against pi_y.

    The cell family solved over y_grid x z_grid hands each node its density
    and the a = sigma sigma^T it sampled there; only F and G are sampled
    here."""
    family = solve_family(spec, y_grid, z_grid)
    y_nodes = y_grid.points().reshape(-1, y_grid.ndim)
    z_pts = z_grid.points().reshape(-1, z_grid.ndim)
    Qb = np.empty((y_nodes.shape[0], spec.p, spec.p))
    Ab = np.empty((y_nodes.shape[0], spec.l, spec.l))
    Fb = np.empty((y_nodes.shape[0], spec.l))
    grad_table = family.grad_u.reshape(y_nodes.shape[0], *z_grid.shape, spec.p, spec.d)
    for i, y in enumerate(y_nodes):
        pi = family.densities[i]
        y_rep = np.broadcast_to(y, (z_pts.shape[0], spec.l))
        Q = _q_values(grad_table[i], family.diffusions[i])
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
        counts=family.counts,
    )


@dataclass
class DefectCell:
    """Per-epsilon summary of the pathwise homogenization defect: the median
    and 90% quantile over paths of its running sup.  ``error`` carries the
    message of a simulation failure that aborted this cell only, whose
    statistics are then NaN."""

    epsilon: float
    n_paths: int
    median: float
    q90: float
    error: str = ""


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
):
    """Per-epsilon statistics of sup_t || int_0^t V(xi_s, Y_s) ds || where V is
    a coefficient minus its averaged version: which selects F - Fbar,
    G G^T - Abar, or Q - Qbar (the last needs a cell-solution family and
    raises ConfigError without one).  The paths run through the sweep driver
    of ``mcengine``, in whole-block batches."""
    if which not in ("F", "A", "Q"):
        raise ConfigError("which must be one of 'F', 'A', 'Q'")
    if which == "Q" and family is None:
        raise ConfigError("which='Q' needs the cell-solution family (family=)")

    def gg(z, y):
        G = np.asarray(spec.G(z, y), float)
        G = np.broadcast_to(G, z.shape[:-1] + (spec.l, spec.l))
        return np.einsum("...ij,...kj->...ik", G, G)

    def q(z, y):
        return _q_values(family.at(z, y).grad_u, diffusion_matrix(spec, z, y))

    fast, slow = {"F": (spec.F, avg.F_at), "A": (gg, avg.A_at), "Q": (q, avg.Q_at)}[which]
    sweep = _sweep(
        spec, epsilon_list, T, h, N, seed,
        lambda spec_e: DefectIntegral(fast, slow, h), lambda spec_e, probe, run: probe.sup,
    )
    return [
        DefectCell(spec_e.epsilon, N, np.nan, np.nan, error=sups)
        if isinstance(sups, str)
        else DefectCell(spec_e.epsilon, N, float(np.median(sups)), float(np.quantile(sups, 0.9)))
        for spec_e, sups in sweep
    ]
