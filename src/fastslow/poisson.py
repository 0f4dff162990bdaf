"""Cell problem of the fast flow: solve L_y u = -rhs with centered solution.

L_y is the generator of the frozen diffusion at slow value y,

    L_y u = (1/2) sum_ij a_ij(z, y) d2u/dz_i dz_j + sum_i b_i(z, y) du/dz_i ,

a = sigma sigma^T.  Solvability on the whole space needs the right-hand side
orthogonal to the invariant density; the solver checks that and returns the
unique solution with int u pi = 0.

Two routes:

* ``closed_form_1d`` — for d = 1 the flux integral gives
      u'(z) = -(2 / (a(z) w(z))) int_{-inf}^{z} rhs(s) w(s) ds,
  with w the unnormalized stationary weight; u follows by one more
  integration and centering.
* ``grid`` — second-order finite differences of L_y (d <= 2), mirror
  (zero-derivative) closure at the boundary, one grid equation replaced by
  the centering constraint, sparse direct solve.

Both routes extend the requested grid internally before solving: truncating
the domain at the user grid imposes a zero-flux condition *there*, whose
boundary layer (size ~ exp(-L(L - |z|))/L for Gaussian-type weights) would
pollute the outermost nodes of the answer.  Solving on a padded grid pushes
the layer outside the returned window.

A family over a y-grid (``solve_family``) reuses work across slow nodes.  In
the paper the fast diffusion does not depend on the slow state; only H, F
and G do.  So the frozen operator, its invariant density and its anchored LU
factor are the same at every node, and only the right-hand side changes.
Assembly reads b and a = sigma sigma^T only through their values at the grid
nodes, so the family compares those sampled arrays with the previous node's,
byte for byte.  When they match, the previous density and factor are reused;
a model whose fast coefficients do depend on y still factors once per node.
Only the most recent factor is kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import FredholmError, GridDomainError
from .grids import GridField, RectGrid, corrected_cumtrapz, multilinear
from .model import diffusion_matrix
from .stationary import (
    frozen_coefficients,
    invariant_density,
    sparse_lu,
    stationary_log_weight_1d,
)

__all__ = [
    "PoissonSolution",
    "solve_poisson",
    "PoissonFamily",
    "solve_family",
]

_FREDHOLM_TOL = 1e-6
_WEIGHT_FLOOR = 1e-280
DEFAULT_PAD = 2.4
_REFINE_1D = 4


@dataclass
class PoissonSolution:
    """Centered solution of the cell problem on the user grid.

    u.values has shape (*grid.shape, p); grad_u.values (*grid.shape, p, d).
    residual is the max interior-node value of ||L_y u + rhs|| under the same
    finite-difference stencil the grid route uses, so 'discrete
    self-consistency' is checkable without re-solving.
    """

    u: GridField
    grad_u: GridField
    residual: float
    centering_defect: np.ndarray
    y: np.ndarray

    @property
    def grid(self):
        return self.u.grid


def _pad_axis(ax, pad):
    h = ax[1] - ax[0]
    n_add = int(np.ceil(pad / h - 1e-12)) if pad > 0 else 0
    left = ax[0] - h * np.arange(n_add, 0, -1)
    right = ax[-1] + h * np.arange(1, n_add + 1)
    return np.concatenate([left, ax, right]), slice(n_add, n_add + ax.size)


def _refine_axis(ax, r):
    """Insert r - 1 equidistant nodes per cell, keeping the originals exact."""
    h = ax[1] - ax[0]
    fine = ax[0] + (h / r) * np.arange((ax.size - 1) * r + 1)
    fine[::r] = ax
    return fine


def _sample_rhs(rhs, grid, y, p, l):
    """Sample a callable rhs on a grid; pass arrays through (zero-extended
    sampling is not possible for arrays, so arrays forbid padding)."""
    if callable(rhs):
        pts = grid.points().reshape(-1, grid.ndim)
        y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (pts.shape[0], l))
        vals = np.asarray(rhs(pts, y_arr), float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return vals.reshape(grid.shape + (p,))
    vals = np.asarray(rhs, float)
    if vals.shape == grid.shape:
        vals = vals[..., None]
    if vals.shape != grid.shape + (p,):
        raise GridDomainError(
            f"rhs array shaped {vals.shape}, expected {grid.shape + (p,)}"
        )
    return vals


def _fredholm_check(rhs_vals, pi):
    defect = np.atleast_1d(pi.grid.integrate(rhs_vals * pi.values[..., None]))
    worst = float(np.max(np.abs(defect)))
    if worst > _FREDHOLM_TOL:
        raise FredholmError(
            f"rhs not orthogonal to the invariant density (defect {worst:.3e} "
            f"> {_FREDHOLM_TOL:g}); the cell problem has no solution"
        )
    return defect


def _closed_form_1d(spec, y, rhs, pi, pad):
    z_user = pi.grid.axes[0]
    if callable(rhs):
        # padded and refined working mesh (callables can be sampled anywhere);
        # user nodes stay exact mesh points, so restriction is error-free
        z_base, win_base = _pad_axis(z_user, pad)
        z_pad = _refine_axis(z_base, _REFINE_1D)
        start = win_base.start * _REFINE_1D
        win = slice(start, start + (z_user.size - 1) * _REFINE_1D + 1, _REFINE_1D)
    else:
        z_pad, win = z_user, slice(0, z_user.size)
    grid_pad = RectGrid((z_pad,))
    rhs_pad = _sample_rhs(rhs, grid_pad, y, spec.p, spec.l)
    rhs_user = rhs_pad[win]
    _fredholm_check(rhs_user, pi)

    ell = stationary_log_weight_1d(spec, y, z_pad)
    w = np.exp(ell - ell.max())
    pts = z_pad[:, None]
    y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (z_pad.size, spec.l))
    a = diffusion_matrix(spec, pts, y_arr)[:, 0, 0]

    # cumulative flux integral, re-centered so the total is exactly zero:
    # s_c = int rhs w - (S / W) int w  with S, W the full integrals.  Without
    # the correction the Fredholm defect is amplified by 1/w at the far edge.
    S_cum = corrected_cumtrapz(rhs_pad * w[:, None], z_pad)
    W_cum = corrected_cumtrapz(w, z_pad)
    s_c = S_cum - W_cum[:, None] * (S_cum[-1] / W_cum[-1])

    rep = w > _WEIGHT_FLOOR
    du = np.zeros_like(rhs_pad)
    du[rep] = -2.0 * s_c[rep] / (a[rep] * w[rep])[:, None]
    u_pad = corrected_cumtrapz(du, z_pad)
    grad_pad = np.gradient(u_pad, z_pad, axis=0, edge_order=2)

    u_win = u_pad[win].copy()
    grad_win = grad_pad[win]
    return u_win, grad_win[..., None], rhs_user


# ---------------------------------------------------------------------------
# finite-difference route (d <= 2)
# ---------------------------------------------------------------------------

def _mirror(idx, n):
    idx = np.abs(idx)
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx)


def _assemble_generator(a, bvec, grid):
    """Sparse second-order discretization of L_y with mirrored boundary, given
    a and b sampled at the grid nodes."""
    shape = grid.shape
    ndim = grid.ndim
    spacing = grid.spacing
    index_grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    strides = np.array([int(np.prod(shape[k + 1 :])) for k in range(ndim)])

    def node_of(shifted):
        out = 0
        for k in range(ndim):
            out = out + _mirror(shifted[k], shape[k]) * strides[k]
        return out

    rows = np.arange(int(np.prod(shape))).reshape(shape)
    r, c, v = [], [], []

    def add(shift, coeff):
        shifted = [index_grids[k] + shift[k] for k in range(ndim)]
        r.append(rows.ravel())
        c.append(node_of(shifted).ravel())
        v.append(np.broadcast_to(coeff, shape).ravel())

    for k in range(ndim):
        hk = spacing[k]
        akk = a[..., k, k]
        bk = bvec[..., k]
        e = [0] * ndim
        e[k] = 1
        add(tuple(e), 0.5 * akk / hk**2 + bk / (2 * hk))
        e[k] = -1
        add(tuple(e), 0.5 * akk / hk**2 - bk / (2 * hk))
        add((0,) * ndim, -akk / hk**2)

    for k in range(ndim):
        for kk in range(k + 1, ndim):
            akk2 = a[..., k, kk]
            if not np.any(akk2):
                continue
            denom = 4.0 * spacing[k] * spacing[kk]
            for sk, skk in product((1, -1), repeat=2):
                e = [0] * ndim
                e[k], e[kk] = sk, skk
                add(tuple(e), (sk * skk) * akk2 / denom)

    A = sp.coo_matrix(
        (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
        shape=(rows.size, rows.size),
    ).tocsr()
    return A


def _replace_row(A, i, row):
    """CSR copy of A whose row i holds the nonzero entries of a dense row."""
    cols = np.flatnonzero(row).astype(A.indices.dtype)
    start, stop = A.indptr[i], A.indptr[i + 1]
    indptr = A.indptr.copy()
    indptr[i + 1 :] += cols.size - (stop - start)
    indices = np.concatenate([A.indices[:start], cols, A.indices[stop:]])
    data = np.concatenate([A.data[:start], row[cols], A.data[stop:]])
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)


def _same_bytes(arrays, others):
    return others is not None and all(
        u.shape == v.shape and u.dtype == v.dtype and u.tobytes() == v.tobytes()
        for u, v in zip(arrays, others)
    )


class _LastFactor:
    """The most recent anchored generator factor and the exact inputs it was
    built from: b and a on the solve grid, and the centering weights."""

    def __init__(self):
        self.inputs = None
        self.anchor = None
        self.lu = None

    def anchored_lu(self, a, bvec, weights, grid):
        inputs = (a, bvec, weights)
        if not _same_bytes(inputs, self.inputs):
            # centering constraint replaces the grid equation at the heaviest node
            anchor = int(np.argmax(weights))
            A = _replace_row(_assemble_generator(a, bvec, grid), anchor, weights)
            self.inputs, self.anchor, self.lu = inputs, anchor, sparse_lu(A)
        return self.anchor, self.lu


def _grid_solve(spec, y, rhs, pi, pad, factors):
    user_grid = pi.grid
    if callable(rhs):
        padded = [_pad_axis(ax, pad) for ax in user_grid.axes]
    else:
        padded = [(ax, slice(0, ax.size)) for ax in user_grid.axes]
    grid_pad = RectGrid(tuple(axp for axp, _ in padded))
    window = tuple(winp for _, winp in padded)
    rhs_pad = _sample_rhs(rhs, grid_pad, y, spec.p, spec.l)
    rhs_user = rhs_pad[window]
    _fredholm_check(rhs_user, pi)

    a, bvec = frozen_coefficients(spec, y, grid_pad)
    weights = np.zeros(grid_pad.shape)
    weights[window] = user_grid.trapezoid_weights() * pi.values
    anchor, lu = factors.anchored_lu(a, bvec, weights.ravel(), grid_pad)
    u_cols = []
    grad_cols = []
    h_axes = grid_pad.spacing
    for j in range(spec.p):
        rhs_vec = -rhs_pad[..., j].ravel()
        rhs_vec[anchor] = 0.0
        u_flat = lu.solve(rhs_vec)
        u_grid = u_flat.reshape(grid_pad.shape)
        u_cols.append(u_grid[window])
        g = np.stack(
            [np.gradient(u_grid, h_axes[k], axis=k, edge_order=2)[window]
             for k in range(grid_pad.ndim)],
            axis=-1,
        )
        grad_cols.append(g)
    u_win = np.stack(u_cols, axis=-1)
    grad_win = np.stack(grad_cols, axis=-2)  # (*shape, p, d)
    return u_win, grad_win, rhs_user


def _interior_residual(spec, y, grid, u_vals, rhs_vals):
    """Apply the same central stencil on the user window, interior nodes only."""
    ndim = grid.ndim
    spacing = grid.spacing
    a, bvec = frozen_coefficients(spec, y, grid)

    Lu = np.zeros_like(u_vals)
    for k in range(ndim):
        hk = spacing[k]
        d2 = (np.roll(u_vals, -1, axis=k) - 2 * u_vals + np.roll(u_vals, 1, axis=k)) / hk**2
        d1 = (np.roll(u_vals, -1, axis=k) - np.roll(u_vals, 1, axis=k)) / (2 * hk)
        Lu += 0.5 * a[..., k, k][..., None] * d2 + bvec[..., k][..., None] * d1
    for k in range(ndim):
        for kk in range(k + 1, ndim):
            if not np.any(a[..., k, kk]):
                continue
            d1k = (np.roll(u_vals, -1, axis=k) - np.roll(u_vals, 1, axis=k)) / (2 * spacing[k])
            dkk = (np.roll(d1k, -1, axis=kk) - np.roll(d1k, 1, axis=kk)) / (2 * spacing[kk])
            Lu += a[..., k, kk][..., None] * dkk
    res = np.abs(Lu + rhs_vals)
    interior = tuple(slice(1, -1) for _ in range(ndim))
    return float(np.max(res[interior]))


def solve_poisson(spec, y, rhs, pi, method="auto", *, pad=DEFAULT_PAD, factors=None):
    """Solve L_y u = -rhs, centered against pi.  rhs: callable (z, y) -> (..., p)
    or node array on pi's grid (arrays disable internal padding).

    factors carries the grid route's last anchored LU across calls; only
    ``solve_family`` passes it, to reuse the factor between slow nodes whose
    frozen operator is the same."""
    if pi.grid.ndim != spec.d:
        raise GridDomainError("density grid dimension does not match the model")
    if method == "auto":
        method = "closed_form_1d" if spec.d == 1 else "grid_solve"
    if method == "closed_form_1d":
        if spec.d != 1:
            raise GridDomainError("closed_form_1d needs d = 1")
        u_vals, grad, rhs_user = _closed_form_1d(spec, y, rhs, pi, pad)
    elif method == "grid_solve":
        if spec.d > 2:
            raise GridDomainError("grid_solve supports d <= 2")
        u_vals, grad, rhs_user = _grid_solve(
            spec, y, rhs, pi, pad, _LastFactor() if factors is None else factors
        )
    else:
        raise GridDomainError(f"unknown Poisson method {method!r}")

    # exact discrete centering against the user-grid density
    mean = np.atleast_1d(pi.grid.integrate(u_vals * pi.values[..., None]))
    u_vals = u_vals - mean
    defect = np.atleast_1d(pi.grid.integrate(u_vals * pi.values[..., None]))
    residual = _interior_residual(spec, y, pi.grid, u_vals, rhs_user)
    y_arr = np.atleast_1d(np.asarray(y, float))
    return PoissonSolution(
        u=GridField(pi.grid, u_vals, role="corrector", y=y_arr),
        grad_u=GridField(pi.grid, grad, role="corrector_gradient", y=y_arr),
        residual=residual,
        centering_defect=defect,
        y=y_arr,
    )


# ---------------------------------------------------------------------------
# solution family tabulated over a slow-variable grid
# ---------------------------------------------------------------------------

class PoissonFamily:
    """Cell solutions tabulated on a rectangular y-grid, interpolable in
    (z, y) with slow-derivatives by central differences across the y-nodes.

    Evaluation outside the tabulated y-range is a hard error; the fast
    coordinate may optionally be clamped to the z-grid edge (rare excursions
    during Monte Carlo sweeps), counted by the caller via ``clamped_count``.
    The count is updated under a lock, because ``--workers`` threads evaluate
    one family concurrently.
    """

    def __init__(self, y_grid, z_grid, u, grad_u, densities=None, spec=None):
        self.spec = spec
        self.y_grid = y_grid
        self.z_grid = z_grid
        self.u = u                      # (*y_shape, *z_shape, p)
        self.grad_u = grad_u            # (*y_shape, *z_shape, p, d)
        self.densities = densities
        ny = y_grid.ndim
        self.du_dy = np.stack(
            [np.gradient(u, y_grid.axes[k], axis=k, edge_order=2) for k in range(ny)],
            axis=-1,
        )                               # (*y_shape, *z_shape, p, l)
        self.d2u_dy2 = np.stack(
            [
                np.stack(
                    [
                        np.gradient(self.du_dy[..., i], y_grid.axes[k], axis=k, edge_order=2)
                        for k in range(ny)
                    ],
                    axis=-1,
                )
                for i in range(ny)
            ],
            axis=-1,
        )                               # (*y_shape, *z_shape, p, l, l)
        self._full = RectGrid(y_grid.axes + z_grid.axes)
        self.p = u.shape[-1]
        self.d = z_grid.ndim
        self.l = y_grid.ndim
        self.clamped_count = 0
        self._clamp_lock = threading.Lock()

    def _eval(self, table, z_pts, y_pts, clamp_z):
        z_pts = np.asarray(z_pts, float)
        y_pts = np.asarray(y_pts, float)
        if clamp_z:
            lo = np.array([ax[0] for ax in self.z_grid.axes])
            hi = np.array([ax[-1] for ax in self.z_grid.axes])
            clipped = np.clip(z_pts, lo, hi)
            n_clamped = int(np.sum(np.any(clipped != z_pts, axis=-1)))
            with self._clamp_lock:
                self.clamped_count += n_clamped
            z_pts = clipped
        if not np.all(self.y_grid.contains(y_pts)):
            raise GridDomainError(
                "slow state left the tabulated y-grid; extend the tabulation range"
            )
        pts = np.concatenate([y_pts, z_pts], axis=-1)
        return multilinear(self._full, table, pts)

    def u_at(self, z_pts, y_pts, clamp_z=False):
        return self._eval(self.u, z_pts, y_pts, clamp_z)

    def grad_u_at(self, z_pts, y_pts, clamp_z=False):
        return self._eval(self.grad_u, z_pts, y_pts, clamp_z)

    def du_dy_at(self, z_pts, y_pts, clamp_z=False):
        return self._eval(self.du_dy, z_pts, y_pts, clamp_z)

    def d2u_dy2_at(self, z_pts, y_pts, clamp_z=False):
        return self._eval(self.d2u_dy2, z_pts, y_pts, clamp_z)


def solve_family(spec, y_grid, z_grid, rhs=None, method="auto", *, pad=DEFAULT_PAD):
    """Tabulate the cell solution over a y-grid (rhs defaults to the model's H).

    The density and the grid route's LU factor are reused from the previous
    node whenever b and a sample to the same bytes there (see the module
    docstring); the tables equal per-node solves exactly."""
    rhs = spec.H if rhs is None else rhs
    y_nodes = y_grid.points().reshape(-1, y_grid.ndim)
    u_list, g_list, dens = [], [], []
    factors = _LastFactor()
    frozen = pi = None
    for y in y_nodes:
        coefs = frozen_coefficients(spec, y, z_grid)
        if _same_bytes(coefs, frozen):
            pi = GridField(z_grid, pi.values, role="density", y=y)
        else:
            pi, frozen = invariant_density(spec, y, z_grid), coefs
        try:
            sol = solve_poisson(spec, y, rhs, pi, method=method, pad=pad, factors=factors)
        except FredholmError as err:
            raise FredholmError(f"at slow node y = {y}: {err}") from err
        u_list.append(sol.u.values)
        g_list.append(sol.grad_u.values)
        dens.append(pi)
    u = np.stack(u_list).reshape(y_grid.shape + z_grid.shape + (spec.p,))
    g = np.stack(g_list).reshape(y_grid.shape + z_grid.shape + (spec.p, spec.d))
    return PoissonFamily(y_grid, z_grid, u, g, densities=dens, spec=spec)
