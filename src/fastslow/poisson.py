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

Both routes solve on a mesh built once per call: the requested grid padded
on each side (and refined 4-fold for the 1-d closed form).  Truncating the
domain at the user grid imposes a zero-flux condition *there*, whose
boundary layer (size ~ exp(-L(L - |z|))/L for Gaussian-type weights) would
pollute the outermost nodes of the answer; the padding pushes the layer
outside the returned window.  So the right-hand side is a callable,
sampled on the mesh.  It is sampled there once per slow node, as are b and
a = sigma sigma^T, and those arrays, with their window on the user grid,
feed the density, the route and the residual check.  A family keeps each
node's density and user-grid a, which the averaged table integrates against.

A family over a y-grid (``solve_family``) reuses work across slow nodes.  In
the paper the fast diffusion does not depend on the slow state; only H, F
and G may.  So the frozen operator, its invariant density and its anchored
LU factor are the same at every node, and when H ignores y as well (as in
every benchmark and workload model) so is the whole cell problem.  The
family samples b, a and H on the mesh once per node and makes one reuse
decision from them: when all three match the previous node's bytes, it
copies that node's u and grad u and solves nothing; when only b and a
match, it keeps the density and factor and solves for the new H.  A model
whose fast coefficients depend on y still factors once per node.  The
family counts its distinct cell solves and densities in ``counts``.

``scipy.sparse`` is imported inside the grid route's assembly and anchoring
(``_assemble_generator``, ``_replace_row``) and the factor comes from
``stationary.sparse_lu``, so the closed-form route never loads SciPy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import FredholmError, GridDomainError
from .grids import GridField, RectGrid, corrected_cumtrapz, multilinear
from .stationary import (
    frozen_coefficients,
    frozen_density,
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
_PAD = 2.4                # width added to each side of the solve grid
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


def _solve_mesh(user_grid, method):
    """The mesh a route solves on and the window of the user nodes in it:
    each axis extended by _PAD per side at its own spacing, then refined
    _REFINE_1D-fold for the 1-d closed form.  User nodes stay exact mesh
    points, so restriction is error-free."""
    r = _REFINE_1D if method == "closed_form_1d" else 1
    axes, window = [], []
    for ax in user_grid.axes:
        h = ax[1] - ax[0]
        n_add = int(np.ceil(_PAD / h - 1e-12))
        base = np.concatenate(
            [ax[0] - h * np.arange(n_add, 0, -1), ax, ax[-1] + h * np.arange(1, n_add + 1)]
        )
        fine = base[0] + ((base[1] - base[0]) / r) * np.arange((base.size - 1) * r + 1)
        fine[::r] = base
        axes.append(fine)
        window.append(slice(n_add * r, (n_add + ax.size - 1) * r + 1, r))
    return RectGrid(tuple(axes)), tuple(window)


def _sample_rhs(rhs, grid, y, p, l):
    """A callable rhs (z, y) -> (..., p) sampled at the grid nodes."""
    pts = grid.points().reshape(-1, grid.ndim)
    y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (pts.shape[0], l))
    vals = np.asarray(rhs(pts, y_arr), float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return vals.reshape(grid.shape + (p,))


def _fredholm_check(rhs_vals, pi):
    defect = np.atleast_1d(pi.grid.integrate(rhs_vals * pi.values[..., None]))
    worst = float(np.max(np.abs(defect)))
    if worst > _FREDHOLM_TOL:
        raise FredholmError(
            f"rhs not orthogonal to the invariant density (defect {worst:.3e} "
            f"> {_FREDHOLM_TOL:g}); the cell problem has no solution"
        )
    return defect


def _closed_form_1d(z, a, bvec, rhs_mesh):
    ell = stationary_log_weight_1d(a, bvec, z)
    w = np.exp(ell - ell.max())
    a = a[:, 0, 0]

    # cumulative flux integral, re-centered so the total is exactly zero:
    # s_c = int rhs w - (S / W) int w  with S, W the full integrals.  Without
    # the correction the Fredholm defect is amplified by 1/w at the far edge.
    S_cum = corrected_cumtrapz(rhs_mesh * w[:, None], z)
    W_cum = corrected_cumtrapz(w, z)
    s_c = S_cum - W_cum[:, None] * (S_cum[-1] / W_cum[-1])

    rep = w > _WEIGHT_FLOOR
    du = np.zeros_like(rhs_mesh)
    du[rep] = -2.0 * s_c[rep] / (a[rep] * w[rep])[:, None]
    u = corrected_cumtrapz(du, z)
    return u, np.gradient(u, z, axis=0, edge_order=2)[..., None]


# ---------------------------------------------------------------------------
# finite-difference route (d <= 2)
# ---------------------------------------------------------------------------

def _mirror(idx, n):
    idx = np.abs(idx)
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx)


def _assemble_generator(a, bvec, grid):
    """Sparse second-order discretization of L_y with mirrored boundary, given
    a and b sampled at the grid nodes."""
    import scipy.sparse as sp

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
    import scipy.sparse as sp

    cols = np.flatnonzero(row).astype(A.indices.dtype)
    start, stop = A.indptr[i], A.indptr[i + 1]
    indptr = A.indptr.copy()
    indptr[i + 1 :] += cols.size - (stop - start)
    indices = np.concatenate([A.indices[:start], cols, A.indices[stop:]])
    data = np.concatenate([A.data[:start], row[cols], A.data[stop:]])
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)


def _same_bytes(arrays, others):
    return all(
        v is not None and u.shape == v.shape and u.dtype == v.dtype
        and u.tobytes() == v.tobytes()
        for u, v in zip(arrays, others)
    )


def _anchored_lu(a, bvec, pi, mesh, window):
    """LU of the generator on the mesh whose equation at the heaviest node is
    replaced by the centering constraint against pi, and that node."""
    weights = np.zeros(mesh.shape)
    weights[window] = pi.grid.trapezoid_weights() * pi.values
    weights = weights.ravel()
    anchor = int(np.argmax(weights))
    A = _replace_row(_assemble_generator(a, bvec, mesh), anchor, weights)
    return anchor, sparse_lu(A)


def _grid_solve(mesh, factor, rhs_mesh):
    anchor, lu = factor
    u_cols = []
    grad_cols = []
    for j in range(rhs_mesh.shape[-1]):
        rhs_vec = -rhs_mesh[..., j].ravel()
        rhs_vec[anchor] = 0.0
        u_grid = lu.solve(rhs_vec).reshape(mesh.shape)
        u_cols.append(u_grid)
        grad_cols.append(np.stack(
            [np.gradient(u_grid, mesh.spacing[k], axis=k, edge_order=2)
             for k in range(mesh.ndim)],
            axis=-1,
        ))
    return np.stack(u_cols, axis=-1), np.stack(grad_cols, axis=-2)  # (*shape, p, d)


def _interior_residual(grid, a, bvec, u_vals, rhs_vals):
    """Apply the same central stencil on the user window, interior nodes only."""
    ndim = grid.ndim
    spacing = grid.spacing

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


def _route(spec, grid, method):
    if grid.ndim != spec.d:
        raise GridDomainError("density grid dimension does not match the model")
    if method == "auto":
        method = "closed_form_1d" if spec.d == 1 else "grid_solve"
    if method == "closed_form_1d" and spec.d != 1:
        raise GridDomainError("closed_form_1d needs d = 1")
    if method == "grid_solve" and spec.d > 2:
        raise GridDomainError("grid_solve supports d <= 2")
    if method not in ("closed_form_1d", "grid_solve"):
        raise GridDomainError(f"unknown Poisson method {method!r}")
    return method


def _solve_on_mesh(y, rhs_mesh, pi, method, mesh, window, coefs, factor=None):
    """The solution at one slow node from the rhs, a and b sampled on the
    solve mesh, and the grid route's anchored factor (given, or made here)."""
    rhs_user = rhs_mesh[window]
    _fredholm_check(rhs_user, pi)
    a, bvec = coefs
    if method == "closed_form_1d":
        u_mesh, grad_mesh = _closed_form_1d(mesh.axes[0], a, bvec, rhs_mesh)
    else:
        factor = factor or _anchored_lu(a, bvec, pi, mesh, window)
        u_mesh, grad_mesh = _grid_solve(mesh, factor, rhs_mesh)

    # exact discrete centering against the user-grid density
    u_vals = u_mesh[window]
    mean = np.atleast_1d(pi.grid.integrate(u_vals * pi.values[..., None]))
    u_vals = u_vals - mean
    defect = np.atleast_1d(pi.grid.integrate(u_vals * pi.values[..., None]))
    residual = _interior_residual(pi.grid, a[window], bvec[window], u_vals, rhs_user)
    y_arr = np.atleast_1d(np.asarray(y, float))
    sol = PoissonSolution(
        u=GridField(pi.grid, u_vals, y=y_arr),
        grad_u=GridField(pi.grid, grad_mesh[window], y=y_arr),
        residual=residual,
        centering_defect=defect,
        y=y_arr,
    )
    return sol, factor


def solve_poisson(spec, y, rhs, pi, method="auto"):
    """Solve L_y u = -rhs, centered against pi.  rhs: callable (z, y) -> (..., p),
    sampled on the padded solve mesh."""
    method = _route(spec, pi.grid, method)
    mesh, window = _solve_mesh(pi.grid, method)
    return _solve_on_mesh(
        y, _sample_rhs(rhs, mesh, y, spec.p, spec.l), pi, method, mesh, window,
        frozen_coefficients(spec, y, mesh),
    )[0]


# ---------------------------------------------------------------------------
# solution family tabulated over a slow-variable grid
# ---------------------------------------------------------------------------

class FamilyValues(NamedTuple):
    """A cell-solution family at a batch of states (..., entry shape each)."""

    u: np.ndarray           # (..., p)
    grad_u: np.ndarray      # (..., p, d)
    du_dy: np.ndarray       # (..., p, l)
    d2u_dy2: np.ndarray     # (..., p, l, l)


class PoissonFamily:
    """Cell solutions tabulated on a rectangular y-grid, interpolable in
    (z, y) with slow-derivatives by central differences across the y-nodes.

    u, grad_u, du_dy and d2u_dy2 are views into one stacked table over the
    (y, z) grid.  ``at`` evaluates one interpolation stencil per state on
    that table: one cell index, one set of corner weights and one gather give
    all four values, each bitwise equal to interpolating its own table.

    Evaluation outside the tabulated y-range is a hard error; the fast
    coordinate is clamped to the z-grid edge (rare excursions during Monte
    Carlo sweeps).  ``clamped_count`` counts clamped states, one
    per state and evaluation, so a caller that evaluates each visited state
    once counts each clamped state once.  The count is updated under a lock,
    because ``--workers`` threads evaluate one family concurrently.

    ``densities`` and ``diffusions`` list each node's density and user-grid
    a = sigma sigma^T when ``solve_family`` built the family, else None.
    ``counts`` holds its numbers of distinct cell solves and densities,
    ``{"cell_solves": ..., "densities": ...}``, else it is empty.
    """

    def __init__(
        self, y_grid, z_grid, u, grad_u, densities=None, diffusions=None, spec=None,
        counts=None,
    ):
        self.spec = spec
        self.y_grid = y_grid
        self.z_grid = z_grid
        self.densities = densities
        self.diffusions = diffusions
        self.counts = counts or {}
        self._full = RectGrid(y_grid.axes + z_grid.axes)
        self.p = u.shape[-1]
        self.d = z_grid.ndim
        self.l = y_grid.ndim
        p, d, l = self.p, self.d, self.l
        self._shapes = ((p,), (p, d), (p, l), (p, l, l))
        nodes = u.shape[:-1]            # (*y_shape, *z_shape)
        self._table = np.empty(nodes + (sum(math.prod(s) for s in self._shapes),))
        self.u, self.grad_u, self.du_dy, self.d2u_dy2 = self._split(self._table)
        self.u[...] = u
        self.grad_u[...] = grad_u
        # slow derivatives by central differences across the y-nodes;
        # d2u_dy2[..., k, i] differentiates du_dy[..., i] along y_k
        for i in range(l):
            self.du_dy[..., i] = np.gradient(u, y_grid.axes[i], axis=i, edge_order=2)
        for i in range(l):
            for k in range(l):
                self.d2u_dy2[..., k, i] = np.gradient(
                    self.du_dy[..., i], y_grid.axes[k], axis=k, edge_order=2
                )
        self.clamped_count = 0
        self._clamp_lock = threading.Lock()

    def _split(self, stacked):
        """The four entries of a stacked (..., n_entries) array, as views."""
        lead = stacked.shape[:-1]
        parts, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            parts.append(stacked[..., start:stop].reshape(lead + shape))
            start = stop
        return FamilyValues(*parts)

    def at(self, z_pts, y_pts):
        """u, grad_u, du_dy and d2u_dy2 at the states (z, y), with z clamped
        to the z-grid, as FamilyValues."""
        pts = np.concatenate(
            [np.asarray(y_pts, float), np.asarray(z_pts, float)], axis=-1
        )
        outside = False
        for k, ax in enumerate(self.z_grid.axes, start=self.l):
            col = pts[..., k]
            outside = outside | (col < ax[0]) | (col > ax[-1])
            np.clip(col, ax[0], ax[-1], out=col)
        n_clamped = int(np.count_nonzero(outside))
        if n_clamped:
            with self._clamp_lock:
                self.clamped_count += n_clamped
        try:
            stacked = multilinear(self._full, self._table, pts)
        except GridDomainError:
            if not np.all(self.y_grid.contains(pts[..., : self.l])):
                raise GridDomainError(
                    "slow state left the tabulated y-grid; extend the tabulation range"
                ) from None
            raise
        return self._split(stacked)


def solve_family(spec, y_grid, z_grid):
    """Tabulate the cell solution of the model's H over a y-grid.

    b, sigma and H are sampled once per slow node, on the solve mesh.  When
    b and a match the previous node's bytes, its density and the grid
    route's anchored factor are kept; when H matches too, its u and grad u
    are copied and nothing is solved (see the module docstring).  Either
    way the tables equal per-node solves exactly.  Each node's density and
    the user-grid window of its a = sigma sigma^T are kept as ``densities``
    and ``diffusions``; nodes that reuse a density share its arrays."""
    method = _route(spec, z_grid, "auto")
    mesh, window = _solve_mesh(z_grid, method)
    y_nodes = y_grid.points().reshape(-1, y_grid.ndim)
    u = np.empty((len(y_nodes),) + z_grid.shape + (spec.p,))
    g = np.empty((len(y_nodes),) + z_grid.shape + (spec.p, spec.d))
    dens, diffs = [], []
    counts = {"cell_solves": 0, "densities": 0}
    last = (None, None, None)   # the previous node's a, b and H on the mesh
    for i, y in enumerate(y_nodes):
        node = (*frozen_coefficients(spec, y, mesh), _sample_rhs(spec.H, mesh, y, spec.p, spec.l))
        same_flow = _same_bytes(node[:2], last[:2])
        if same_flow:
            pi = GridField(z_grid, pi.values, y=y)
        else:
            factor = None
            # a copy, so the family holds the user-grid window, not the mesh
            a = np.ascontiguousarray(node[0][window])
            pi = frozen_density(z_grid, y, a, node[1][window])
            counts["densities"] += 1
        if not (same_flow and _same_bytes(node[2:], last[2:])):
            try:
                sol, factor = _solve_on_mesh(y, node[2], pi, method, mesh, window, node[:2], factor)
            except FredholmError as err:
                raise FredholmError(f"at slow node y = {y}: {err}") from err
            counts["cell_solves"] += 1
        last = node
        u[i] = sol.u.values
        g[i] = sol.grad_u.values
        dens.append(pi)
        diffs.append(a)
    u = u.reshape(y_grid.shape + z_grid.shape + (spec.p,))
    g = g.reshape(y_grid.shape + z_grid.shape + (spec.p, spec.d))
    return PoissonFamily(
        y_grid, z_grid, u, g, densities=dens, diffusions=diffs, spec=spec, counts=counts
    )
