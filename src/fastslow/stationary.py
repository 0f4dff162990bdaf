"""Invariant density of the frozen fast flow, by formula, grid, or occupation.

For d = 1 the stationary density of dz = b dt + sigma dB is available in
closed form up to normalization,

    pi(z)  propto  a(z)^{-1} exp( int_0^z 2 b(w)/a(w) dw ),       a = sigma^2,

evaluated with cumulative trapezoid quadrature and normalized so that the
trapezoidal integral over the grid equals one.  For d = 2 the stationary
equation is discretized in conservative finite-volume form (zero-flux
boundary) and the null vector extracted by shifted inverse power iteration;
the shifted operator is factored once, and both inverse-iteration starts of
the uniqueness check share that factor.  The empirical route histograms the
nodes of path 0 of the simulation kernel on the time-changed ``frozen_model``.

The closed-form and finite-volume routes read b and a only through their
values at the grid nodes, so both start from those sampled arrays
(``frozen_density``); ``frozen_coefficients`` samples them.  A cell-problem
family over a y-grid (``poisson.solve_family``) samples them once per slow
node on its solve mesh and hands the user-grid window to ``frozen_density``.
In the paper the fast dynamics do not depend on the slow state, so the
family sees the same samples at every node and keeps the first density.

SciPy is imported inside the functions that build or factor a sparse
operator (``sparse_lu`` and the finite-volume route), not at module level,
so the closed-form and empirical routes run without loading it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import (
    ConfigError, ConvergenceError, GridDomainError, SimulationBlowupError, SingularOperatorError,
)
from .grids import GridField, corrected_cumtrapz
from .model import constant_coefficient, diffusion_matrix
from .simulate import Probe, macro_mesh, simulate_block

__all__ = [
    "invariant_density",
    "frozen_density",
    "invariant_density_empirical",
    "check_centering",
]

_BOUNDARY_SHELL = 0.05   # outer fraction of nodes counted as "boundary"
_BOUNDARY_MASS = 0.01    # mass allowed there before erroring
_EMPIRICAL_H = 0.01      # step of the frozen trajectory behind the histogram


def _boundary_mass_check(field):
    grid = field.grid
    mask = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.ndim):
        n = grid.shape[ax]
        edge = max(1, int(np.ceil(_BOUNDARY_SHELL * n)))
        idx = [slice(None)] * grid.ndim
        idx[ax] = slice(0, edge)
        mask[tuple(idx)] = True
        idx[ax] = slice(n - edge, n)
        mask[tuple(idx)] = True
    w = grid.trapezoid_weights()
    shell_mass = float(np.sum(w * field.values * mask))
    if shell_mass > _BOUNDARY_MASS:
        raise GridDomainError(
            f"{shell_mass:.2%} of invariant mass sits in the outer "
            f"{_BOUNDARY_SHELL:.0%} of grid nodes; widen the grid"
        )


def frozen_coefficients(spec, y, grid):
    """a = sigma sigma^T and b of the frozen fast flow at the grid nodes,
    shaped (*grid.shape, d, d) and (*grid.shape, d)."""
    pts = grid.points().reshape(-1, grid.ndim)
    y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (pts.shape[0], spec.l))
    a = diffusion_matrix(spec, pts, y_arr).reshape(grid.shape + (spec.d, spec.d))
    bvec = np.asarray(spec.b(pts, y_arr), float).reshape(grid.shape + (spec.d,))
    return a, bvec


def sparse_lu(A):
    """SuperLU factor of a square sparse operator.

    SciPy reports an exactly singular factor as a bare RuntimeError; it is
    raised here as SingularOperatorError, so callers see a typed failure.
    """
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(A.tocsc())
    except RuntimeError as err:
        if "singular" not in str(err):
            raise
        raise SingularOperatorError(f"sparse LU factorization failed: {err}") from err


def stationary_log_weight_1d(a, bvec, z_axis):
    """log of the unnormalized closed-form density on a 1-d axis, given a and
    b sampled at its nodes."""
    a = a[:, 0, 0]
    if np.any(a <= 0):
        raise GridDomainError("degenerate diffusion on the density grid")
    return corrected_cumtrapz(2.0 * bvec[:, 0] / a, z_axis) - np.log(a)


def _closed_form_weight(a, bvec, grid):
    ell = stationary_log_weight_1d(a, bvec, grid.axes[0])
    w = np.exp(ell - ell.max())
    Z = grid.integrate(w)
    if not np.isfinite(Z) or Z <= 0.0:
        raise SingularOperatorError("invariant weight not normalizable on this grid")
    return w / Z


# ---------------------------------------------------------------------------
# 2-d finite-volume route
# ---------------------------------------------------------------------------

def _assemble_fv_adjoint(a, bvec, grid):
    """Sparse operator giving d(mass)/dt from node density values, given a
    and b sampled at the grid nodes.

    Flux form with zero flow through the outer faces:
        J_x = b_x pi - (1/2) d_x(a_xx pi) - (1/2) d_y(a_xy pi)
    and symmetrically for J_y; cross-derivatives use centered differences
    (one-sided at tangential boundaries).  Fluxes telescope, so total mass is
    conserved exactly and the constant-in/constant-out structure holds.
    """
    import scipy.sparse as sp

    nx, ny = grid.shape
    hx, hy = grid.spacing
    a11, a12, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    bx, by = bvec[..., 0], bvec[..., 1]
    wx = np.full(nx, hx); wx[0] *= 0.5; wx[-1] *= 0.5
    wy = np.full(ny, hy); wy[0] *= 0.5; wy[-1] *= 0.5

    rows, cols, vals = [], [], []

    def node(i, j):
        return i * ny + j

    def add(row_idx, col_idx, v):
        rows.append(row_idx.ravel())
        cols.append(col_idx.ravel())
        vals.append(v.ravel())

    def tangential_derivative_coeffs(g, axis):
        """Coefficient triples (offset, field) for a centered derivative of
        g*pi along `axis`, as a list of (shift, coeff_field)."""
        n = g.shape[axis]
        h = hy if axis == 1 else hx
        # interior: (g_{+1} - g_{-1}) / 2h ; boundaries one-sided / h
        plus = np.zeros_like(g)
        minus = np.zeros_like(g)
        center = np.zeros_like(g)
        sl = [slice(None)] * 2

        def shifted(field, shift):
            out = np.zeros_like(field)
            src = [slice(None)] * 2
            dst = [slice(None)] * 2
            if shift > 0:
                src[axis] = slice(shift, n)
                dst[axis] = slice(0, n - shift)
            else:
                src[axis] = slice(0, n + shift)
                dst[axis] = slice(-shift, n)
            out[tuple(dst)] = field[tuple(src)]
            return out

        interior = np.ones(g.shape, bool)
        sl[axis] = 0
        first = tuple(sl)
        sl[axis] = n - 1
        last = tuple(sl)
        interior[first] = False
        interior[last] = False

        plus[interior] = shifted(g, 1)[interior] / (2 * h)
        minus[interior] = -shifted(g, -1)[interior] / (2 * h)
        plus[first] = shifted(g, 1)[first] / h
        center[first] = -g[first] / h
        center[last] = g[last] / h
        minus[last] = -shifted(g, -1)[last] / h
        return [(1, plus), (0, center), (-1, minus)]

    for axis in (0, 1):
        if axis == 0:
            nfaces = nx - 1
            faces_i, faces_j = np.meshgrid(np.arange(nfaces), np.arange(ny), indexing="ij")
            lo = node(faces_i, faces_j)
            hi = node(faces_i + 1, faces_j)
            h_n = hx
            face_measure = wy[faces_j]
            b_field, a_diag, a_off = bx, a11, a12
            t_axis = 1
        else:
            nfaces = ny - 1
            faces_i, faces_j = np.meshgrid(np.arange(nx), np.arange(nfaces), indexing="ij")
            lo = node(faces_i, faces_j)
            hi = node(faces_i, faces_j + 1)
            h_n = hy
            face_measure = wx[faces_i]
            b_field, a_diag, a_off = by, a22, a12
            t_axis = 0

        def take(field, which):
            if axis == 0:
                return field[faces_i + (1 if which == "hi" else 0), faces_j]
            return field[faces_i, faces_j + (1 if which == "hi" else 0)]

        # flux contributions as (column-node, coefficient) pairs
        contrib = [
            (lo, 0.5 * take(b_field, "lo") + 0.5 * take(a_diag, "lo") / h_n),
            (hi, 0.5 * take(b_field, "hi") - 0.5 * take(a_diag, "hi") / h_n),
        ]
        # cross term: -(1/2) * average over the two face nodes of the
        # tangential derivative of (a_off * pi)
        for shift, coeff in tangential_derivative_coeffs(a_off, t_axis):
            for which in ("lo", "hi"):
                cf = -0.25 * take(coeff, which)
                if not np.any(cf):
                    continue
                if axis == 0:
                    col = node(faces_i + (1 if which == "hi" else 0), faces_j + shift)
                    valid = (faces_j + shift >= 0) & (faces_j + shift < ny)
                else:
                    col = node(faces_i + shift, faces_j + (1 if which == "hi" else 0))
                    valid = (faces_i + shift >= 0) & (faces_i + shift < nx)
                contrib.append((np.where(valid, col, 0), np.where(valid, cf, 0.0)))

        for col, cf in contrib:
            flux = cf * face_measure
            add(lo, col, -flux)   # mass leaves the low cell through this face
            add(hi, col, +flux)   # and enters the high cell

    n_nodes = nx * ny
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    ).tocsc()
    return A


def _null_vector(A, lu, seed_vec, scale, max_iter=200):
    """Inverse iteration for the null vector of A; lu factors A shifted by a
    small multiple of the identity."""
    x = seed_vec / np.linalg.norm(seed_vec)
    for _ in range(max_iter):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        res = np.max(np.abs(A @ x))
        if res <= 1e-11 * scale:
            return x
    raise ConvergenceError(
        f"inverse iteration stalled (residual {res:.2e}, scale {scale:.2e})"
    )


def _finite_volume_weight(a, bvec, grid):
    import scipy.sparse as sp

    A = _assemble_fv_adjoint(a, bvec, grid)
    scale = float(np.max(np.abs(A)))
    n = A.shape[0]

    shifted_lu = sparse_lu(A - 1e-8 * scale * sp.identity(n, format="csc"))
    x = _null_vector(A, shifted_lu, np.ones(n), scale)
    if x.sum() < 0:
        x = -x
    rng = np.random.Generator(np.random.Philox(key=20_240_817))
    x2 = _null_vector(A, shifted_lu, rng.random(n) + 0.5, scale)
    if x2.sum() < 0:
        x2 = -x2
    a1 = x / np.sum(np.abs(x))
    a2 = x2 / np.sum(np.abs(x2))
    if np.max(np.abs(a1 - a2)) > 1e-7:
        raise SingularOperatorError(
            "two inverse-iteration starts reached different null vectors"
        )

    vals = x.reshape(grid.shape)
    floor = -1e-8 * vals.max()
    if vals.min() < floor:
        raise ConvergenceError(
            f"null vector has significantly negative entries (min {vals.min():.2e})"
        )
    vals = np.clip(vals, 0.0, None)
    Z = grid.integrate(vals)
    if Z <= 0:
        raise SingularOperatorError("null vector carries no mass")
    return vals / Z


def frozen_density(grid, y, a, bvec):
    """Invariant density of the frozen flow at slow value y, from a and b
    sampled at the grid nodes: closed form on one axis, finite volume on two.

    ``poisson.solve_family`` calls it with its own samples.  It is public so
    that per-layer tracing, which wraps each module's ``__all__``, counts the
    densities a family builds."""
    weight = _closed_form_weight if grid.ndim == 1 else _finite_volume_weight
    field = GridField(
        grid, weight(a, bvec, grid), y=np.atleast_1d(np.asarray(y, float))
    )
    _boundary_mass_check(field)
    return field


def frozen_model(spec, y):
    """The model with Y started at y and F = G = H = 0, so the kernel keeps Y
    at y and X at 0.  Run over [0, epsilon T] with step epsilon h, its fast
    state is the frozen flow dz = b(z, y) dt + sigma(z, y) dB over [0, T]
    with step h."""
    l, p = spec.l, spec.p
    F, G, H = (constant_coefficient(np.zeros(shape)) for shape in ((l,), (l, l), (p,)))
    return replace(spec, y0=np.atleast_1d(y), F=F, G=G, H=H)


class _NodeStates(Probe):
    """Lane 0's fast state at macro nodes 1..n in a preallocated (n, d) array,
    the only record the histogram reads (node 0 lies in every burn-in)."""

    def __init__(self, n, d):
        self.states = np.empty((n, d))

    def node(self, k, xi, Y, X):
        self.states[k - 1] = xi[0]


def invariant_density_empirical(spec, y, T, burn_in, bins, seed):
    """Normalized occupation histogram of one long frozen trajectory.

    bins is a grid whose nodes are the bin centers.  The trajectory is path 0
    of the kernel on the time-changed ``frozen_model``: the frozen flow over
    [0, T] with step 0.01, whose nodes in (burn_in, T] the histogram collects.
    A blow-up is reported on the frozen clock."""
    grid = bins
    if grid.ndim != spec.d:
        raise GridDomainError("histogram grid dimension does not match the model")
    if not 0.0 <= burn_in < T:
        raise GridDomainError("need 0 <= burn_in < T")
    h, eps = _EMPIRICAL_H, spec.epsilon
    n, times = macro_mesh(T, h)  # the frozen mesh, checked on the frozen clock
    rec = _NodeStates(n, spec.d)
    try:
        simulate_block(frozen_model(spec, y), eps * T, eps * h, seed, [0], probes=(rec,))
    except SimulationBlowupError as err:
        k = err.time_index
        raise SimulationBlowupError(
            f"frozen fast state blew up at step {k} (t = {k * h:.6g})", time_index=k, time=k * h
        ) from err
    sample = rec.states[times[1:] > burn_in + 1e-12]
    edges = []
    for ax in grid.axes:
        step = ax[1] - ax[0]
        edges.append(np.concatenate([[ax[0] - 0.5 * step], ax + 0.5 * step]))
    hist, _ = np.histogramdd(sample, bins=edges)
    vol = float(np.prod(grid.spacing))
    vals = hist / (sample.shape[0] * vol)
    Z = grid.integrate(vals)
    if Z <= 0:
        raise GridDomainError("trajectory never visited the histogram grid")
    field = GridField(grid, vals / Z, y=np.atleast_1d(np.asarray(y, float)))
    _boundary_mass_check(field)
    return field


def invariant_density(spec, y, grid, method="auto", **kw):
    """Dispatch on dimension: closed form for d = 1, finite volume for d = 2.
    Keywords go to the empirical route, which alone takes any; the other
    routes reject them with ConfigError."""
    if method == "auto":
        method = "closed_form" if spec.d == 1 else "grid"
    if method == "empirical":
        return invariant_density_empirical(spec, y, bins=grid, **kw)
    if method == "closed_form":
        if spec.d != 1 or grid.ndim != 1:
            raise GridDomainError("closed-form route needs d = 1")
    elif method == "grid":
        if spec.d == 1:
            raise GridDomainError("grid density route is the 2-d solver; use closed_form")
        if spec.d != 2 or grid.ndim != 2:
            raise GridDomainError("finite-volume route needs d = 2")
    else:
        raise GridDomainError(f"unknown density method {method!r}")
    if kw:
        raise ConfigError(
            f"density method {method!r} takes no keywords, got {', '.join(sorted(kw))}"
        )
    return frozen_density(grid, y, *frozen_coefficients(spec, y, grid))


def check_centering(f, pi):
    """Trapezoidal integral of the callable f(z, y) against a density field,
    per component."""
    grid = pi.grid
    pts = grid.points().reshape(-1, grid.ndim)
    y_arr = np.broadcast_to(pi.y, (pts.shape[0], pi.y.size)) if pi.y is not None else None
    vals = np.asarray(f(pts, y_arr), float)
    vals = vals.reshape(grid.shape + vals.shape[1:])
    extra = vals.ndim - grid.ndim
    pw = pi.values.reshape(pi.values.shape + (1,) * extra)
    return np.atleast_1d(grid.integrate(vals * pw))
