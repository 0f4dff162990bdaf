"""Rectangular grids, grid-valued fields and multilinear interpolation.

All tabulated objects in this package (invariant densities, cell-problem
solutions, averaged coefficient tables) live on uniform rectangular grids.
Quadrature is composite trapezoidal throughout, so a normalized density
integrates to one under exactly the weights returned by
:meth:`RectGrid.trapezoid_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GridDomainError

__all__ = ["RectGrid", "GridField", "multilinear", "corrected_cumtrapz"]


@dataclass(frozen=True)
class RectGrid:
    """Uniform rectangular grid given by its per-axis node coordinates."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        for ax in axes:
            if ax.ndim != 1 or ax.size < 2:
                raise GridDomainError("each grid axis needs at least two nodes")
            steps = np.diff(ax)
            if np.any(steps <= 0):
                raise GridDomainError("grid axes must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise GridDomainError("grid axes must be uniformly spaced")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def from_bounds(cls, bounds):
        """Build from an iterable of (lo, hi, n) triples."""
        return cls(tuple(np.linspace(lo, hi, int(n)) for lo, hi, n in bounds))

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(ax.size for ax in self.axes)

    @property
    def spacing(self):
        return tuple(ax[1] - ax[0] for ax in self.axes)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def points(self):
        """All nodes as an array of shape (*shape, ndim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def trapezoid_weights(self):
        """Product trapezoidal weights, shape (*shape,)."""
        w = np.ones(self.shape)
        for k, ax in enumerate(self.axes):
            wk = np.full(ax.size, ax[1] - ax[0])
            wk[0] *= 0.5
            wk[-1] *= 0.5
            shape = [1] * self.ndim
            shape[k] = ax.size
            w = w * wk.reshape(shape)
        return w

    def integrate(self, values):
        """Trapezoidal integral of node values; extra trailing axes pass through."""
        values = np.asarray(values)
        w = self.trapezoid_weights()
        extra = values.ndim - self.ndim
        if extra:
            w = w.reshape(w.shape + (1,) * extra)
        return np.sum(w * values, axis=tuple(range(self.ndim)))

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.ones(points.shape[:-1], dtype=bool)
        for k, ax in enumerate(self.axes):
            ok &= (points[..., k] >= ax[0]) & (points[..., k] <= ax[-1])
        return ok


@dataclass
class GridField:
    """Values tabulated on a RectGrid, optionally frozen at a slow value y.

    ``values`` has shape (*grid.shape, ...) — trailing axes carry vector or
    matrix structure.
    """

    grid: RectGrid
    values: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[: self.grid.ndim] != self.grid.shape:
            raise GridDomainError(
                f"field values shaped {self.values.shape} do not match grid {self.grid.shape}"
            )
        if self.y is not None:
            self.y = np.atleast_1d(np.asarray(self.y, dtype=float))

    def integrate(self):
        return self.grid.integrate(self.values)


def multilinear(grid, values, points):
    """Multilinear interpolation of grid values at arbitrary points.

    points : array (..., grid.ndim).  Returns array (..., *extra) where extra
    are the trailing axes of ``values``.  Points outside the grid raise
    GridDomainError; a caller that must not abort on rare excursions projects
    its points onto the grid first (``PoissonFamily.at``).

    One cell index and one set of corner weights serve every trailing entry,
    so stacking several tables along the trailing axes and interpolating once
    gives each entry exactly the bits of interpolating its table alone.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    scalar_in = points.ndim == 1
    pts = np.atleast_2d(points)
    if pts.shape[-1] != grid.ndim:
        raise GridDomainError(
            f"interpolation points have dimension {pts.shape[-1]}, grid has {grid.ndim}"
        )
    # one pass per axis: range check, then the flat index of each point's
    # lower cell corner and the two linear weights of the axis
    extra = values.shape[grid.ndim :]
    table = values.reshape((-1,) + extra)
    stride = table.shape[0]
    base = 0
    axis_weights = []               # per axis: (1 - frac, frac, flat stride)
    for k, ax in enumerate(grid.axes):
        x = pts[..., k]
        if x.size and not (x.min() >= ax[0] and x.max() <= ax[-1]):
            bad = pts[~grid.contains(pts)][0]
            raise GridDomainError(f"point {bad} outside tabulated range")
        stride //= ax.size
        t = (x - ax[0]) / (ax[1] - ax[0])           # >= 0
        i = np.maximum(np.minimum(t.astype(np.intp), ax.size - 2), 0)
        frac = t - i
        base = base + i * stride
        axis_weights.append((1.0 - frac, frac, stride))

    out = np.zeros(pts.shape[:-1] + extra)
    vals = np.empty_like(out)
    for corner in product((0, 1), repeat=grid.ndim):
        w, off = None, 0
        for (w0, w1, step), c in zip(axis_weights, corner):
            f = w1 if c else w0
            w = f if w is None else w * f
            off += c * step
        np.take(table, base + off, axis=0, out=vals)
        vals *= w.reshape(w.shape + (1,) * len(extra))
        out += vals
    if scalar_in:
        out = out[0]
    return out


def corrected_cumtrapz(f, x):
    """Cumulative trapezoid with Euler-Maclaurin end correction.

    For smooth integrands the corrected rule is fourth-order accurate and its
    error varies smoothly from node to node, which matters when the result is
    later divided by an exponentially small density or differentiated.
    f may have trailing axes; integration runs along axis 0.
    """
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    h = x[1] - x[0]
    steps = 0.5 * h * (f[:-1] + f[1:])
    out = np.concatenate([np.zeros((1,) + f.shape[1:]), np.cumsum(steps, axis=0)])
    fp = np.gradient(f, h, axis=0, edge_order=2)
    out += (h * h / 12.0) * (fp[0] - fp)
    return out
