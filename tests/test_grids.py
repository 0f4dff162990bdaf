from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import GridField, RectGrid, corrected_cumtrapz, multilinear
from fastslow.errors import GridDomainError


def test_from_bounds_layout():
    grid = RectGrid.from_bounds([(-1.0, 1.0, 5), (0.0, 2.0, 3)])
    assert grid.ndim == 2
    assert grid.shape == (5, 3)
    np.testing.assert_allclose(grid.spacing, [0.5, 1.0])
    assert grid.n_nodes == 15
    assert grid.points().shape == (5, 3, 2)


def test_uniform_spacing_required():
    with pytest.raises(GridDomainError):
        RectGrid((np.array([0.0, 0.1, 1.0]),))


def test_trapezoid_exact_for_linear():
    grid = RectGrid.from_bounds([(0.0, 2.0, 7), (-1.0, 1.0, 5)])
    pts = grid.points()
    vals = 3.0 * pts[..., 0] - 2.0 * pts[..., 1] + 1.0
    # integral of 3x - 2y + 1 over [0,2] x [-1,1] = 12 + 0 + 4
    assert grid.integrate(vals) == pytest.approx(16.0, rel=1e-12)


def test_trapezoid_converges_quadratically():
    errs = []
    for n in (21, 41):
        grid = RectGrid.from_bounds([(0.0, np.pi, n)])
        vals = np.sin(grid.axes[0])
        errs.append(abs(grid.integrate(vals) - 2.0))
    assert errs[1] < errs[0] / 3.5  # order two: factor ~4


def test_contains():
    grid = RectGrid.from_bounds([(-1.0, 1.0, 11)])
    inside = grid.contains(np.array([[0.0], [-1.0], [1.0]]))
    assert inside.all()
    assert not grid.contains(np.array([[1.0 + 1e-9]]))[0]


def test_grid_field_rejects_shape_mismatch():
    grid = RectGrid.from_bounds([(0.0, 1.0, 4)])
    with pytest.raises(GridDomainError):
        GridField(grid, np.zeros(5))


@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    c=st.floats(-3, 3),
    x=st.floats(-2, 2),
    y=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_multilinear_reproduces_affine(a, b, c, x, y):
    grid = RectGrid.from_bounds([(-2.0, 2.0, 9), (0.0, 1.0, 4)])
    pts = grid.points()
    vals = a * pts[..., 0] + b * pts[..., 1] + c
    got = multilinear(grid, vals, np.array([x, y]))
    assert got == pytest.approx(a * x + b * y + c, abs=1e-9)


def test_multilinear_matches_nodes_and_trailing_axes():
    grid = RectGrid.from_bounds([(0.0, 1.0, 5)])
    vals = np.stack([grid.axes[0], grid.axes[0] ** 2], axis=-1)  # (5, 2)
    got = multilinear(grid, vals, np.array([[0.25], [1.0]]))
    np.testing.assert_allclose(got, [[0.25, 0.0625], [1.0, 1.0]])


def test_multilinear_outside_raises():
    grid = RectGrid.from_bounds([(0.0, 1.0, 5)])
    vals = grid.axes[0].copy()
    with pytest.raises(GridDomainError):
        multilinear(grid, vals, np.array([1.5]))


def _multilinear_reference(grid, values, pts):
    """Corner-by-corner interpolation with fancy indexing: each entry summed
    from 0.0 over the corners, each corner weight a product from 1.0."""
    idx, frac = [], []
    for k, ax in enumerate(grid.axes):
        t = (pts[..., k] - ax[0]) / (ax[1] - ax[0])
        i = np.clip(np.floor(t).astype(int), 0, ax.size - 2)
        idx.append(i)
        frac.append(t - i)
    extra = values.ndim - grid.ndim
    out = 0.0
    for corner in product((0, 1), repeat=grid.ndim):
        w = np.ones(pts.shape[:-1])
        for k, c in enumerate(corner):
            w = w * (frac[k] if c else (1.0 - frac[k]))
        vals = values[tuple(i + c for i, c in zip(idx, corner))]
        out = out + w.reshape(w.shape + (1,) * extra) * vals
    return out


@given(
    shape=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    extra=st.sampled_from([(), (1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_multilinear_is_bitwise_the_corner_reference(shape, extra, seed, n):
    rng = np.random.default_rng(seed)
    grid = RectGrid.from_bounds([(-1.0 - k, 0.5 + 2 * k, m) for k, m in enumerate(shape)])
    values = rng.standard_normal(tuple(shape) + extra)
    # interior points, nodes and both edges of every axis
    cols = []
    for ax in grid.axes:
        pick = rng.integers(0, 3, n)
        inside = rng.uniform(ax[0], ax[-1], n)
        node = rng.choice(ax, n)
        edge = rng.choice([ax[0], ax[-1]], n)
        cols.append(np.choose(pick, [inside, node, edge]))
    pts = np.stack(cols, axis=-1)
    got = multilinear(grid, values, pts)
    want = _multilinear_reference(grid, values, pts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_grid_field_normalizes_on_request():
    grid = RectGrid.from_bounds([(-3.0, 3.0, 121)])
    raw = np.exp(-grid.axes[0] ** 2)
    field = GridField(grid, raw / grid.integrate(raw))
    assert field.integrate() == pytest.approx(1.0, abs=1e-12)


def test_corrected_cumtrapz_is_high_order():
    x = np.linspace(0.0, 2.0, 101)
    got = corrected_cumtrapz(np.cos(x), x)
    err_corrected = np.max(np.abs(got - np.sin(x)))
    steps = 0.5 * (x[1] - x[0]) * (np.cos(x)[:-1] + np.cos(x)[1:])
    plain = np.concatenate([[0.0], np.cumsum(steps)])
    err_plain = np.max(np.abs(plain - np.sin(x)))
    assert err_corrected < 1e-8
    assert err_corrected < err_plain / 100.0


def test_corrected_cumtrapz_trailing_axes():
    x = np.linspace(0.0, 1.0, 51)
    f = np.stack([np.ones_like(x), 2.0 * x], axis=-1)
    got = corrected_cumtrapz(f, x)
    np.testing.assert_allclose(got[:, 0], x, atol=1e-12)
    np.testing.assert_allclose(got[:, 1], x**2, atol=1e-12)
