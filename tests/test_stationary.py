import numpy as np
import pytest

from fastslow import (
    ModelSpec,
    RectGrid,
    check_centering,
    get_benchmark,
    invariant_density,
    invariant_density_2d,
    invariant_density_empirical,
)
from fastslow.errors import GridDomainError, SingularOperatorError


def _two_dim_linear():
    """Fast flow dz = -z dt + sqrt(2) dB in two dimensions: the stationary
    density is the product of two standard normals."""
    return ModelSpec(
        d=2, l=1, p=1,
        b=lambda z, y: -z,
        sigma=lambda z, y: np.broadcast_to(np.sqrt(2.0) * np.eye(2), z.shape[:-1] + (2, 2)),
        F=lambda z, y: 0.0 * y,
        G=lambda z, y: np.broadcast_to(np.eye(1), y.shape[:-1] + (1, 1)),
        H=lambda z, y: z[..., :1],
        epsilon=0.1, kappa=0.25, z0=[0.0, 0.0], y0=[0.0],
    )


def test_linear_model_density_is_standard_normal(ou, ou_pi, z_grid):
    z = z_grid.axes[0]
    exact = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(ou_pi.values - exact)) < 1e-8
    assert ou_pi.integrate() == pytest.approx(1.0, abs=1e-12)


def test_density_independent_of_slow_value(ou, z_grid):
    # the linear benchmark's fast coefficients do not involve y
    a = invariant_density(ou, np.array([0.0]), z_grid)
    b = invariant_density(ou, np.array([1.5]), z_grid)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)


def test_double_well_density_matches_quadrature(z_grid):
    dw = get_benchmark("double-well")
    pi = invariant_density(dw, np.array([0.0]), z_grid)
    z = z_grid.axes[0]
    logw = 0.5 * z**2 - 0.25 * z**4
    w = np.exp(logw - logw.max())
    exact = w / z_grid.integrate(w)
    assert np.max(np.abs(pi.values - exact)) < 1e-6
    # bimodal: local minimum at the origin, maxima near +-1
    mid = z.size // 2
    assert pi.values[mid] < pi.values[np.argmin(np.abs(z - 1.0))]


def test_two_dim_solver_matches_product_normal():
    spec = _two_dim_linear()

    def err_at(n):
        grid = RectGrid.from_bounds([(-5.0, 5.0, n)] * 2)
        pi = invariant_density(spec, np.array([0.0]), grid)
        assert pi.integrate() == pytest.approx(1.0, abs=1e-10)
        pts = grid.points()
        exact = np.exp(-0.5 * (pts[..., 0] ** 2 + pts[..., 1] ** 2)) / (2.0 * np.pi)
        return np.max(np.abs(pi.values - exact)) / exact.max()

    coarse, fine = err_at(41), err_at(81)
    assert coarse < 1e-2
    assert coarse / fine > 2.5  # second-order scheme: halving spacing ~quarters it


def test_two_dim_uniqueness_check_factors_once(splu_sizes):
    """The uniqueness check runs a second inverse-iteration start; both
    starts share one factor of the shifted operator."""
    grid = RectGrid.from_bounds([(-5.0, 5.0, 53)] * 2)
    pi = invariant_density_2d(_two_dim_linear(), np.array([0.0]), grid)
    assert splu_sizes == [53 * 53]
    assert pi.integrate() == pytest.approx(1.0, abs=1e-10)


def _two_dim_decoupled():
    """Fast flow dz1 = -z1 dt + sqrt(2) dB, dz2 = 0: nothing moves z2, so every
    z2 column carries its own stationary density and the discrete null space
    has one dimension per z2 node."""
    return ModelSpec(
        d=2, l=1, p=1,
        b=lambda z, y: np.stack([-z[..., 0], 0.0 * z[..., 1]], axis=-1),
        sigma=lambda z, y: np.broadcast_to(
            np.diag([np.sqrt(2.0), 0.0]), z.shape[:-1] + (2, 2)
        ),
        F=lambda z, y: 0.0 * y,
        G=lambda z, y: np.broadcast_to(np.eye(1), y.shape[:-1] + (1, 1)),
        H=lambda z, y: z[..., :1],
        epsilon=0.1, kappa=0.25, z0=[0.0, 0.0], y0=[0.0],
    )


@pytest.mark.parametrize("n", [41, 53])
def test_two_dim_degenerate_null_space_is_rejected(n):
    grid = RectGrid.from_bounds([(-5.0, 5.0, n)] * 2)
    with pytest.raises(SingularOperatorError, match="null"):
        invariant_density_2d(_two_dim_decoupled(), np.array([0.0]), grid)


def test_two_dim_route_rejects_one_dim_model(ou):
    grid = RectGrid.from_bounds([(-5.0, 5.0, 21)] * 2)
    with pytest.raises(GridDomainError):
        invariant_density_2d(ou, np.array([0.0]), grid)


def test_empirical_histogram_close_to_exact(ou):
    bins = RectGrid.from_bounds([(-4.0, 4.0, 33)])
    pi = invariant_density_empirical(ou, np.array([0.0]), 400.0, 20.0, bins, 17)
    z = bins.axes[0]
    exact = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    assert pi.integrate() == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(pi.values - exact)) < 0.1
    assert np.mean(np.abs(pi.values - exact)) < 0.02


def test_narrow_grid_boundary_mass_guard(ou):
    with pytest.raises(GridDomainError):
        invariant_density(ou, np.array([0.0]), RectGrid.from_bounds([(-0.5, 0.5, 51)]))


def test_dispatcher_rejects_unknown_method(ou, z_grid):
    with pytest.raises(GridDomainError):
        invariant_density(ou, np.array([0.0]), z_grid, method="spectral")
    with pytest.raises(GridDomainError):
        invariant_density(ou, np.array([0.0]), z_grid, method="grid")


def test_centering_of_identity_observable(ou_pi):
    defect = check_centering(lambda z, y: z, ou_pi)
    assert np.max(np.abs(defect)) < 1e-10


def test_centering_detects_shift(ou, ou_pi):
    shifted = check_centering(lambda z, y: z + 1.0, ou_pi)
    assert shifted[0] == pytest.approx(1.0, abs=1e-8)
    second = check_centering(lambda z, y: z**2, ou_pi)
    assert second[0] == pytest.approx(1.0, abs=1e-6)


def test_centering_accepts_node_arrays(ou_pi, z_grid):
    vals = z_grid.axes[0] ** 2
    got = check_centering(vals, ou_pi)
    assert got[0] == pytest.approx(1.0, abs=1e-6)
