import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fastslow.poisson as poisson
from fastslow import (
    GridField,
    ModelSpec,
    RectGrid,
    invariant_density,
    solve_family,
    solve_poisson,
)
from fastslow.errors import FredholmError, GridDomainError, SingularOperatorError


def test_linear_cell_problem_exact(ou, ou_pi, z_grid):
    sol = solve_poisson(ou, np.array([0.0]), ou.H, ou_pi)
    z = z_grid.axes[0]
    assert np.max(np.abs(sol.u.values[:, 0] - z)) < 1e-6
    assert np.max(np.abs(sol.grad_u.values[:, 0, 0] - 1.0)) < 1e-6
    assert np.max(np.abs(sol.residual)) < 1e-6
    assert np.max(np.abs(sol.centering_defect)) < 1e-8


def test_quadratic_observable_cell_problem(ou, ou_pi, z_grid):
    """For the linear fast flow with unit stationary variance the centered
    square observable z^2 - 1 has cell solution (z^2 - 1) / 2."""
    sol = solve_poisson(ou, np.array([0.0]), lambda z, y: z**2 - 1.0, ou_pi)
    z = z_grid.axes[0]
    exact = 0.5 * (z**2 - 1.0)
    assert np.max(np.abs(sol.u.values[:, 0] - exact)) < 1e-5
    assert np.max(np.abs(sol.grad_u.values[:, 0, 0] - z)) < 1e-4


def test_uncentered_rhs_rejected(ou, ou_pi):
    with pytest.raises(FredholmError):
        solve_poisson(ou, np.array([0.0]), lambda z, y: z + 0.5, ou_pi)


def test_grid_route_agrees_with_closed_form(ou, ou_pi, z_grid):
    a = solve_poisson(ou, np.array([0.0]), ou.H, ou_pi, method="closed_form_1d")
    b = solve_poisson(ou, np.array([0.0]), ou.H, ou_pi, method="grid_solve")
    assert np.max(np.abs(a.u.values - b.u.values)) < 5e-4
    assert np.max(np.abs(b.centering_defect)) < 1e-8


def test_two_dim_cell_problem():
    from tests.test_stationary import _two_dim_linear

    spec = _two_dim_linear()
    grid = RectGrid.from_bounds([(-5.0, 5.0, 41)] * 2)
    pi = invariant_density(spec, np.array([0.0]), grid)
    sol = solve_poisson(spec, np.array([0.0]), spec.H, pi)
    # the first fast coordinate solves its own cell problem
    exact = grid.points()[..., 0]
    core = pi.values > 1e-6  # judge accuracy where the density lives
    err = np.abs(sol.u.values[..., 0] - exact)
    assert err[core].max() < 2e-2
    assert np.max(np.abs(sol.centering_defect)) < 1e-8


def test_array_rhs_matches_callable(ou, ou_pi, z_grid):
    call = solve_poisson(ou, np.array([0.0]), ou.H, ou_pi)
    node_vals = z_grid.axes[0][:, None]
    arr = solve_poisson(ou, np.array([0.0]), node_vals, ou_pi)
    # array input disables internal padding/refinement, so the solutions only
    # agree away from the domain edge (where the un-padded route degrades)
    interior = np.abs(z_grid.axes[0]) <= 5.0
    assert np.max(np.abs(call.u.values - arr.u.values)[interior]) < 2e-3
    assert np.max(np.abs(arr.centering_defect)) < 1e-8


def test_family_interpolates_exactly_for_linear_solution(ou_family):
    z = np.array([[0.3], [-1.7], [4.2]])
    y = np.array([[0.0], [1.1], [-2.5]])
    np.testing.assert_allclose(ou_family.u_at(z, y)[:, 0], z[:, 0], atol=1e-6)
    np.testing.assert_allclose(ou_family.grad_u_at(z, y)[:, 0, 0], 1.0, atol=1e-6)
    # the linear benchmark's cell solution does not depend on y
    assert np.max(np.abs(ou_family.du_dy_at(z, y))) < 1e-6
    assert np.max(np.abs(ou_family.d2u_dy2_at(z, y))) < 1e-6


def test_family_y_excursion_is_hard_error(ou_family):
    with pytest.raises(GridDomainError):
        ou_family.u_at(np.array([[0.0]]), np.array([[4.5]]))


def test_family_z_clamping_is_counted(ou_family):
    before = ou_family.clamped_count
    ou_family.u_at(np.array([[7.0], [0.0]]), np.array([[0.0], [0.0]]), clamp_z=True)
    assert ou_family.clamped_count == before + 1
    with pytest.raises(GridDomainError):
        ou_family.u_at(np.array([[7.0]]), np.array([[0.0]]))


def test_family_clamp_count_is_exact_under_two_threads(ou_family):
    """Two threads clamp through one family at a tiny switch interval; a
    lost read-modify-write update would leave the total short."""
    z = np.tile([[7.0], [-8.0], [0.0], [0.5]], (8, 1))         # 16 of 32 clamped
    y = np.zeros((32, 1))
    calls = 400

    def work():
        for _ in range(calls):
            ou_family.grad_u_at(z, y, clamp_z=True)

    before = ou_family.clamped_count
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work) for _ in range(2)]
            for fut in futures:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert ou_family.clamped_count == before + 2 * calls * 16


# ---------------------------------------------------------------------------
# reuse of the density and the anchored factor across slow nodes
# ---------------------------------------------------------------------------

def _shifted_two_dim():
    """dz = -(z - y e1) dt + sqrt(2) dB: the fast flow moves with y, while the
    observable z2 stays centered at every slow value."""
    return ModelSpec(
        d=2, l=1, p=1,
        b=lambda z, y: -(z - np.concatenate([y, 0.0 * y], axis=-1)),
        sigma=lambda z, y: np.broadcast_to(np.sqrt(2.0) * np.eye(2), z.shape[:-1] + (2, 2)),
        F=lambda z, y: 0.0 * y,
        G=lambda z, y: np.broadcast_to(np.eye(1), y.shape[:-1] + (1, 1)),
        H=lambda z, y: z[..., 1:],
        epsilon=0.1, kappa=0.25, z0=[0.0, 0.0], y0=[0.0],
    )


def _assert_family_is_per_node_solves(spec, family, y_grid, z_grid):
    for i, y in enumerate(y_grid.points().reshape(-1, y_grid.ndim)):
        pi = invariant_density(spec, y, z_grid)
        sol = solve_poisson(spec, y, spec.H, pi)
        np.testing.assert_array_equal(family.densities[i].values, pi.values)
        np.testing.assert_array_equal(family.densities[i].y, y)
        np.testing.assert_array_equal(family.u[i], sol.u.values)
        np.testing.assert_array_equal(family.grad_u[i], sol.grad_u.values)


@pytest.mark.parametrize("shifted", [False, True])
def test_family_factors_once_per_distinct_fast_flow(splu_sizes, shifted):
    from tests.test_stationary import _two_dim_linear

    spec = _shifted_two_dim() if shifted else _two_dim_linear()
    y_grid = RectGrid.from_bounds([(-1.0, 1.0, 5)])
    z_grid = RectGrid.from_bounds([(-5.0, 5.0, 31)] * 2)
    family = solve_family(spec, y_grid, z_grid)
    # one density and one generator factor in total when b and sigma ignore
    # y, one of each per node when they do not
    n_factored = 5 if shifted else 1
    assert splu_sizes.count(31 * 31) == n_factored
    assert len(splu_sizes) == 2 * n_factored
    _assert_family_is_per_node_solves(spec, family, y_grid, z_grid)


def test_centering_row_splice_matches_lil_reference():
    from tests.test_stationary import _two_dim_linear

    spec = _two_dim_linear()
    grid = RectGrid.from_bounds([(-2.0, 2.0, 9)] * 2)
    A = poisson._assemble_generator(*poisson.frozen_coefficients(spec, [0.0], grid), grid)
    weights = np.zeros(A.shape[0])
    weights[[3, 17, 40, 41, 80]] = [0.25, 1.0, 2.0, 0.5, 0.125]
    spliced = poisson._replace_row(A, 40, weights).tocsc()
    reference = A.tolil()
    reference.rows[40] = list(np.flatnonzero(weights))
    reference.data[40] = list(weights[weights > 0])
    reference = reference.tocsc()
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(spliced, attr), getattr(reference, attr))
        assert getattr(spliced, attr).dtype == getattr(reference, attr).dtype


def test_singular_generator_is_a_typed_error():
    """A frozen flow that does not move makes the grid operator exactly
    singular; the failure is a SingularOperatorError, not a bare RuntimeError."""
    still = ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: 0.0 * z,
        sigma=lambda z, y: np.zeros(z.shape[:-1] + (1, 1)),
        F=lambda z, y: 0.0 * y,
        G=lambda z, y: np.broadcast_to(np.eye(1), y.shape[:-1] + (1, 1)),
        H=lambda z, y: z,
        epsilon=0.1, kappa=0.25,
    )
    grid = RectGrid.from_bounds([(-3.0, 3.0, 31)])
    z = grid.axes[0]
    pi = GridField(grid, np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi), role="density")
    with pytest.raises(SingularOperatorError, match="singular"):
        solve_poisson(still, np.array([0.0]), np.zeros(grid.shape), pi, method="grid_solve")
