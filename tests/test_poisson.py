import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fastslow import (
    ModelSpec,
    RectGrid,
    build_truncated_fluctuation,
    growth_probe,
    invariant_density,
    solve_family,
    solve_poisson,
)
from fastslow.errors import FredholmError, GridDomainError


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


def test_truncation_split_reassembles(ou, ou_pi):
    split = build_truncated_fluctuation(lambda z, y: z, ou_pi, 2.0)
    core, remainder = split
    grid = ou_pi.grid
    total = core.values + remainder.values
    np.testing.assert_allclose(total[:, 0], grid.axes[0], atol=1e-12)
    # core is exactly centered; remainder lives outside the cutoff ball
    assert abs(grid.integrate(core.values[:, 0] * ou_pi.values)) < 1e-12
    inside = np.abs(grid.axes[0]) <= 2.0
    np.testing.assert_allclose(remainder.values[inside, 0], 0.0, atol=1e-12)


def test_truncation_split_guards(ou, ou_pi):
    with pytest.raises(FredholmError):
        build_truncated_fluctuation(lambda z, y: z + 1.0, ou_pi, 2.0)
    with pytest.raises(GridDomainError):
        build_truncated_fluctuation(lambda z, y: z, ou_pi, 6.5)


def test_growth_probe_flat_in_y(ou, z_grid):
    ys = np.array([-1.0, 0.0, 1.0])
    sols = []
    for y in ys:
        pi = invariant_density(ou, np.array([y]), z_grid)
        sols.append(solve_poisson(ou, np.array([y]), ou.H, pi))
    report = growth_probe(sols, ys)
    assert report.sup_dy_u < 1e-8
    assert report.fitted_degree == 0
    assert report.sup_u.shape == (3,)


def test_growth_probe_sees_linear_slow_dependence(ou, z_grid):
    """With observable (1 + y^2) z the cell solution is (1 + y^2) z, whose
    slow derivative 2 y z grows linearly in the fast variable."""
    spec = ModelSpec(
        d=1, l=1, p=1,
        b=ou.b, sigma=ou.sigma, F=ou.F, G=ou.G,
        H=lambda z, y: (1.0 + y**2) * z,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    ys = np.array([0.5, 1.0, 1.5, 2.0])
    sols = []
    for y in ys:
        pi = invariant_density(spec, np.array([y]), z_grid)
        sols.append(solve_poisson(spec, np.array([y]), spec.H, pi))
    report = growth_probe(sols, ys)
    assert report.sup_dy_u > 1.0
    assert report.fitted_degree == 1


def test_growth_probe_needs_three_values(ou, ou_pi):
    sol = solve_poisson(ou, np.array([0.0]), ou.H, ou_pi)
    with pytest.raises(GridDomainError):
        growth_probe([sol, sol], np.array([0.0, 1.0]))


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
