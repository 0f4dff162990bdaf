import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastslow.poisson as poisson
from fastslow import (
    GridField,
    ModelSpec,
    PoissonFamily,
    RectGrid,
    averaged_coefficients,
    get_benchmark,
    invariant_density,
    multilinear,
    solve_family,
    solve_poisson,
    validate_model,
)
from fastslow.errors import FredholmError, GridDomainError, SingularOperatorError


def test_linear_cell_problem_exact(ou, z_grid):
    sol = solve_poisson(ou, np.array([0.0]), ou.H, z_grid)
    z = z_grid.axes[0]
    assert np.max(np.abs(sol.u.values[:, 0] - z)) < 1e-6
    assert np.max(np.abs(sol.grad_u.values[:, 0, 0] - 1.0)) < 1e-6
    assert np.max(np.abs(sol.residual)) < 1e-6
    assert np.max(np.abs(sol.centering_defect)) < 1e-8


def test_quadratic_observable_cell_problem(ou, z_grid):
    """For the linear fast flow with unit stationary variance the centered
    square observable z^2 - 1 has cell solution (z^2 - 1) / 2."""
    sol = solve_poisson(ou, np.array([0.0]), lambda z, y: z**2 - 1.0, z_grid)
    z = z_grid.axes[0]
    exact = 0.5 * (z**2 - 1.0)
    assert np.max(np.abs(sol.u.values[:, 0] - exact)) < 1e-5
    assert np.max(np.abs(sol.grad_u.values[:, 0, 0] - z)) < 1e-4


def test_uncentered_rhs_rejected(ou, z_grid):
    with pytest.raises(FredholmError):
        solve_poisson(ou, np.array([0.0]), lambda z, y: z + 0.5, z_grid)


def test_grid_route_agrees_with_closed_form(ou, z_grid):
    a = solve_poisson(ou, np.array([0.0]), ou.H, z_grid, method="closed_form_1d")
    b = solve_poisson(ou, np.array([0.0]), ou.H, z_grid, method="grid_solve")
    assert np.max(np.abs(a.u.values - b.u.values)) < 5e-4
    assert np.max(np.abs(b.centering_defect)) < 1e-8


def test_two_dim_cell_problem():
    from tests.test_stationary import _two_dim_linear

    spec = _two_dim_linear()
    grid = RectGrid.from_bounds([(-5.0, 5.0, 41)] * 2)
    pi = invariant_density(spec, np.array([0.0]), grid)
    sol = solve_poisson(spec, np.array([0.0]), spec.H, grid)
    # the first fast coordinate solves its own cell problem
    exact = grid.points()[..., 0]
    core = pi.values > 1e-6  # judge accuracy where the density lives
    err = np.abs(sol.u.values[..., 0] - exact)
    assert err[core].max() < 2e-2
    assert np.max(np.abs(sol.centering_defect)) < 1e-8


def test_family_interpolates_exactly_for_linear_solution(ou_family):
    z = np.array([[0.3], [-1.7], [4.2]])
    y = np.array([[0.0], [1.1], [-2.5]])
    vals = ou_family.at(z, y)
    np.testing.assert_allclose(vals.u[:, 0], z[:, 0], atol=1e-6)
    np.testing.assert_allclose(vals.grad_u[:, 0, 0], 1.0, atol=1e-6)
    # the linear benchmark's cell solution does not depend on y
    assert np.max(np.abs(vals.du_dy)) < 1e-6
    assert np.max(np.abs(vals.d2u_dy2)) < 1e-6


def test_family_y_excursion_is_hard_error(ou_family):
    with pytest.raises(GridDomainError):
        ou_family.at(np.array([[0.0]]), np.array([[4.5]]))


def test_family_z_clamping_is_counted(ou_family):
    before = ou_family.clamped_count
    ou_family.at(np.array([[7.0], [0.0]]), np.array([[0.0], [0.0]]))
    assert ou_family.clamped_count == before + 1


def _two_dim_family():
    """A family with d = l = p = 2 over smooth tables, so that every entry of
    u, grad_u, du_dy and d2u_dy2 differs and the stacked layout is exercised."""
    y_grid = RectGrid.from_bounds([(-2.0, 2.0, 5), (-1.0, 1.0, 4)])
    z_grid = RectGrid.from_bounds([(-3.0, 3.0, 7), (-2.0, 2.0, 6)])
    nodes = RectGrid(y_grid.axes + z_grid.axes).points()          # (5, 4, 7, 6, 4)
    y1, y2, z1, z2 = np.moveaxis(nodes, -1, 0)
    u = np.stack([np.sin(z1 + y1 * y2) + z2 * y1**2, z1 * z2 * np.cos(y2 - y1)], axis=-1)
    grad = np.stack([np.cos(z1 * y2), z2 + y1, np.exp(-z2 * y2), z1 - y2**3], axis=-1)
    return PoissonFamily(y_grid, z_grid, u, grad.reshape(u.shape + (2,)))


@pytest.fixture(scope="module", params=["ou", "two_dim"])
def family(request, ou_family):
    return ou_family if request.param == "ou" else _two_dim_family()


def _axis_coordinate(ax, *, beyond):
    """A coordinate on one grid axis: a node, an edge, a point inside, or (if
    ``beyond``) a point up to one grid length outside the axis."""
    lo, hi = float(ax[0]), float(ax[-1])
    options = [
        st.sampled_from([float(v) for v in ax]),
        st.sampled_from([lo, hi]),
        st.floats(lo, hi),
    ]
    if beyond:
        options.append(st.floats(lo - (hi - lo), hi + (hi - lo)))
    return st.one_of(*options)


@st.composite
def _family_states(draw, family):
    n = draw(st.integers(1, 12))
    ys = [[draw(_axis_coordinate(ax, beyond=False)) for ax in family.y_grid.axes] for _ in range(n)]
    zs = [[draw(_axis_coordinate(ax, beyond=True)) for ax in family.z_grid.axes] for _ in range(n)]
    return np.array(zs), np.array(ys)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_family_stencil_is_bitwise_multilinear_of_each_table(family, data):
    """One stencil on the stacked table gives, bit for bit, what multilinear
    interpolation of each table alone gives at the clamped states."""
    z, y = data.draw(_family_states(family))
    lo = np.array([ax[0] for ax in family.z_grid.axes])
    hi = np.array([ax[-1] for ax in family.z_grid.axes])
    n_outside = int(np.count_nonzero(np.any((z < lo) | (z > hi), axis=-1)))
    before = family.clamped_count
    got = family.at(z, y)
    assert family.clamped_count == before + n_outside

    full = RectGrid(family.y_grid.axes + family.z_grid.axes)
    pts = np.concatenate([y, np.clip(z, lo, hi)], axis=-1)
    tables = (family.u, family.grad_u, family.du_dy, family.d2u_dy2)
    for name, table in zip(got._fields, tables):
        want = multilinear(full, np.array(table), pts)
        value = getattr(got, name)
        assert value.shape == want.shape, name
        assert value.tobytes() == want.tobytes(), name


def test_family_tables_are_views_of_one_stack(family):
    tables = (family.u, family.grad_u, family.du_dy, family.d2u_dy2)
    assert all(t.base is not None and t.base is tables[0].base for t in tables)
    assert sum(t.size for t in tables) == tables[0].base.size


def test_family_stencil_range_errors(family):
    inside_z = np.array([[0.0] * family.d])
    inside_y = np.array([[0.0] * family.l])
    outside_y = inside_y.copy()
    outside_y[0, -1] = family.y_grid.axes[-1][-1] + 1e-9
    outside_z = inside_z.copy()
    outside_z[0, 0] = family.z_grid.axes[0][0] - 1e-9
    with pytest.raises(GridDomainError, match="slow state left"):
        family.at(inside_z, outside_y)
    with pytest.raises(GridDomainError, match="slow state left"):
        family.at(outside_z, outside_y)
    family.at(outside_z, inside_y)


def test_family_clamp_count_is_exact_under_two_threads(ou_family):
    """Two threads clamp through one family at a tiny switch interval; a
    lost read-modify-write update would leave the total short."""
    z = np.tile([[7.0], [-8.0], [0.0], [0.5]], (8, 1))         # 16 of 32 clamped
    y = np.zeros((32, 1))
    calls = 400

    def work():
        for _ in range(calls):
            ou_family.at(z, y)

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
        sol = solve_poisson(spec, y, spec.H, z_grid)
        np.testing.assert_array_equal(family.densities[i].values, pi.values)
        np.testing.assert_array_equal(family.densities[i].y, y)
        # the quadrature's a is bitwise the a sampled on the user grid
        np.testing.assert_array_equal(
            family.diffusions[i], poisson.frozen_coefficients(spec, y, z_grid)[0]
        )
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
    assert (family.diffusions[-1] is family.diffusions[0]) != shifted
    # H ignores y, so the cell problem changes only with the flow
    assert family.counts == {"cell_solves": n_factored, "densities": n_factored}
    _assert_family_is_per_node_solves(spec, family, y_grid, z_grid)


_SQRT2 = float(np.sqrt(2.0))

# models and grids of the benchmark's corrector-sweep and cell-2d configs
_FAMILY_CONFIGS = {
    "corrector-sweep": {
        "model": {"inline": {
            "d": 1, "l": 1, "p": 1,
            "b": [[{"c": 1.0, "z": [1]}, {"c": -1.0, "z": [3]}]],
            "sigma": [[[{"c": _SQRT2}]]],
            "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1]}]],
            "G": [[[{"c": 1.0}]]],
            "H": [[{"c": 1.0, "z": [1]}]],
        }},
        "grids": {"z_nodes": 601, "y_nodes": 17},
    },
    "cell-2d": {
        "model": {"inline": {
            "d": 2, "l": 1, "p": 1,
            "b": [[{"c": -1.0, "z": [1, 0]}], [{"c": -1.0, "z": [0, 1]}]],
            "sigma": [[[{"c": _SQRT2}], []], [[], [{"c": _SQRT2}]]],
            "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1, 0]}]],
            "G": [[[{"c": 1.0}]]],
            "H": [[{"c": 1.0, "z": [1, 0]}, {"c": 1.0, "z": [1, 1]}]],
        }},
        "grids": {"z_box": [[-5.0, 5.0], [-5.0, 5.0]], "z_nodes": 101, "y_nodes": 17},
    },
}


def _workload(tmp_path, workload):
    """The workload config's model and grids, as the CLI parses them."""
    import yaml

    from fastslow.cli import Experiment

    cfg = dict(
        _FAMILY_CONFIGS[workload],
        scales={"epsilon": [0.1], "kappa": 0.25},
        run={"T": 1.0, "h": 0.01, "seed": 1},
        output_dir=str(tmp_path / "out"),
    )
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    exp = Experiment(str(cfg_path))
    assert exp.y_grid.n_nodes == 17
    return exp


def _counting_b_and_sigma(spec):
    """The model with b and sigma counting their calls, and the counts."""
    calls = {"b": 0, "sigma": 0}

    def counted(name, fn):
        def coefficient(z, y):
            calls[name] += 1
            return fn(z, y)

        return coefficient

    return replace(spec, b=counted("b", spec.b), sigma=counted("sigma", spec.sigma)), calls


@pytest.mark.parametrize("workload", sorted(_FAMILY_CONFIGS))
def test_family_samples_b_and_sigma_once_per_slow_node(tmp_path, workload):
    """One sampling of the fast coefficients per slow node serves the
    density, the solve and the residual."""
    exp = _workload(tmp_path, workload)
    spec, calls = _counting_b_and_sigma(exp.spec)
    solve_family(spec, exp.y_grid, exp.z_grid)
    assert calls == {"b": 17, "sigma": 17}


@pytest.mark.parametrize("workload", sorted(_FAMILY_CONFIGS))
def test_averaged_table_samples_b_and_sigma_once_per_slow_node(tmp_path, workload):
    """The averaged table's quadrature reads a = sigma sigma^T from the
    family, so the family's sampling is the only one."""
    exp = _workload(tmp_path, workload)
    spec, calls = _counting_b_and_sigma(exp.spec)
    averaged_coefficients(spec, exp.y_grid, exp.z_grid)
    assert calls == {"b": 17, "sigma": 17}


def _counting_node_solves(monkeypatch):
    """The user-grid rhs of every cell solve the test makes, in order: each
    solve starts with the Fredholm check of its rhs."""
    solves = []
    check = poisson._fredholm_check

    def counting(rhs_vals, pi):
        solves.append(rhs_vals)
        return check(rhs_vals, pi)

    monkeypatch.setattr(poisson, "_fredholm_check", counting)
    return solves


@pytest.mark.parametrize("workload", sorted(_FAMILY_CONFIGS))
def test_family_solves_one_cell_problem_when_nothing_depends_on_y(
    tmp_path, monkeypatch, workload
):
    """On the workload models b, sigma and H ignore y, so the 17 slow nodes
    share one cell problem: one solve, whose u and grad u every node copies."""
    exp = _workload(tmp_path, workload)
    solves = _counting_node_solves(monkeypatch)
    family = solve_family(exp.spec, exp.y_grid, exp.z_grid)
    assert len(solves) == 1
    assert family.counts == {"cell_solves": 1, "densities": 1}
    for i in range(1, 17):
        np.testing.assert_array_equal(family.u[i], family.u[0])
        np.testing.assert_array_equal(family.grad_u[i], family.grad_u[0])


def test_family_solves_each_distinct_right_hand_side(monkeypatch):
    """ou with the centered H = z (1 + y^2) keeps one density and factor but
    needs a solve per node, and the tables still equal per-node solves
    bitwise."""
    spec = replace(get_benchmark("ou"), H=lambda z, y: z * (1.0 + y**2))
    y_grid = RectGrid.from_bounds([(-2.0, 2.0, 17)])
    z_grid = RectGrid.from_bounds([(-6.0, 6.0, 201)])
    solves = _counting_node_solves(monkeypatch)
    family = solve_family(spec, y_grid, z_grid)
    assert len(solves) == 17
    assert family.counts == {"cell_solves": 17, "densities": 1}
    _assert_family_is_per_node_solves(spec, family, y_grid, z_grid)


def _counting_densities(monkeypatch):
    """The grid shape of every density the node step builds, in order."""
    shapes = []
    build = poisson.frozen_density

    def counting(grid, *args, **kwargs):
        shapes.append(grid.shape)
        return build(grid, *args, **kwargs)

    monkeypatch.setattr(poisson, "frozen_density", counting)
    return shapes


def test_validate_keeps_one_density_when_the_fast_flow_ignores_y(tmp_path, monkeypatch):
    """validate's centering check on the cell-2d config: the five y samples
    see the same b and a, so one finite-volume density serves them all."""
    exp = _workload(tmp_path, "cell-2d")
    shapes = _counting_densities(monkeypatch)
    report = validate_model(exp.spec, exp.z_box, exp.y_box, density_nodes=exp.z_grid.shape[0])
    assert report.ok
    assert shapes == [(101, 101)]
    assert report.counts == {"densities": 1}


def test_validate_builds_a_density_per_sample_when_the_fast_flow_moves(monkeypatch):
    """b moves with y, so each of the five y samples needs its own density,
    and the check reads what it read when it built them one by one."""
    shapes = _counting_densities(monkeypatch)
    report = validate_model(_shifted_two_dim(), [(-6.0, 6.0)] * 2, [(-2.0, 2.0)])
    assert report.ok
    assert len(shapes) == 5
    assert report.counts == {"densities": 5}
    assert report.centering_defect == 7.8236028766554e-16


@pytest.mark.parametrize("workload", sorted(_FAMILY_CONFIGS))
def test_poisson_subcommand_samples_b_and_sigma_once(tmp_path, monkeypatch, workload):
    """The poisson subcommand's one node step samples the fast coefficients
    once, on the padded mesh, for the density, the solve and the residual."""
    from click.testing import CliRunner

    from fastslow.cli import Experiment, main

    _workload(tmp_path, workload)
    calls = []
    init = Experiment.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.spec, counts = _counting_b_and_sigma(self.spec)
        calls.append(counts)

    monkeypatch.setattr(Experiment, "__init__", counting_init)
    result = CliRunner().invoke(
        main, ["poisson", str(tmp_path / "exp.yaml")], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    assert calls == [{"b": 1, "sigma": 1}]


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
    grid = RectGrid.from_bounds([(-3.0, 3.0, 31)])
    z = grid.axes[0]
    pi = GridField(grid, np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi))
    a, bvec = np.zeros(grid.shape + (1, 1)), np.zeros(grid.shape + (1,))   # b = sigma = 0
    with pytest.raises(SingularOperatorError, match="singular"):
        poisson._anchored_lu(a, bvec, pi, grid, (slice(None),))
