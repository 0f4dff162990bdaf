import numpy as np
import pytest

import fastslow.simulate as sim
from fastslow import (
    ModelSpec,
    get_benchmark,
    micro_substeps,
    path_generator,
    rho_T,
    simulate_block,
    simulate_frozen,
    simulate_pair,
    write_path_csv,
)
from fastslow.errors import ConfigError, SimulationBlowupError


def test_micro_substeps_counts():
    assert micro_substeps(0.01, 0.1) == 1          # cap = 0.01 exactly
    assert micro_substeps(0.01, 0.05) == 2
    assert micro_substeps(0.01, 0.001) == 100
    assert micro_substeps(0.5, 0.1, c_fast=1.0) == 5


def test_micro_substeps_rejects_bad_cap():
    with pytest.raises(ConfigError):
        micro_substeps(0.01, 0.1, c_fast=0.0)


def test_path_generator_keying():
    a = path_generator(7, 0).standard_normal(4)
    b = path_generator(7, 0).standard_normal(4)
    c = path_generator(7, 1).standard_normal(4)
    d = path_generator(8, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_simulate_pair_shapes_and_mesh(ou):
    path = simulate_pair(ou, 0.5, 0.01, 3)
    n = path.n_steps
    assert n == 50
    assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(0.5)
    assert path.xi.shape == (n + 1, 1)
    assert path.Y.shape == (n + 1, 1)
    assert path.X.shape == (n + 1, 1)
    assert path.dB.shape == (n, path.n_sub, 1)
    assert path.dW.shape == (n, 1)
    np.testing.assert_array_equal(path.xi[0], ou.z0)
    np.testing.assert_array_equal(path.Y[0], ou.y0)
    np.testing.assert_array_equal(path.X[0], [0.0])


def test_simulate_pair_deterministic(ou):
    a = simulate_pair(ou, 0.3, 0.01, 11)
    b = simulate_pair(ou, 0.3, 0.01, 11)
    c = simulate_pair(ou, 0.3, 0.01, 12)
    np.testing.assert_array_equal(a.xi, b.xi)
    np.testing.assert_array_equal(a.Y, b.Y)
    np.testing.assert_array_equal(a.X, b.X)
    assert rho_T(a, c) > 0.0


def test_recorded_increments_reconstruct_path(ou):
    """The stored noise plus left-endpoint updates replay the trajectory
    bit for bit: the sample is a complete record of the discrete dynamics."""
    path = simulate_pair(ou, 0.2, 0.01, 5)
    eps, kappa, h = path.epsilon, path.kappa, path.h
    h_sub = path.h_fast
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / np.sqrt(eps)
    z = path.xi[0].copy()
    y = path.Y[0].copy()
    x = path.X[0].copy()
    for k in range(path.n_steps):
        x_new = x + h * eps ** (-kappa) * np.asarray(ou.H(z, y), float)
        y_new = (
            y
            + h * np.asarray(ou.F(z, y), float)
            + eps ** (0.5 - kappa) * np.asarray(ou.G(z, y), float) @ path.dW[k]
        )
        for j in range(path.n_sub):
            z = (
                z
                + (h_sub * inv_eps) * np.asarray(ou.b(z, y), float)
                + inv_sqeps * (np.asarray(ou.sigma(z, y), float) @ path.dB[k, j])
            )
        y, x = y_new, x_new
        np.testing.assert_array_equal(z, path.xi[k + 1])
        np.testing.assert_array_equal(y, path.Y[k + 1])
        np.testing.assert_array_equal(x, path.X[k + 1])


def test_x_is_left_riemann_sum_of_scaled_h(ou):
    path = simulate_pair(ou, 0.2, 0.01, 5)
    gain = path.h * path.epsilon ** (-path.kappa)
    partial = np.concatenate([[0.0], np.cumsum(gain * path.xi[:-1, 0])])
    np.testing.assert_allclose(path.X[:, 0], partial, atol=1e-14)


def test_block_matches_single_paths(ou):
    block = simulate_block(ou, 0.2, 0.01, 9, [0, 1, 2], track_sup_y=True)
    for i, pid in enumerate([0, 1, 2]):
        single = simulate_pair(ou, 0.2, 0.01, 9, path_id=pid)
        np.testing.assert_array_equal(block.xi[i], single.xi[-1])
        np.testing.assert_array_equal(block.Y[i], single.Y[-1])
        np.testing.assert_array_equal(block.X[i], single.X[-1])
        assert block.sup_y[i] == pytest.approx(np.abs(single.Y).sum(axis=1).max())


def test_noise_window_size_does_not_change_draws(ou, monkeypatch):
    before = simulate_block(ou, 0.2, 0.01, 21, [0, 1])
    drawn = []

    def counting_generator(seed, path_id=0):
        gen = path_generator(seed, path_id)

        class Counting:
            def standard_normal(self, *args, **kwargs):
                out = gen.standard_normal(*args, **kwargs)
                drawn.append(out.size)
                return out

        return Counting()

    monkeypatch.setattr(sim, "path_generator", counting_generator)
    n_macro, n_sub = 20, micro_substeps(0.01, ou.epsilon)
    # 2 paths x 2 normals per macro step: limit 8 refills every step, limit 12
    # every 3 steps, which does not divide the 20 macro steps
    for limit in (8, 12):
        drawn.clear()
        monkeypatch.setattr(sim, "_BUFFER_LIMIT", limit)
        after = simulate_block(ou, 0.2, 0.01, 21, [0, 1])
        np.testing.assert_array_equal(before.xi, after.xi)
        np.testing.assert_array_equal(before.Y, after.Y)
        np.testing.assert_array_equal(before.X, after.X)
        assert sum(drawn) == 2 * n_macro * (n_sub * ou.d + ou.l)


def test_sup_statistics_match_recorded_path(ou):
    run = simulate_block(
        ou, 0.3, 0.01, 13, [0],
        record=True, track_sup_xi=True, track_sup_y=True, track_sup_x=True,
    )
    rec_xi, rec_Y, rec_X, _, _ = run.rec
    assert run.sup_x[0, 0] == pytest.approx(np.abs(rec_X).max())
    assert run.sup_y[0] == pytest.approx(np.abs(rec_Y).sum(axis=1).max())
    # sup over micro nodes dominates the macro-node sup
    assert run.sup_xi[0] >= np.linalg.norm(rec_xi, axis=1).max() - 1e-14


def test_record_requires_single_path(ou):
    with pytest.raises(ConfigError):
        simulate_block(ou, 0.1, 0.01, 1, [0, 1], record=True)


def test_blowup_raises_with_location():
    exploding = ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: z**3,
        sigma=lambda z, y: np.broadcast_to(np.eye(1), z.shape[:-1] + (1, 1)),
        F=lambda z, y: 0.0 * y,
        G=lambda z, y: np.broadcast_to(np.eye(1), y.shape[:-1] + (1, 1)),
        H=lambda z, y: 0.0 * z,
        epsilon=0.5, kappa=0.25, z0=[4.0], y0=[0.0],
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowupError) as err:
        simulate_block(exploding, 2.0, 0.5, 0, [0])
    assert err.value.time_index is not None
    assert err.value.time is not None


def test_frozen_flow_is_deterministic_and_fast_free(ou):
    a = simulate_frozen(ou, np.array([0.7]), 1.0, 0.01, 2)
    b = simulate_frozen(ou, np.array([0.7]), 1.0, 0.01, 2)
    np.testing.assert_array_equal(a.xi, b.xi)
    np.testing.assert_array_equal(a.Y, np.full_like(a.Y, 0.7))
    np.testing.assert_array_equal(a.X, np.zeros_like(a.X))


def test_frozen_flow_reaches_stationary_moments(ou):
    """The frozen linear flow has stationary mean 0 and variance 1; a batch
    of medium-length paths should land within Monte Carlo error."""
    run = sim.frozen_block(ou, np.array([0.0]), 8.0, 0.01, 31, list(range(2000)))
    z = run.z[:, 0]
    assert abs(z.mean()) < 4.0 / np.sqrt(2000)
    assert z.var() == pytest.approx(1.0, abs=0.12)


def test_rho_t_mesh_mismatch(ou):
    a = simulate_pair(ou, 0.2, 0.01, 1)
    b = simulate_pair(ou, 0.2, 0.02, 1)
    with pytest.raises(ConfigError):
        rho_T(a, b)


def test_write_path_csv_round_trip(tmp_path, ou):
    sample = simulate_pair(ou, 0.1, 0.01, 4)
    target = tmp_path / "path.csv"
    write_path_csv(target, sample)
    text = target.read_text().splitlines()
    assert text[0] == "t,xi_1,Y_1,X_1"
    data = np.loadtxt(target, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1], sample.xi[:, 0])
    np.testing.assert_array_equal(data[:, 3], sample.X[:, 0])


def test_write_path_csv_is_reproducible(tmp_path, ou):
    sample = simulate_pair(ou, 0.1, 0.01, 4)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(f1, sample)
    write_path_csv(f2, simulate_pair(ou, 0.1, 0.01, 4))
    assert f1.read_bytes() == f2.read_bytes()
