import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastslow.simulate as sim
from fastslow import (
    CorrectorProbe,
    ModelSpec,
    micro_substeps,
    path_generator,
    simulate_block,
    simulate_pair,
    write_path_csv,
)
from fastslow.errors import ConfigError, SimulationBlowupError
from fastslow.simulate import DefectIntegral, Recorder, SupX, SupXi, SupY


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
    assert not np.array_equal(a.X, c.X)


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
    sup_y = SupY()
    block = simulate_block(ou, 0.2, 0.01, 9, [0, 1, 2], probes=(sup_y,))
    for i, pid in enumerate([0, 1, 2]):
        single = simulate_pair(ou, 0.2, 0.01, 9, path_id=pid)
        np.testing.assert_array_equal(block.xi[i], single.xi[-1])
        np.testing.assert_array_equal(block.Y[i], single.Y[-1])
        np.testing.assert_array_equal(block.X[i], single.X[-1])
        assert sup_y.value[i] == np.abs(single.Y).sum(axis=1).max()


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


def _micro_states(spec, path):
    """Every fast state of a recorded path, replayed from its stored dB with
    the kernel's update arithmetic: (N * n_sub + 1, d)."""
    eps, h_sub = path.epsilon, path.h_fast
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / np.sqrt(eps)
    states = [path.xi[0]]
    for k in range(path.n_steps):
        z, y = path.xi[k], path.Y[k]
        for j in range(path.n_sub):
            z = (
                z
                + (h_sub * inv_eps) * np.asarray(spec.b(z, y), float)
                + inv_sqeps * (np.asarray(spec.sigma(z, y), float) @ path.dB[k, j])
            )
            states.append(z)
    return np.array(states)


def test_sup_statistics_match_recorded_path(ou):
    eps = 0.02  # five micro steps per macro step, so micro nodes lie between nodes
    spec = ou.with_epsilon(eps)
    sup_xi, sup_y, sup_x, rec = SupXi(), SupY(), SupX(), Recorder()
    simulate_block(spec, 0.3, 0.01, 13, [0], probes=(sup_xi, sup_y, sup_x, rec))
    path = simulate_pair(spec, 0.3, 0.01, 13)
    assert path.n_sub == 5
    micro = _micro_states(spec, path)
    np.testing.assert_array_equal(micro[:: path.n_sub], path.xi)
    assert sup_xi.value[0] == np.linalg.norm(micro, axis=1).max()
    assert sup_y.value[0] == np.abs(rec.Y[0]).sum(axis=1).max()
    assert sup_x.value[0, 0] == np.abs(rec.X[0]).max()


def test_recorder_block_matches_single_paths(ou):
    rec = Recorder()
    simulate_block(ou, 0.2, 0.01, 9, [4, 0, 7], probes=(rec,))
    for i, pid in enumerate([4, 0, 7]):
        single = simulate_pair(ou, 0.2, 0.01, 9, path_id=pid)
        for name in ("xi", "Y", "X", "dB", "dW"):
            np.testing.assert_array_equal(getattr(rec, name)[i], getattr(single, name))


def _all_probes(spec, family, h):
    h_sub = h / micro_substeps(h, spec.epsilon)
    return {
        "sup_xi": (SupXi(), lambda p: [p.value]),
        "sup_y": (SupY(), lambda p: [p.value]),
        "sup_x": (SupX(), lambda p: [p.value]),
        "defect": (DefectIntegral(spec.H, h_sub), lambda p: [p.value, p.sup]),
        "record": (Recorder(), lambda p: [p.xi, p.Y, p.X, p.dB, p.dW]),
        "corrector": (
            CorrectorProbe(spec, family, h),
            lambda p: [p.M, p.qv, p.sup_delta, p.identity_residual, p.delta_T],
        ),
    }


@given(
    ids=st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True),
    cut=st.integers(0, 8),
    chosen=st.sets(
        st.sampled_from(["sup_xi", "sup_y", "sup_x", "defect", "record", "corrector"])
    ),
)
@settings(max_examples=20, deadline=None)
def test_probes_and_cuts_do_not_change_paths(ou_family, ids, cut, chosen):
    """Per-path results do not depend on how the block is cut or on which
    probes ride along: the uncut, probe-free run and one uncut run with every
    probe are the reference for each piece of a random cut."""
    spec = ou_family.spec.with_epsilon(0.05)
    T, h, seed = 0.05, 0.01, 3
    bare = simulate_block(spec, T, h, seed, ids)
    full = _all_probes(spec, ou_family, h)
    ref = simulate_block(spec, T, h, seed, ids, probes=[p for p, _ in full.values()])
    for name in ("xi", "Y", "X"):
        np.testing.assert_array_equal(getattr(ref, name), getattr(bare, name))
    for rows in (slice(0, cut), slice(cut, None)):
        piece = ids[rows]
        if not piece:
            continue
        probes = {k: v for k, v in _all_probes(spec, ou_family, h).items() if k in chosen}
        run = simulate_block(spec, T, h, seed, piece, probes=[p for p, _ in probes.values()])
        for name in ("xi", "Y", "X"):
            np.testing.assert_array_equal(getattr(run, name), getattr(bare, name)[rows])
        for key, (probe, results) in probes.items():
            ref_probe, _ = full[key]
            for got, want in zip(results(probe), results(ref_probe)):
                np.testing.assert_array_equal(got, want[rows])


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


def test_frozen_flow_is_deterministic(ou):
    a = sim.frozen_block(ou, np.array([0.7]), 1.0, 0.01, 2, [0, 1], keep_states=True)
    b = sim.frozen_block(ou, np.array([0.7]), 1.0, 0.01, 2, [0, 1], keep_states=True)
    c = sim.frozen_block(ou, np.array([0.7]), 1.0, 0.01, 3, [0, 1], keep_states=True)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.z, a.states[-1])
    assert not np.array_equal(a.states, c.states)


def test_frozen_flow_reaches_stationary_moments(ou):
    """The frozen linear flow has stationary mean 0 and variance 1; a batch
    of medium-length paths should land within Monte Carlo error."""
    run = sim.frozen_block(ou, np.array([0.0]), 8.0, 0.01, 31, list(range(2000)))
    z = run.z[:, 0]
    assert abs(z.mean()) < 4.0 / np.sqrt(2000)
    assert z.var() == pytest.approx(1.0, abs=0.12)


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
