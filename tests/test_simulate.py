import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import fastslow.simulate as sim
from fastslow import (
    CorrectorProbe,
    ModelSpec,
    micro_substeps,
    path_generator,
    simulate_block,
)
from fastslow.cli import _build_inline_model
from fastslow.errors import ConfigError, SimulationBlowupError
from fastslow.simulate import DefectIntegral, Recorder, SupX, SupXi, SupY
from fastslow.stationary import frozen_model


def test_micro_substeps_counts():
    assert micro_substeps(0.01, 0.1) == 1          # cap = 0.01 exactly
    assert micro_substeps(0.01, 0.05) == 2
    assert micro_substeps(0.01, 0.001) == 100
    assert micro_substeps(0.5, 0.1, c_fast=1.0) == 5


def test_micro_substeps_rejects_bad_cap():
    with pytest.raises(ConfigError):
        micro_substeps(0.01, 0.1, c_fast=0.0)


def test_path_generator_keying():
    """One generator per (seed, lane block): the same key gives the same
    stream, another block or another seed a different one."""
    a = path_generator(7, 0).standard_normal(4)
    b = path_generator(7, 0).standard_normal(4)
    c = path_generator(7, 1).standard_normal(4)
    d = path_generator(8, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    np.testing.assert_array_equal(path_generator(7).standard_normal(4), a)


@pytest.mark.parametrize("seed, block", [(0, 0), (7, 3), (2**40 + 5, 11)])
def test_path_generator_is_the_spawned_sfc64_child(seed, block):
    """Block b under seed s is SFC64 on the b-th child of SeedSequence(s)."""
    child = np.random.SeedSequence(seed).spawn(block + 1)[block]
    want = np.random.Generator(np.random.SFC64(child)).standard_normal(8)
    np.testing.assert_array_equal(path_generator(seed, block).standard_normal(8), want)


def test_path_generator_keeps_apart_what_an_entropy_list_merges():
    """SeedSequence([2**32, 0]) and SeedSequence([0, 1]) hash to the same
    state; the spawn key keeps (2**32, 0) and (0, 1) apart."""
    a = path_generator(2**32, 0).standard_normal(4)
    b = path_generator(0, 1).standard_normal(4)
    assert not np.array_equal(a, b)


def test_path_generator_takes_ids_mod_2_to_the_64():
    np.testing.assert_array_equal(
        path_generator(-1, 0).standard_normal(4),
        path_generator(2**64 - 1, 0).standard_normal(4),
    )


def _ou_discrete_var_x(eps, h, kappa, T):
    """Exact Var(X_T) of the kernel's scheme on ou (b = -z, sigma = sqrt2,
    H = z, xi_0 = 0): the covariance of (xi, X) through n_sub micro steps
    z <- (1 - h_sub/eps) z + sqrt(2 h_sub/eps) N(0, 1) per macro step, with
    X += h eps^-kappa xi at the macro-left state."""
    n_macro, n_sub = int(round(T / h)), micro_substeps(h, eps)
    h_sub = h / n_sub
    add_x = np.array([[1.0, 0.0], [h * eps**-kappa, 1.0]])
    micro = np.array([[1.0 - h_sub / eps, 0.0], [0.0, 1.0]])
    noise = np.diag([2.0 * h_sub / eps, 0.0])
    C = np.zeros((2, 2))
    for _ in range(n_macro):
        C = add_x @ C @ add_x.T
        for _ in range(n_sub):
            C = micro @ C @ micro.T + noise
    return C[1, 1]


def test_kernel_variance_of_x_meets_the_exact_discrete_oracle(ou):
    """The sample variance of X_T over 16 384 paths lies in the two-sided
    99.9% chi-square band around the scheme's exact variance (0.19750 at
    eps = 1e-2, h = 2e-3, n_sub = 2)."""
    spec = ou.with_epsilon(1e-2)
    T, h, n = 1.0, 2e-3, 16_384
    var = _ou_discrete_var_x(spec.epsilon, h, spec.kappa, T)
    assert var == pytest.approx(0.19750, abs=5e-6)
    run = simulate_block(spec, T, h, 3, np.arange(n))
    sample = np.var(run.X[:, 0], ddof=1)
    lo, hi = var * chi2.ppf([0.0005, 0.9995], n - 1) / (n - 1)
    assert lo <= sample <= hi, (lo, sample, hi)


def test_lane_draws_follow_the_block_layout(ou):
    """Path i's raw increments are lane i % LANES of the (n_macro, chunk,
    LANES) stream of block i // LANES: the n_sub * d fast rows, then the l
    slow rows, of each macro step."""
    spec = ou.with_epsilon(0.005)
    T, h, seed, ids = 0.05, 0.01, 23, [3, sim.LANES + 1, 3 * sim.LANES - 1]
    rec = Recorder()
    run = simulate_block(spec, T, h, seed, ids, probes=(rec,))
    n_macro, n_sub, d = 5, run.n_sub, spec.d
    chunk = n_sub * d + spec.l
    for i, pid in enumerate(ids):
        stream = path_generator(seed, pid // sim.LANES).standard_normal(
            (n_macro, chunk, sim.LANES)
        )[:, :, pid % sim.LANES]
        np.testing.assert_array_equal(
            rec.dB[i], stream[:, : n_sub * d].reshape(n_macro, n_sub, d) * np.sqrt(h / n_sub)
        )
        np.testing.assert_array_equal(rec.dW[i], stream[:, n_sub * d :] * np.sqrt(h))


def test_recorded_path_shapes_and_mesh(ou, record_path):
    path = record_path(ou, 0.5, 0.01, 3)
    n = path.times.size - 1
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


def test_recorded_path_deterministic(ou, record_path):
    a = record_path(ou, 0.3, 0.01, 11)
    b = record_path(ou, 0.3, 0.01, 11)
    c = record_path(ou, 0.3, 0.01, 12)
    np.testing.assert_array_equal(a.xi, b.xi)
    np.testing.assert_array_equal(a.Y, b.Y)
    np.testing.assert_array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_recorded_increments_reconstruct_path(ou, record_path):
    """The stored noise plus left-endpoint updates replay the trajectory
    bit for bit: the record is complete for the discrete dynamics."""
    eps, kappa, h = ou.epsilon, ou.kappa, 0.01
    path = record_path(ou, 0.2, h, 5)
    h_sub = h / path.n_sub
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / np.sqrt(eps)
    z = path.xi[0].copy()
    y = path.Y[0].copy()
    x = path.X[0].copy()
    for k in range(len(path.dB)):
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


def test_x_is_left_riemann_sum_of_scaled_h(ou, record_path):
    path = record_path(ou, 0.2, 0.01, 5)
    gain = 0.01 * ou.epsilon ** (-ou.kappa)
    partial = np.concatenate([[0.0], np.cumsum(gain * path.xi[:-1, 0])])
    np.testing.assert_allclose(path.X[:, 0], partial, atol=1e-14)


def test_block_matches_single_paths(ou, record_path):
    sup_y = SupY()
    block = simulate_block(ou, 0.2, 0.01, 9, [0, 1, 2], probes=(sup_y,))
    for i, pid in enumerate([0, 1, 2]):
        single = record_path(ou, 0.2, 0.01, 9, path_id=pid)
        np.testing.assert_array_equal(block.xi[i], single.xi[-1])
        np.testing.assert_array_equal(block.Y[i], single.Y[-1])
        np.testing.assert_array_equal(block.X[i], single.X[-1])
        assert sup_y.value[i] == np.abs(single.Y).sum(axis=1).max()


def test_block_lanes_match_single_lane_runs(ou_family):
    """Lane i of a block is the path keyed by its id alone, bit for bit, in
    the terminal states and in the corrector statistics, whichever blocks
    the other lanes come from."""
    spec = ou_family.spec.with_epsilon(0.05)
    T, h, seed, ids = 0.1, 0.01, 3, [0, 5, sim.LANES + 2, 0]

    def run(path_ids):
        probe = CorrectorProbe(spec, ou_family, h)
        out = simulate_block(spec, T, h, seed, path_ids, probes=(probe,))
        return [out.xi, out.Y, out.X, probe.M, probe.qv, probe.identity_residual]

    block = run(ids)
    for i, pid in enumerate(ids):
        for got, want in zip(block, run([pid])):
            np.testing.assert_array_equal(got[i], want[0])


def test_kernel_path_does_not_depend_on_batch_or_n(ou):
    """Path i is the same at N and 2N, in a batch that does not start on a
    block boundary and in a partial last block."""
    spec = ou.with_epsilon(0.05)
    T, h, seed, N = 0.05, 0.01, 29, 700    # 700 = 2 * 256 + 188

    def states(ids):
        run = simulate_block(spec, T, h, seed, list(ids))
        return np.concatenate([run.xi, run.Y, run.X], axis=1)

    full = states(range(2 * N))
    np.testing.assert_array_equal(states(range(N)), full[:N])
    np.testing.assert_array_equal(states(range(N, 2 * N)), full[N:])
    np.testing.assert_array_equal(states(range(N - 50, N + 50)), full[N - 50 : N + 50])
    np.testing.assert_array_equal(states([N + 1, 2, N - 1]), full[[N + 1, 2, N - 1]])


def test_noise_window_size_does_not_change_draws(ou, monkeypatch):
    """Chunked refills reproduce the unchunked block streams, and every block
    draws all its lanes for every macro step, whatever the window."""
    ids = [0, 1, sim.LANES + 3]     # two blocks
    n_macro, n_sub = 20, micro_substeps(0.01, ou.epsilon)
    chunk = n_sub * ou.d + ou.l
    before = simulate_block(ou, 0.2, 0.01, 21, ids)
    drawn = []

    def counting_generator(seed, block=0):
        gen = path_generator(seed, block)

        class Counting:
            def standard_normal(self, *args, **kwargs):
                out = gen.standard_normal(*args, **kwargs)
                drawn.append(out.size)
                return out

        return Counting()

    monkeypatch.setattr(sim, "path_generator", counting_generator)
    step = 2 * sim.LANES * chunk      # doubles per macro step of both blocks
    # windows of 3 and 7 macro steps, neither of which divides the 20 steps
    for window in (3, 7):
        drawn.clear()
        monkeypatch.setattr(sim, "_BUFFER_LIMIT", window * step + step - 1)
        after = simulate_block(ou, 0.2, 0.01, 21, ids)
        np.testing.assert_array_equal(before.xi, after.xi)
        np.testing.assert_array_equal(before.Y, after.Y)
        np.testing.assert_array_equal(before.X, after.X)
        assert len(drawn) == 2 * -(-n_macro // window)
        assert sum(drawn) == 2 * sim.LANES * n_macro * chunk


def _coordinate(k):
    """Power list of the k-th of three axes."""
    return [1 if i == k else 0 for i in range(3)]


# a d = l = p = 3 inline model whose sigma and G are dense, non-symmetric and
# state dependent, so every einsum in the kernel sums three non-zero terms
_S = [[1.0, 0.3, -0.2], [0.1, 0.9, 0.4], [-0.5, 0.2, 1.1]]
_G = [[0.7, -0.4, 0.2], [0.3, 1.2, -0.1], [0.05, 0.6, 0.8]]
DENSE_3D_INLINE = {
    "d": 3,
    "l": 3,
    "p": 3,
    "b": [[{"c": -1.0, "z": _coordinate(i)}, {"c": 0.3, "z": _coordinate((i + 1) % 3)}]
          for i in range(3)],
    "sigma": [[[{"c": _S[i][j]}, {"c": 0.05, "z": _coordinate(j)}] for j in range(3)]
              for i in range(3)],
    "F": [[{"c": -1.0, "y": _coordinate(i)}, {"c": 1.0, "z": _coordinate(i)}]
          for i in range(3)],
    "G": [[[{"c": _G[i][j]}, {"c": 0.05, "y": _coordinate(i)}] for j in range(3)]
          for i in range(3)],
    "H": [[{"c": 1.0, "z": _coordinate(i), "y": _coordinate((i + 1) % 3)}]
          for i in range(3)],
}


def _path_major_kernel(spec, T, h, seed, ids, probes):
    """Reference: the kernel stepped on path-major (B, chunk) rows, each path's
    lane read off its block's (n_macro, chunk, LANES) stream, with the fast
    increments cut as ``rows[:, :n_sub * d].reshape(B, n_sub, d)``."""
    d, l, eps, kappa = spec.d, spec.l, spec.epsilon, spec.kappa
    n_macro, n_sub = int(round(T / h)), micro_substeps(h, eps)
    chunk, h_sub, B = n_sub * d + l, h / n_sub, len(ids)
    streams = {
        b: path_generator(seed, b).standard_normal((n_macro, chunk, sim.LANES))
        for b in {pid // sim.LANES for pid in ids}
    }
    paths = np.stack([streams[pid // sim.LANES][:, :, pid % sim.LANES] for pid in ids])
    sq_sub, sq_h = np.sqrt(h_sub), np.sqrt(h)
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / np.sqrt(eps)
    x_gain, y_gain = h * eps ** (-kappa), eps ** (0.5 - kappa)
    xi = np.broadcast_to(spec.z0, (B, d)).copy()
    Y = np.broadcast_to(spec.y0, (B, l)).copy()
    X = np.zeros((B, spec.p))
    for probe in probes:
        probe.start(xi, Y, X)
    for k in range(n_macro):
        rows = np.ascontiguousarray(paths[:, k])
        dB = rows[:, : n_sub * d].reshape(B, n_sub, d) * sq_sub
        dW = rows[:, n_sub * d :] * sq_h
        X_new = X + x_gain * np.asarray(spec.H(xi, Y), float)
        Y_new = Y + h * np.asarray(spec.F(xi, Y), float) + y_gain * np.einsum(
            "...ij,...j->...i", spec.G(xi, Y), dW
        )
        for probe in probes:
            probe.macro(k, xi, Y, dB, dW)
        z = xi
        for j in range(n_sub):
            for probe in probes:
                probe.micro(k, j, z, Y, dB[:, j])
            z = z + (h_sub * inv_eps) * np.asarray(spec.b(z, Y), float) + inv_sqeps * np.einsum(
                "...ij,...j->...i", spec.sigma(z, Y), dB[:, j]
            )
        xi, Y, X = z, Y_new, X_new
        for probe in probes:
            probe.node(k + 1, xi, Y, X)
    return xi, Y, X


_LAYOUT_IDS = {"consecutive": list(range(600)), "gathered": [3, 900, 17, 511]}


@pytest.mark.parametrize("ids", _LAYOUT_IDS.values(), ids=_LAYOUT_IDS.keys())
@pytest.mark.parametrize("eps, n_sub", [(0.1, 1), (0.025, 4)])
def test_row_layout_is_bitwise_the_path_major_kernel(ids, eps, n_sub):
    """The kernel scales component-major (chunk, B) noise rows, and hands on
    fast increments whose micro slices are C-contiguous: it gives the very
    bits of the kernel stepped on path-major rows, at d = l = p = 3 where each
    einsum's summation order follows its operands' layout."""
    spec = _build_inline_model(DENSE_3D_INLINE, eps, 0.25, 1.0)
    T, h, seed = 0.05, 0.01, 17
    assert micro_substeps(h, eps) == n_sub
    rec, sup = Recorder(), SupXi()
    run = simulate_block(spec, T, h, seed, ids, probes=(rec, sup))
    ref_rec, ref_sup = Recorder(), SupXi()
    want = _path_major_kernel(spec, T, h, seed, ids, (ref_rec, ref_sup))
    for got, ref in zip((run.xi, run.Y, run.X), want):
        np.testing.assert_array_equal(got, ref)
    for name in ("xi", "Y", "X", "dB", "dW"):
        np.testing.assert_array_equal(getattr(rec, name), getattr(ref_rec, name))
    np.testing.assert_array_equal(sup.value, ref_sup.value)


@pytest.mark.parametrize("ids", _LAYOUT_IDS.values(), ids=_LAYOUT_IDS.keys())
@pytest.mark.parametrize("eps", [0.1, 0.025])
def test_probes_receive_c_contiguous_increments(ids, eps):
    """Every micro increment dB_j (B, d) and every dW (B, l) handed to a probe
    is C-contiguous, and dB_j holds the numbers of dB[:, j]."""
    spec = _build_inline_model(DENSE_3D_INLINE, eps, 0.25, 1.0)
    seen = []

    class Layout(sim.Probe):
        def macro(self, k, xi, Y, dB, dW):
            self.dB = dB
            assert dB.shape == (len(ids), micro_substeps(0.01, eps), 3)
            seen.append(dW.flags.c_contiguous and dW.shape == (len(ids), 3))

        def micro(self, k, j, z, Y, dB_j):
            seen.append(dB_j.flags.c_contiguous and dB_j.shape == (len(ids), 3))
            np.testing.assert_array_equal(dB_j, self.dB[:, j])

    simulate_block(spec, 0.03, 0.01, 5, ids, probes=(Layout(),))
    assert len(seen) == 3 * (1 + micro_substeps(0.01, eps)) and all(seen)


def _micro_states(spec, h, path):
    """Every fast state of a path recorded at macro step h, replayed from its
    stored dB with the kernel's update arithmetic: (N * n_sub + 1, d)."""
    eps, h_sub = spec.epsilon, h / path.n_sub
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / np.sqrt(eps)
    states = [path.xi[0]]
    for k in range(len(path.dB)):
        z, y = path.xi[k], path.Y[k]
        for j in range(path.n_sub):
            z = (
                z
                + (h_sub * inv_eps) * np.asarray(spec.b(z, y), float)
                + inv_sqeps * (np.asarray(spec.sigma(z, y), float) @ path.dB[k, j])
            )
            states.append(z)
    return np.array(states)


def test_sup_statistics_match_recorded_path(ou, record_path):
    eps = 0.02  # five micro steps per macro step, so micro nodes lie between nodes
    spec = ou.with_epsilon(eps)
    sup_xi, sup_y, sup_x, rec = SupXi(), SupY(), SupX(), Recorder()
    simulate_block(spec, 0.3, 0.01, 13, [0], probes=(sup_xi, sup_y, sup_x, rec))
    path = record_path(spec, 0.3, 0.01, 13)
    assert path.n_sub == 5
    micro = _micro_states(spec, 0.01, path)
    np.testing.assert_array_equal(micro[:: path.n_sub], path.xi)
    assert sup_xi.value[0] == np.linalg.norm(micro, axis=1).max()
    assert sup_y.value[0] == np.abs(rec.Y[0]).sum(axis=1).max()
    assert sup_x.value[0, 0] == np.abs(rec.X[0]).max()


def test_defect_integral_evaluates_slow_once_per_macro_step(ou, record_path):
    """Y is frozen through a macro step, so slow(Y) is evaluated once per
    macro step, and the integral is the left-endpoint sum of
    h_sub * (fast - slow) over every micro state of the recorded path."""
    spec, h, n_macro = ou.with_epsilon(0.02), 0.01, 30
    shapes = []

    def slow(y):
        shapes.append(y.shape)
        return np.sin(y)

    probe = DefectIntegral(spec.H, slow, h)
    simulate_block(spec, n_macro * h, h, 13, [0, 1, 2], probes=(probe,))
    assert shapes == [(3, 1)] * n_macro

    path = record_path(spec, n_macro * h, h, 13, path_id=1)
    n_sub = path.n_sub
    assert n_sub == 5
    z = _micro_states(spec, h, path)[:-1].reshape(n_macro, n_sub, spec.d)
    want = 0.0
    for k in range(n_macro):
        for j in range(n_sub):
            fast = np.asarray(spec.H(z[k, j], path.Y[k]), float)
            want = want + (h / n_sub) * (fast - np.sin(path.Y[k]))
    np.testing.assert_array_equal(probe.value[1], want)


def test_recorder_block_matches_single_paths(ou, record_path):
    rec = Recorder()
    simulate_block(ou, 0.2, 0.01, 9, [4, 0, 7], probes=(rec,))
    for i, pid in enumerate([4, 0, 7]):
        single = record_path(ou, 0.2, 0.01, 9, path_id=pid)
        for name in ("xi", "Y", "X", "dB", "dW"):
            np.testing.assert_array_equal(getattr(rec, name)[i], getattr(single, name))


def _all_probes(spec, family, h):
    return {
        "sup_xi": (SupXi(), lambda p: [p.value]),
        "sup_y": (SupY(), lambda p: [p.value]),
        "sup_x": (SupX(), lambda p: [p.value]),
        "defect": (DefectIntegral(spec.H, np.sin, h), lambda p: [p.value, p.sup]),
        "record": (Recorder(), lambda p: [p.xi, p.Y, p.X, p.dB, p.dW]),
        "corrector": (
            CorrectorProbe(spec, family, h),
            lambda p: [p.M, p.qv, p.sup_abs_delta, p.identity_residual, p.delta_T],
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


@pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-5])
def test_frozen_model_holds_the_slow_state(ou, record_path, eps):
    """On the time-changed frozen model the kernel takes one micro step per
    macro step, Y stays exactly at the frozen value and X stays exactly 0."""
    y = np.array([0.7])
    path = record_path(frozen_model(ou.with_epsilon(eps), y), eps * 2.0, eps * 0.01, 17)
    assert path.n_sub == 1
    assert path.times.size - 1 == 200
    assert np.all(path.Y == y)
    assert np.all(path.X == 0.0)
    assert np.all(np.isfinite(path.xi))


def test_frozen_flow_is_deterministic(run_subcommand):
    """The empirical density is a pure function of the config: the same seed
    gives the same density.csv bytes, and another seed gives other bytes."""
    density = {"method": "empirical", "T": 5.0, "burn_in": 1.0}
    a, b, c = (
        (run_subcommand("density", T=0.1, seed=seed, out=out, density=density)
         / "density.csv").read_bytes()
        for seed, out in ((2, "a"), (2, "b"), (3, "c"))
    )
    assert a == b
    assert a != c


def test_frozen_flow_reaches_stationary_moments(ou):
    """The frozen linear flow on the kernel is z <- (1 - h) z + sqrt(2h) N
    from z = 0, whose variance after n steps is exactly
    v_n = 2h (1 - (1 - h)^(2n)) / (1 - (1 - h)^2).  The sample variance of
    2000 lanes after 800 steps falls in the two-sided chi-square band around
    v_n at level 1e-3, and the mean within Monte Carlo error of 0."""
    h, n, lanes, eps = 0.01, 800, 2000, ou.epsilon
    run = simulate_block(frozen_model(ou, [0.0]), eps * n * h, eps * h, 31, list(range(lanes)))
    z = run.xi[:, 0]
    v = 2.0 * h * (1.0 - (1.0 - h) ** (2 * n)) / (1.0 - (1.0 - h) ** 2)
    assert v == pytest.approx(1.00503, abs=1e-5)
    assert abs(z.mean()) < 4.0 / np.sqrt(lanes)
    lo, hi = chi2.ppf([0.5e-3, 1.0 - 0.5e-3], lanes - 1) * v / (lanes - 1)
    assert lo < z.var(ddof=1) < hi


def test_write_path_csv_round_trip(run_subcommand, ou, record_path):
    """The simulate subcommand's path table round-trips the recorded path."""
    sample = record_path(ou, 0.1, 0.01, 4)
    target = run_subcommand("simulate", T=0.1, seed=4) / "path.csv"
    text = target.read_text().splitlines()
    assert text[0] == "t,xi_1,Y_1,X_1"
    data = np.loadtxt(target, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1], sample.xi[:, 0])
    np.testing.assert_array_equal(data[:, 3], sample.X[:, 0])
