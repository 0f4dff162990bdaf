import dataclasses

import numpy as np
import pytest

from fastslow import (
    CorrectorProbe,
    ModelSpec,
    RectGrid,
    corrector_path,
    mdp_speed,
    negligibility_sweep,
    simulate_block,
    simulate_pair,
    solve_family,
)
from fastslow.errors import ConfigError


def test_mdp_speed_arithmetic(ou):
    assert mdp_speed(ou) == pytest.approx(0.1**0.5)
    assert mdp_speed(ou.with_epsilon(0.01)) == pytest.approx(0.01**0.5)


def test_decomposition_identity_exact_for_linear_solution(ou, ou_family):
    """With a fast-linear cell solution the discrete decomposition telescopes
    exactly: the residual is pure floating-point noise."""
    sample = simulate_pair(ou, 1.0, 0.01, 42)
    rep = corrector_path(sample, ou_family)
    assert rep.identity_residual < 1e-10
    assert rep.n_clamped == 0
    np.testing.assert_array_equal(rep.xhat[0], 0.0)
    np.testing.assert_array_equal(rep.delta[0], 0.0)
    # the decomposition reassembles the path at every node
    recon = rep.xhat + rep.boundary + rep.drift + rep.slow_noise
    assert np.max(np.abs(sample.X - recon)) < 1e-10


def test_bracket_matches_flat_energy(ou, ou_family):
    """For the linear benchmark the martingale's energy density is the
    constant 2, so the discrete bracket equals 2T up to rounding."""
    sample = simulate_pair(ou, 1.0, 0.01, 7)
    rep = corrector_path(sample, ou_family)
    assert rep.qv[0, 0] == pytest.approx(2.0, rel=1e-6)


def test_zero_observable_zeroes_every_term(ou, y_grid, z_grid):
    quiet = ModelSpec(
        d=1, l=1, p=1,
        b=ou.b, sigma=ou.sigma, F=ou.F, G=ou.G,
        H=lambda z, y: 0.0 * z,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    family = solve_family(quiet, RectGrid.from_bounds([(-4.0, 4.0, 9)]), z_grid)
    sample = simulate_pair(quiet, 0.5, 0.01, 3)
    rep = corrector_path(sample, family)
    for arr in (rep.xhat, rep.delta, rep.boundary, rep.drift, rep.slow_noise):
        assert np.max(np.abs(arr)) < 1e-12
    assert rep.qv[0, 0] < 1e-12


def test_replay_requires_recorded_increments(ou, ou_family):
    sample = dataclasses.replace(simulate_pair(ou, 0.2, 0.01, 1), dB=None)
    with pytest.raises(ConfigError):
        corrector_path(sample, ou_family)


def test_probe_agrees_with_replay(ou, ou_family):
    sample = simulate_pair(ou, 0.5, 0.01, 23)
    rep = corrector_path(sample, ou_family)
    probe = CorrectorProbe(ou, ou_family, 0.01)
    simulate_block(ou, 0.5, 0.01, 23, [0], probes=(probe,))
    assert probe.sup_delta[0] == pytest.approx(np.max(np.abs(rep.delta)), abs=1e-12)
    assert probe.delta_T[0, 0] == pytest.approx(rep.delta[-1, 0], abs=1e-12)
    assert probe.qv[0, 0, 0] == pytest.approx(rep.qv[0, 0], abs=1e-10)
    assert probe.identity_residual[0] < 1e-10


def test_martingale_is_centered_over_paths(ou, ou_family):
    """The reconstructed martingale should average to zero across paths;
    a systematic bias would poison every deviation estimate downstream."""
    probe = CorrectorProbe(ou, ou_family, 0.01)
    simulate_block(ou, 1.0, 0.01, 77, list(range(400)), probes=(probe,))
    m = probe.M[:, 0]
    se = m.std(ddof=1) / np.sqrt(m.size)
    assert abs(m.mean()) < 4.0 * se
    # Var M_T = 2T for the flat energy model
    assert m.var(ddof=1) == pytest.approx(2.0, rel=0.25)


def test_sweep_cells_and_censoring(ou, ou_family):
    cells = negligibility_sweep(
        ou, [0.1, 0.05], 0.25, 0.5, 0.01, 200, 9, family=ou_family
    )
    assert [c.epsilon for c in cells] == [0.1, 0.05]
    for c in cells:
        assert c.n_paths == 200
        speed = mdp_speed(ou.with_epsilon(c.epsilon))
        for stat in (c.delta, c.boundary, c.drift, c.slow_noise):
            if stat.censored:
                # a zero-hit cell reports the 1/N bound, flagged
                assert stat.n_hits == 0
                assert stat.scaled_log == pytest.approx(speed * np.log(1.0 / 200))
            else:
                assert stat.p_hat == pytest.approx(stat.n_hits / 200)
            assert stat.scaled_log <= 0.0
        assert c.max_sup >= c.median_sup >= 0.0
    # an unreachable threshold censors every cell
    far = negligibility_sweep(ou, [0.1], 50.0, 0.1, 0.01, 50, 9, family=ou_family)
    assert far[0].delta.censored and far[0].delta.n_hits == 0


def test_sweep_is_reproducible(ou, ou_family):
    a = negligibility_sweep(ou, [0.1], 0.25, 0.3, 0.01, 100, 5, family=ou_family)
    b = negligibility_sweep(ou, [0.1], 0.25, 0.3, 0.01, 100, 5, family=ou_family)
    assert a[0].delta.n_hits == b[0].delta.n_hits
    assert a[0].median_sup == b[0].median_sup
