import numpy as np
import pytest

from fastslow import (
    CorrectorProbe,
    ModelSpec,
    PoissonFamily,
    RectGrid,
    mdp_speed,
    micro_substeps,
    negligibility_sweep,
    simulate_block,
    solve_family,
)
from fastslow.simulate import Probe, Recorder


def test_mdp_speed_arithmetic(ou):
    assert mdp_speed(ou) == pytest.approx(0.1**0.5)
    assert mdp_speed(ou.with_epsilon(0.01)) == pytest.approx(0.01**0.5)


def _corrector_run(spec, family, T, h, seed, path_ids, *extra):
    probe = CorrectorProbe(spec, family, h)
    simulate_block(spec, T, h, seed, path_ids, probes=(probe, *extra))
    return probe


def test_decomposition_identity_exact_for_linear_solution(ou, ou_family):
    """With a fast-linear cell solution the discrete decomposition telescopes
    exactly: at every node the path reassembles from the martingale and the
    three remainder terms up to floating-point noise, and u stays on its
    tabulated box."""
    clamped_before = ou_family.clamped_count
    probe = _corrector_run(ou, ou_family, 1.0, 0.01, 42, [0, 1, 2])
    assert np.all(probe.identity_residual < 1e-10)
    assert ou_family.clamped_count == clamped_before


def test_bracket_matches_flat_energy(ou, ou_family):
    """For the linear benchmark the martingale's energy density is the
    constant 2, so the discrete bracket equals 2T up to rounding."""
    probe = _corrector_run(ou, ou_family, 1.0, 0.01, 7, [0])
    assert probe.qv[0, 0, 0] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_linear_martingale_is_scaled_fast_noise(ou, ou_family, eps):
    """On the linear benchmark u(z) = z and sigma = sqrt(2), so the
    martingale is sqrt(2) times the sum of every fast increment the kernel
    drew, micro steps included (five per macro step at eps = 0.02)."""
    spec = ou.with_epsilon(eps)
    rec = Recorder()
    probe = _corrector_run(spec, ou_family, 0.5, 0.01, 23, [0, 1, 2], rec)
    want = np.sqrt(2.0) * rec.dB.sum(axis=(1, 2))
    np.testing.assert_allclose(probe.M, want, rtol=0.0, atol=1e-9)


def test_zero_observable_zeroes_every_term(ou, y_grid, z_grid):
    quiet = ModelSpec(
        d=1, l=1, p=1,
        b=ou.b, sigma=ou.sigma, F=ou.F, G=ou.G,
        H=lambda z, y: 0.0 * z,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    family = solve_family(quiet, RectGrid.from_bounds([(-4.0, 4.0, 9)]), z_grid)
    probe = _corrector_run(quiet, family, 0.5, 0.01, 3, [0, 1])
    for arr in (
        probe.M, probe.qv, probe.delta_T, probe.sup_abs_delta, probe.sup_boundary,
        probe.sup_drift, probe.sup_noise,
    ):
        assert np.max(np.abs(arr)) < 1e-12


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
    # four statistics per epsilon, epsilon-major
    assert [(c.epsilon, c.event) for c in cells] == [
        (eps, name)
        for eps in (0.1, 0.05)
        for name in ("delta", "boundary", "drift", "slow_noise")
    ]
    for c in cells:
        assert c.N == 200 and c.error == ""
        speed = mdp_speed(ou.with_epsilon(c.epsilon))
        if c.censored:
            # a zero-hit cell reports the 1/N bound, flagged
            assert c.hits == 0
            assert c.scaled_log == pytest.approx(speed * np.log(1.0 / 200))
        else:
            assert c.p_hat == pytest.approx(c.hits / 200)
        assert c.scaled_log <= 0.0
    # an unreachable threshold censors every cell
    far = negligibility_sweep(ou, [0.1], 50.0, 0.1, 0.01, 50, 9, family=ou_family)
    assert far[0].censored and far[0].hits == 0


def test_sweep_is_reproducible(ou, ou_family):
    a = negligibility_sweep(ou, [0.1], 0.25, 0.3, 0.01, 100, 5, family=ou_family)
    b = negligibility_sweep(ou, [0.1], 0.25, 0.3, 0.01, 100, 5, family=ou_family)
    assert a == b


# ---------------------------------------------------------------------------
# one family evaluation per visited state
# ---------------------------------------------------------------------------

def _narrow_family(family, lo, hi):
    """The family restricted to its z-nodes in [lo, hi], so that paths leave
    the z-grid often and the probe has to clamp."""
    z = family.z_grid.axes[0]
    win = (z >= lo) & (z <= hi)
    return PoissonFamily(family.y_grid, RectGrid((z[win],)), family.u[:, win], family.grad_u[:, win])


class _VisitedOutside(Probe):
    """Counts the visited fast states outside [lo, hi]: every left-endpoint
    micro state, and the last macro node."""

    def __init__(self, lo, hi, n_macro):
        self.lo, self.hi, self.n_macro = lo, hi, n_macro
        self.n = 0

    def _count(self, z):
        self.n += int(np.count_nonzero(np.any((z < self.lo) | (z > self.hi), axis=-1)))

    def micro(self, k, j, z, Y, dB_j):
        self._count(z)

    def node(self, k, xi, Y, X):
        if k == self.n_macro:
            self._count(xi)


@pytest.mark.parametrize("eps, n_sub", [(0.1, 1), (0.02, 5)])
def test_clamped_count_is_one_per_clamped_visited_state(ou, ou_family, eps, n_sub):
    spec = ou.with_epsilon(eps)
    family = _narrow_family(ou_family, -1.0, 1.0)
    outside = _VisitedOutside(-1.0, 1.0, 50)
    probe = CorrectorProbe(spec, family, 0.01)
    assert micro_substeps(0.01, eps) == n_sub
    simulate_block(spec, 0.5, 0.01, 4, list(range(200)), probes=(outside, probe))
    assert outside.n > 1000
    assert family.clamped_count == outside.n


@pytest.mark.parametrize("eps, n_sub", [(0.1, 1), (0.02, 5)])
def test_probe_evaluates_the_family_once_per_visited_state(ou, ou_family, monkeypatch, eps, n_sub):
    spec = ou.with_epsilon(eps)
    evaluations = []
    at = ou_family.at

    def counting(z, y, **kwargs):
        evaluations.append(z.shape[0])
        return at(z, y, **kwargs)

    monkeypatch.setattr(ou_family, "at", counting)
    probe = CorrectorProbe(spec, ou_family, 0.01)
    assert micro_substeps(0.01, eps) == n_sub
    n_macro = 30
    simulate_block(spec, n_macro * 0.01, 0.01, 8, list(range(5)), probes=(probe,))
    assert len(evaluations) == (n_macro + 1) + n_macro * (n_sub - 1)
    assert set(evaluations) == {5}
