import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import (
    Event,
    ModelSpec,
    TailEstimate,
    boundedness_Y,
    brownian_sampler,
    count_trend_violations,
    exponential_inequality_grid,
    gaussian_surrogate_sweep,
    homogenization_defect,
    negligibility_sweep,
    negligibility_xi,
    stopped_brownian_sampler,
    tail_probability,
    wilson_interval,
)
from fastslow import mcengine
from fastslow.errors import ConfigError
from fastslow.mcengine import DEFAULT_BATCH
from fastslow.simulate import _NoiseSource


@given(hits=st.integers(0, 500), n=st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_wilson_interval_brackets_the_frequency(hits, n):
    hits = min(hits, n)
    lo, hi = wilson_interval(hits, n)
    p = hits / n
    assert 0.0 <= lo <= p <= hi <= 1.0
    if 0 < hits < n:
        assert lo < p < hi


def test_wilson_interval_shrinks_with_n():
    lo1, hi1 = wilson_interval(10, 100)
    lo2, hi2 = wilson_interval(100, 1000)
    assert (hi2 - lo2) < (hi1 - lo1)
    with pytest.raises(ConfigError):
        wilson_interval(0, 0)


def test_event_vocabulary():
    Event("terminal_x", 1.0, 1.0)
    Event("sup_x", 1.0, 1.0)
    for name in ("running_max", "sup_delta"):
        with pytest.raises(ConfigError, match="terminal_x.*sup_x"):
            Event(name, 1.0, 1.0)


def test_tail_probability_cells(ou):
    event = Event("terminal_x", 0.5, 0.5)
    cells = tail_probability(ou, event, [0.1, 0.05], 2000, 0.01, 21)
    assert [c.epsilon for c in cells] == [0.1, 0.05]
    for c in cells:
        assert c.N == 2000
        assert c.p_hat == pytest.approx(c.hits / 2000)
        assert c.ci_lo <= c.p_hat <= c.ci_hi
        assert c.error == ""
        if c.hits > 0:
            assert not c.censored


def test_tail_probability_worker_invariance(ou, monkeypatch):
    event = Event("sup_x", 0.4, 0.3)
    monkeypatch.setattr(mcengine, "DEFAULT_BATCH", 512)
    one = tail_probability(ou, event, [0.1], 3000, 0.01, 5, workers=1)
    many = tail_probability(ou, event, [0.1], 3000, 0.01, 5, workers=4)
    monkeypatch.setattr(mcengine, "DEFAULT_BATCH", 1024)
    other_batch = tail_probability(ou, event, [0.1], 3000, 0.01, 5)
    assert one[0].hits == many[0].hits == other_batch[0].hits


def test_tail_probability_requires_min_paths(ou):
    with pytest.raises(ConfigError):
        tail_probability(ou, Event("terminal_x", 0.5, 0.5), [0.1], 100, 0.01, 1)


def test_failed_cell_isolates_its_epsilon(ou):
    """b = 100 z is stable enough to finish at eps = 0.1 but overflows at
    eps = 0.01: that cell must carry the blow-up, and the cell after it must
    equal a sweep that never met the failure."""
    unstable = ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: 100.0 * z, sigma=ou.sigma, F=ou.F, G=ou.G, H=ou.H,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    event = Event("terminal_x", 0.5, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        failed, kept = tail_probability(unstable, event, [0.01, 0.1], 1000, 0.01, 7)
    (alone,) = tail_probability(unstable, event, [0.1], 1000, 0.01, 7)
    assert failed.error.startswith("SimulationBlowupError: ")
    assert math.isnan(failed.p_hat) and math.isnan(failed.scaled_log)
    assert kept == alone and kept.error == ""


def test_defect_and_level_sweeps_confine_a_failure_to_its_cell(ou, ou_avg):
    """The b = 100 z model above, through the homogenization defect and the
    level sweep of Y: the eps = 0.01 cells fail with their reason and NaN
    statistics instead of raising, and the defect cell after the failure
    equals a sweep that never met it.

    F = z - y carries the growing fast state into Y, so the defect runs
    three macro steps only: at eps = 0.1 Y then stays on the averaged table,
    and at eps = 0.01 (ten micro steps per macro step) it leaves it."""
    unstable = ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: 100.0 * z, sigma=ou.sigma, F=ou.F, G=ou.G, H=ou.H,
        epsilon=0.01, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        failed, kept = homogenization_defect(unstable, ou_avg, "F", [0.01, 0.1], 0.03, 0.01, 64, 7)
        levels = boundedness_Y(unstable, [0.5, 1.0], 0.5, 0.01, 1000, 7)
    (alone,) = homogenization_defect(unstable, ou_avg, "F", [0.1], 0.03, 0.01, 64, 7)
    assert failed.error == (
        "GridDomainError: slow state left the averaged table's y-grid; "
        "extend the tabulation range"
    )
    assert math.isnan(failed.median) and math.isnan(failed.q90)
    assert kept == alone and kept.error == ""
    assert [c.C for c in levels] == [0.5, 1.0]
    for c in levels:
        assert c.error.startswith("SimulationBlowupError: ")
        assert c.hits == 0 and math.isnan(c.p_hat) and not c.censored


def test_surrogate_sweep_matches_closed_form():
    from scipy.stats import norm

    rows = gaussian_surrogate_sweep(2.0, 1.0, 1.0, [1e-2, 1e-3, 1e-12], 0.25)
    for eps, p, s_log in rows:
        speed = eps**0.5
        sd = math.sqrt(speed * 2.0)
        assert p == pytest.approx(norm.sf(1.0 / sd), rel=1e-12)
        assert s_log == speed * norm.logsf(1.0 / sd)
    # deeper cells climb toward the rate prediction -0.25 from below
    assert rows[0][2] < rows[1][2] < rows[2][2] < -0.25
    # at eps = 1e-12 the tail itself underflows, its logarithm does not
    eps, p, s_log = rows[2]
    assert p == 0.0 == norm.sf(1.0 / math.sqrt(2.0 * eps**0.5))
    assert math.isfinite(s_log)


def test_surrogate_sweep_validates_inputs():
    with pytest.raises(ConfigError):
        gaussian_surrogate_sweep(-1.0, 1.0, 1.0, [0.1], 0.25)


def _one_cell(sampler, alpha, B, N, seed):
    """The 1 x 1 inequality grid: one (alpha, B) cell on its own draw."""
    (cell,) = exponential_inequality_grid(sampler, [alpha], [B], 1.0, N, seed)
    return cell


def test_brownian_tails_respect_exponential_bound():
    sampler = brownian_sampler(n_steps=400)
    for alpha, B in [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]:
        cell = _one_cell(sampler, alpha, B, 20_000, 3)
        freq, bound = cell.frequency, cell.bound
        sigma3 = 3.0 * math.sqrt(max(freq, 1.0 / 20_000) / 20_000)
        assert freq <= bound + sigma3
        assert bound == pytest.approx(2.0 * math.exp(-(alpha**2) / (2.0 * B)))


def test_stopped_bracket_never_exceeds_cap():
    sampler = stopped_brownian_sampler(0.5, n_steps=300)
    sup_abs, qv = sampler(5000, 1.0, 11)
    assert np.all(qv <= 0.5 + 1e-12)
    cell = _one_cell(sampler, 1.5, 0.5, 5000, 11)
    assert cell.frequency <= cell.bound


def test_sampler_without_bracket_is_rejected():
    def bare(N, T, seed):
        return np.zeros(N), None

    with pytest.raises(ConfigError):
        _one_cell(bare, 1.0, 1.0, 1000, 0)
    with pytest.raises(ConfigError, match="no quadratic variation"):
        exponential_inequality_grid(bare, [0.5, 1.0], [1.0, 2.0], 1.0, 1000, 0)
    with pytest.raises(ConfigError):
        _one_cell(brownian_sampler(), -1.0, 1.0, 1000, 0)


def _counting(sampler):
    calls = []

    def counted(N, T, seed):
        calls.append((N, T, seed))
        return sampler(N, T, seed)

    return counted, calls


@pytest.mark.parametrize(
    "sampler",
    [brownian_sampler(n_steps=200), stopped_brownian_sampler(0.5, n_steps=200)],
    ids=["brownian", "stopped"],
)
def test_inequality_grid_draws_once_and_matches_per_cell_checks(sampler):
    alphas, Bs = [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]
    counted, calls = _counting(sampler)
    cells = exponential_inequality_grid(counted, alphas, Bs, 1.0, 3000, 5)
    assert len(calls) == 1
    assert [(c.alpha, c.B) for c in cells] == [(a, B) for a in alphas for B in Bs]
    sup_abs, qv = sampler(3000, 1.0, 5)
    for cell in cells:
        assert isinstance(cell.hits, int) and cell.frequency == cell.hits / 3000
        assert _one_cell(sampler, cell.alpha, cell.B, 3000, 5) == cell
        # the per-cell formula the grid replaces, on the same draw
        assert cell.frequency == float(np.mean((sup_abs >= cell.alpha) & (qv <= cell.B)))


@pytest.mark.parametrize(
    "sampler",
    [brownian_sampler(n_steps=50), stopped_brownian_sampler(0.3, n_steps=50)],
    ids=["brownian", "stopped"],
)
def test_sampler_path_does_not_depend_on_n(sampler):
    """Martingale path i is lane i % LANES of block i // LANES: the same at N
    and 2N, with N = 700 ending inside a block."""
    small = sampler(700, 1.0, 9)
    large = sampler(1400, 1.0, 9)
    for got, want in zip(small, large):
        np.testing.assert_array_equal(got, want[:700])


def _single_source_brownian(N, T, seed, n_steps):
    """Reference: every path stepped as one noise source, as one batch."""
    sq_h = math.sqrt(T / n_steps)
    noise = _NoiseSource(seed, range(N), n_steps, 1)
    M = np.zeros(N)
    sup_abs = np.zeros(N)
    for k in range(n_steps):
        M = M + sq_h * noise.macro_chunk(k)[:, 0]
        np.maximum(sup_abs, np.abs(M), out=sup_abs)
    return sup_abs, np.full(N, T)


def _single_source_stopped(qv_cap, N, T, seed, n_steps):
    """Reference: one noise source, and a per-lane bracket that stops each
    lane's increments once it reaches qv_cap."""
    h = T / n_steps
    sq_h = math.sqrt(h)
    noise = _NoiseSource(seed, range(N), n_steps, 1)
    M = np.zeros(N)
    sup_abs = np.zeros(N)
    qv = np.zeros(N)
    for k in range(n_steps):
        dW = sq_h * noise.macro_chunk(k)[:, 0]
        alive = qv < qv_cap
        M = M + np.where(alive, dW, 0.0)
        qv = qv + np.where(alive, h, 0.0)
        np.maximum(sup_abs, np.abs(M), out=sup_abs)
    return sup_abs, qv


@pytest.mark.parametrize(
    "factory, reference",
    [
        (brownian_sampler, _single_source_brownian),
        (
            lambda n_steps, workers: stopped_brownian_sampler(0.37, n_steps, workers),
            lambda *args: _single_source_stopped(0.37, *args),
        ),
    ],
    ids=["brownian", "stopped"],
)
def test_sampler_does_not_depend_on_workers_or_batch(factory, reference):
    """The last whole-block batch is partial and ends inside a block; serial,
    pooled and single-source stepping give the same bits."""
    N, n_steps = DEFAULT_BATCH + 700, 40
    want = reference(N, 1.0, 4, n_steps)
    for workers in (1, 2):
        got = factory(n_steps, workers)(N, 1.0, 4)
        for g, w in zip(got, want):
            assert g.shape == (N,)
            np.testing.assert_array_equal(g, w)


def test_stopped_sampler_rejects_unusable_cap():
    for cap in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="qv_cap must be positive"):
            stopped_brownian_sampler(cap)


@pytest.mark.parametrize("short", ["sup_abs", "qv"])
def test_inequality_grid_rejects_wrong_path_count(short):
    def sampler(N, T, seed):
        sup_abs, qv = brownian_sampler(n_steps=10)(N, T, seed)
        return (sup_abs[:-1], qv) if short == "sup_abs" else (sup_abs, qv[:-1])

    with pytest.raises(ConfigError, match=r"must be \(1000,\)"):
        exponential_inequality_grid(sampler, [0.5, 1.0], [1.0], 1.0, 1000, 0)


@pytest.mark.parametrize(
    "alphas, Bs, N",
    [
        ([1.0, 0.0], [1.0], 1000),
        ([-0.5, 1.0], [1.0], 1000),
        ([1.0], [2.0, -1.0], 1000),
        ([1.0, 2.0], [0.0], 1000),
        ([1.0], [1.0], 0),
    ],
)
def test_inequality_grid_rejects_bad_input_before_sampling(alphas, Bs, N):
    counted, calls = _counting(brownian_sampler(n_steps=10))
    with pytest.raises(ConfigError, match="must be positive|at least 1 path"):
        exponential_inequality_grid(counted, alphas, Bs, 1.0, N, 0)
    assert calls == []


def test_negligibility_xi_hypothesis_guards(ou):
    with pytest.raises(ConfigError, match="p_exp > 0 fails"):
        negligibility_xi(ou, 1.0, 0.0, [0.1], 1.0, 0.3, 0.01, 100, 1)
    with pytest.raises(ConfigError, match="l_exp > p_exp / 2 fails"):
        negligibility_xi(ou, 0.5, 1.0, [0.1], 1.0, 0.3, 0.01, 100, 1)


def test_negligibility_xi_sweep_shape(ou):
    cells = negligibility_xi(ou, 0.75, 1.0, [0.1, 0.05], 0.5, 0.3, 0.01, 2000, 7)
    assert len(cells) == 2
    for c in cells:
        assert c.error == ""
        assert c.N == 2000
    assert count_trend_violations(cells) == 0


def test_boundedness_y_levels_are_nested(ou):
    cells = boundedness_Y(ou, [0.5, 1.0, 2.0], 0.5, 0.01, 2000, 13)
    assert [c.C for c in cells] == [0.5, 1.0, 2.0]
    hits = [c.hits for c in cells]
    assert hits[0] >= hits[1] >= hits[2]  # larger level, rarer excursion
    assert cells[0].epsilon == ou.epsilon


@pytest.mark.parametrize("sweep", ["boundedness_Y", "negligibility_sweep", "homogenization_defect"])
def test_sweep_cells_do_not_depend_on_the_batch_cut(sweep, ou, ou_family, ou_avg, monkeypatch):
    """N = 2000 runs as one batch, then as batches of 700 ids that split lane
    blocks (on 3 workers where the sweep takes them): the cells are equal."""
    run = {
        "boundedness_Y": lambda: boundedness_Y(
            ou, [0.5, 1.0, 2.0], 0.5, 0.01, 2000, 13, workers=3
        ),
        "negligibility_sweep": lambda: negligibility_sweep(
            ou, [0.1, 0.05], 0.25, 0.5, 0.01, 2000, 9, family=ou_family
        ),
        "homogenization_defect": lambda: homogenization_defect(
            ou, ou_avg, "F", [0.1, 0.01], 0.5, 0.01, 2000, 11
        ),
    }[sweep]
    whole = run()
    monkeypatch.setattr(mcengine, "DEFAULT_BATCH", 700)
    assert run() == whole


def _stub(scaled_log, censored=False, error=""):
    return TailEstimate(
        event="stub", epsilon=0.1, N=100, hits=0 if censored else 10,
        p_hat=0.1, ci_lo=0.05, ci_hi=0.2, scaled_log=scaled_log,
        censored=censored, error=error,
    )


def test_trend_violation_counting():
    assert count_trend_violations([_stub(-0.1), _stub(-0.2), _stub(-0.3)]) == 0
    assert count_trend_violations([_stub(-0.3), _stub(-0.2), _stub(-0.4)]) == 1
    # tolerance forgives small inversions
    assert count_trend_violations([_stub(-0.3), _stub(-0.29)], tol=0.02) == 0
    # censored or failed later cells are upper bounds, not evidence
    assert count_trend_violations([_stub(-0.3), _stub(-0.1, censored=True)]) == 0
    assert count_trend_violations([_stub(-0.3), _stub(-0.1, error="boom")]) == 0


def test_write_tail_csv_epsilon_and_level_layouts(run_subcommand, ou):
    """mdp-check writes one row per epsilon cell, each field as the library's
    estimate; level cells (boundedness_Y) have no output table."""
    eps_cells = tail_probability(ou, Event("terminal_x", 0.5, 0.3), [0.1], 1000, 0.01, 3)
    event = {"threshold": 0.5}
    f1 = run_subcommand("mdp-check", T=0.3, seed=3, event=event, args=("--workers", "1"))
    lines = (f1 / "mc.csv").read_text().splitlines()
    assert lines[0] == "epsilon,N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored"
    assert len(lines) == 1 + len(eps_cells)
    assert lines[1].startswith("0.1,1000,")
    c = eps_cells[0]
    assert lines[1].split(",") == [
        repr(c.epsilon), str(c.N), str(c.hits), repr(c.p_hat), repr(c.ci_lo),
        repr(c.ci_hi), repr(c.scaled_log), str(int(c.censored)),
    ]

    f2 = run_subcommand(
        "mdp-check", T=0.3, seed=3, event=event, out="again", args=("--workers", "2")
    )
    assert (f2 / "mc.csv").read_bytes() == (f1 / "mc.csv").read_bytes()
