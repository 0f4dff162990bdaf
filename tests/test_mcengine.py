import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import (
    Event,
    TailEstimate,
    boundedness_Y,
    brownian_sampler,
    check_exponential_inequality,
    count_trend_violations,
    exponential_inequality_grid,
    gaussian_surrogate_sweep,
    negligibility_xi,
    stopped_brownian_sampler,
    tail_probability,
    wilson_interval,
    write_tail_csv,
)
from fastslow.errors import ConfigError


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
    with pytest.raises(ConfigError):
        Event("running_max", 1.0, 1.0)


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


def test_tail_probability_worker_invariance(ou):
    event = Event("sup_x", 0.4, 0.3)
    one = tail_probability(ou, event, [0.1], 3000, 0.01, 5, batch=512, workers=1)
    many = tail_probability(ou, event, [0.1], 3000, 0.01, 5, batch=512, workers=4)
    other_batch = tail_probability(ou, event, [0.1], 3000, 0.01, 5, batch=1024)
    assert one[0].hits == many[0].hits == other_batch[0].hits


def test_tail_probability_requires_min_paths(ou):
    with pytest.raises(ConfigError):
        tail_probability(ou, Event("terminal_x", 0.5, 0.5), [0.1], 100, 0.01, 1)


def test_sup_delta_event_needs_family(ou, ou_family):
    event = Event("sup_delta", 0.2, 0.3)
    with pytest.raises(ConfigError):
        tail_probability(ou, event, [0.1], 1000, 0.01, 3)
    cells = tail_probability(ou, event, [0.1], 1000, 0.01, 3, family=ou_family)
    assert cells[0].error == ""


def test_failed_cell_isolates_its_epsilon(ou, y_grid, z_grid):
    """A family tabulated on a sliver of the slow range makes paths exit the
    y-grid: that epsilon's cell must carry the error, not abort the sweep."""
    from fastslow import solve_family

    tiny = solve_family(ou, type(y_grid).from_bounds([(-1e-3, 1e-3, 3)]), z_grid)
    event = Event("sup_delta", 0.2, 0.3)
    cells = tail_probability(ou, event, [0.1], 1000, 0.01, 3, family=tiny)
    assert cells[0].error != ""
    assert "y-grid" in cells[0].error
    assert math.isnan(cells[0].p_hat)


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


def test_brownian_tails_respect_exponential_bound():
    sampler = brownian_sampler(n_steps=400)
    for alpha, B in [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]:
        freq, bound = check_exponential_inequality(sampler, alpha, B, 1.0, 20_000, 3)
        sigma3 = 3.0 * math.sqrt(max(freq, 1.0 / 20_000) / 20_000)
        assert freq <= bound + sigma3
        assert bound == pytest.approx(2.0 * math.exp(-(alpha**2) / (2.0 * B)))


def test_stopped_bracket_never_exceeds_cap():
    sampler = stopped_brownian_sampler(0.5, n_steps=300)
    sup_abs, qv = sampler(5000, 1.0, 11)
    assert np.all(qv <= 0.5 + 1e-12)
    freq, bound = check_exponential_inequality(sampler, 1.5, 0.5, 1.0, 5000, 11)
    assert freq <= bound


def test_sampler_without_bracket_is_rejected():
    def bare(N, T, seed):
        return np.zeros(N), None

    with pytest.raises(ConfigError):
        check_exponential_inequality(bare, 1.0, 1.0, 1.0, 1000, 0)
    with pytest.raises(ConfigError, match="no quadratic variation"):
        exponential_inequality_grid(bare, [0.5, 1.0], [1.0, 2.0], 1.0, 1000, 0)
    with pytest.raises(ConfigError):
        check_exponential_inequality(brownian_sampler(), -1.0, 1.0, 1.0, 1000, 0)


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
        per_cell = check_exponential_inequality(sampler, cell.alpha, cell.B, 1.0, 3000, 5)
        assert (cell.frequency, cell.bound) == per_cell
        # the per-cell formula the grid replaces, on the same draw
        assert cell.frequency == float(np.mean((sup_abs >= cell.alpha) & (qv <= cell.B)))


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
    multi = boundedness_Y(ou, [0.5, 1.0, 2.0], 0.5, 0.01, 2000, 13, workers=3, batch=700)
    assert [c.hits for c in multi] == hits


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


def test_write_tail_csv_epsilon_and_level_layouts(tmp_path, ou):
    eps_cells = tail_probability(ou, Event("terminal_x", 0.5, 0.3), [0.1], 1000, 0.01, 3)
    f1 = tmp_path / "eps.csv"
    write_tail_csv(eps_cells, f1)
    lines = f1.read_text().splitlines()
    assert lines[0] == "epsilon,N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored"
    assert lines[1].startswith("0.1,1000,")

    level_cells = boundedness_Y(ou, [1.0, 2.0], 0.3, 0.01, 1000, 3)
    f2 = tmp_path / "lvl.csv"
    write_tail_csv(level_cells, f2)
    assert f2.read_text().splitlines()[0].startswith("C,")

    again = tmp_path / "eps2.csv"
    write_tail_csv(eps_cells, again)
    assert again.read_bytes() == f1.read_bytes()
