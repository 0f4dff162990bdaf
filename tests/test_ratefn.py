import numpy as np
import pytest

from fastslow import (
    DiscretePath,
    action,
    minimize_endpoint,
)
from fastslow.errors import ConfigError, ConvergenceError


def _straight_path(ou_avg, n=64, x_T=1.0, T=1.0):
    """Straight X ramp paired with the exact Euler orbit of the averaged
    drift, which zeroes the slow part of the cost by construction."""
    times = T / n * np.arange(n + 1)
    X = np.linspace([0.0], [x_T], n + 1)
    Y = np.empty((n + 1, 1))
    Y[0] = 0.0
    for k in range(n):
        Y[k + 1] = Y[k] + (T / n) * ou_avg.F_at(Y[k])
    return DiscretePath(times=times, X=X, Y=Y)


def test_action_of_straight_ramp(ou_avg):
    value = action(_straight_path(ou_avg), ou_avg)
    # (1/2) * integral of (dX/dt)^2 / 2 = 1/4 for a unit ramp
    assert value.J == pytest.approx(0.25, abs=1e-3)
    assert value.per_interval.shape == (64,)
    assert np.all(value.per_interval >= 0.0)


def test_action_scales_quadratically_in_the_ramp(ou_avg):
    one = action(_straight_path(ou_avg, x_T=1.0), ou_avg).J
    two = action(_straight_path(ou_avg, x_T=2.0), ou_avg).J
    assert two == pytest.approx(4.0 * one, rel=1e-9)


def test_action_rejects_wrong_start(ou_avg):
    path = _straight_path(ou_avg)
    shifted = DiscretePath(times=path.times, X=path.X + 0.5, Y=path.Y)
    value = action(shifted, ou_avg)
    assert value.J == np.inf
    assert np.all(np.isinf(value.per_interval))
    moved = DiscretePath(times=path.times, X=path.X, Y=path.Y + 1.0)
    assert action(moved, ou_avg, y0=[0.0]).J == np.inf
    assert np.isfinite(action(moved, ou_avg).J)  # start check only when y0 given


def test_zero_path_has_zero_action(ou_avg):
    n = 32
    times = np.linspace(0.0, 1.0, n + 1)
    path = DiscretePath(times=times, X=np.zeros((n + 1, 1)), Y=np.zeros((n + 1, 1)))
    assert action(path, ou_avg).J == pytest.approx(0.0, abs=1e-12)


def test_minimizer_reaches_analytic_value(ou_avg):
    path, value = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 32, y0=[0.0])
    assert value.J == pytest.approx(0.25, abs=2e-3)
    assert path.X[-1, 0] == pytest.approx(1.0, abs=1e-9)
    assert path.X[0, 0] == 0.0
    # the optimal ramp has constant speed
    speeds = np.diff(path.X[:, 0]) / np.diff(path.times)
    assert np.std(speeds) < 2e-2


def test_minimizer_is_deterministic(ou_avg):
    _, a = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 16, y0=[0.0])
    _, b = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 16, y0=[0.0])
    assert a.J == b.J


def test_minimum_is_a_local_minimum(ou_avg):
    """Zero-at-endpoints perturbations must not lower the action: a direct
    first-order optimality check independent of the solver internals."""
    path, value = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 16, y0=[0.0])
    rng = np.random.Generator(np.random.Philox(key=99))
    n = path.times.size - 1
    for _ in range(100):
        dX = np.zeros((n + 1, 1))
        dY = np.zeros((n + 1, 1))
        dX[1:n, 0] = rng.standard_normal(n - 1)
        dY[1:, 0] = rng.standard_normal(n)  # Y_T is unconstrained
        scale = 1e-3 / max(np.max(np.abs(dX)), np.max(np.abs(dY)))
        bumped = DiscretePath(
            times=path.times, X=path.X + scale * dX, Y=path.Y + scale * dY
        )
        assert action(bumped, ou_avg).J >= value.J - 1e-8


def test_affine_pair_constraint(ou_avg):
    # fix the sum X_T + Y_T = 1 and let the solver choose the split
    C = np.array([[1.0, 1.0]])
    path, value = minimize_endpoint(ou_avg, 1.0, (C, np.array([1.0])), 16, y0=[0.0])
    assert path.X[-1, 0] + path.Y[-1, 0] == pytest.approx(1.0, abs=1e-9)
    # the relaxed problem can only do better than pinning X_T = 1
    pinned = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 16, y0=[0.0])[1]
    assert value.J <= pinned.J + 1e-9


def test_constraint_validation(ou_avg):
    with pytest.raises(ConfigError):
        minimize_endpoint(ou_avg, 1.0, np.array([1.0, 2.0]), 16, y0=[0.0])
    bad = (np.zeros((2, 2)), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        minimize_endpoint(ou_avg, 1.0, bad, 16, y0=[0.0])
    with pytest.raises(ConfigError):
        minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 4, y0=[0.0])


def test_iteration_cap_raises_with_context(ou_avg):
    # the mixed-endpoint problem needs many iterations, so a tiny cap trips
    C = np.array([[1.0, 1.0]])
    with pytest.raises(ConvergenceError) as err:
        minimize_endpoint(ou_avg, 1.0, (C, np.array([1.0])), 16, y0=[0.0], max_iter=3)
    assert err.value.last_value is not None
    assert err.value.last_grad_norm is not None


def _half_space(ou_avg, T, level, mesh_size, normal=(1.0, 0.0)):
    """J* of the terminal half-space {X_T > level}: the boundary constraint
    (C, [level]) on the stacked (X_T, Y_T) that the rate subcommand builds."""
    C = np.array([normal])
    _, value = minimize_endpoint(ou_avg, T, (C, np.array([level])), mesh_size, y0=[0.0])
    return value.J


def test_prediction_for_threshold_events(ou_avg):
    assert _half_space(ou_avg, 1.0, 1.0, 32) == pytest.approx(0.25, abs=2e-3)
    # doubling the level quadruples the cost (quadratic rate)
    assert _half_space(ou_avg, 1.0, 2.0, 32) == pytest.approx(1.0, abs=1e-2)


def test_prediction_decreases_with_horizon(ou_avg):
    assert _half_space(ou_avg, 2.0, 1.0, 16) < _half_space(ou_avg, 0.5, 1.0, 16)


def test_prediction_validates_normal(ou_avg):
    # a normal with one X component too many does not act on (X_T, Y_T)
    with pytest.raises(ConfigError, match="constraint matrix shaped"):
        _half_space(ou_avg, 1.0, 1.0, 16, normal=(1.0, 0.0, 0.0))


def test_write_rate_path_csv_layout(run_subcommand, ou_avg):
    """The rate subcommand's path table is the library minimizer's path."""
    path, _ = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 16, y0=[0.0])
    out = run_subcommand("rate", T=1.0, seed=0, rate={"target": [1.0], "mesh_size": 16})
    f = out / "rate_path.csv"
    lines = f.read_text().splitlines()
    assert lines[0] == "t,X_1,Y_1"
    assert len(lines) == 1 + path.times.size
    assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)
    data = np.loadtxt(f, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], path.times)
    np.testing.assert_allclose(data[:, 1:], np.hstack([path.X, path.Y]), atol=1e-9)
