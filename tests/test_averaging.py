import numpy as np
import pytest

from fastslow import (
    homogenization_defect,
    simulate_block,
)
from fastslow.errors import ConfigError
from fastslow.simulate import DefectIntegral


def test_averaged_coefficients_linear_oracle(ou_avg, y_grid):
    """Closed forms for the linear benchmark: effective diffusion 2, slow
    diffusion 1, averaged drift -y."""
    np.testing.assert_allclose(ou_avg.Qbar[:, 0, 0], 2.0, atol=1e-3)
    np.testing.assert_allclose(ou_avg.Abar[:, 0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(ou_avg.Fbar[:, 0], -y_grid.axes[0], atol=1e-3)


def test_accessors_interpolate_between_nodes(ou_avg):
    y = np.array([0.37])
    assert ou_avg.Q_at(y)[0, 0] == pytest.approx(2.0, abs=2e-3)
    assert ou_avg.A_at(y)[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert ou_avg.F_at(y)[0] == pytest.approx(-0.37, abs=2e-3)
    np.testing.assert_allclose(
        ou_avg.Q_inv_at(y) @ ou_avg.Q_at(y), np.eye(1), atol=1e-12
    )
    assert ou_avg.nonsingularity_margin > 0.5


def test_q_defect_needs_a_family(ou, ou_avg):
    with pytest.raises(ConfigError, match="family"):
        homogenization_defect(ou, ou_avg, "Q", [0.1], 0.5, 0.01, 8, 3)


def test_defect_vanishes_for_already_averaged_directions(ou, ou_avg, ou_family):
    """For the linear benchmark G G^T and the corrector energy are already
    constant in z, so their defects are pure interpolation noise."""
    cells_a = homogenization_defect(ou, ou_avg, "A", [0.1], 0.5, 0.01, 32, 3)
    assert cells_a[0].median < 1e-12
    cells_q = homogenization_defect(ou, ou_avg, "Q", [0.1], 0.5, 0.01, 32, 3, family=ou_family)
    assert cells_q[0].median < 1e-3


def test_defect_shrinks_with_epsilon(ou, ou_avg):
    cells = homogenization_defect(ou, ou_avg, "F", [1e-1, 1e-3], 1.0, 0.01, 200, 11)
    assert cells[0].median > cells[1].median
    assert cells[1].q90 >= cells[1].median
    # two decades of epsilon: the averaging error contracts like sqrt(eps),
    # i.e. about a factor 10, well clear of MC noise
    assert cells[0].median / cells[1].median > 4.0


def test_defect_rejects_unknown_selector(ou, ou_avg):
    with pytest.raises(ConfigError):
        homogenization_defect(ou, ou_avg, "B", [0.1], 0.5, 0.01, 8, 3)


def test_time_average_converges_to_density_mean(ou):
    """Ergodicity of the fast flow: the time average of H = z along coupled
    paths approaches its pi-mean 0."""
    T, h = 40.0, 0.01
    probe = DefectIntegral(ou.H, lambda y: 0.0, h)
    simulate_block(ou, T, h, 19, list(range(16)), probes=(probe,))
    avg = probe.value / T
    assert avg.shape == (16, 1)
    assert np.median(np.abs(avg)) < 0.15


def test_write_averaged_csv_layout(run_subcommand, ou_avg, y_grid):
    """The average subcommand's table holds the library's coefficients."""
    target = run_subcommand("average", T=1.0, seed=0) / "averaged.csv"
    lines = target.read_text().splitlines()
    assert lines[0] == "y_1,Qbar_11,Abar_11,Fbar_1"
    assert len(lines) == 1 + y_grid.n_nodes
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == y_grid.axes[0][0]
    data = np.loadtxt(target, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], y_grid.axes[0])
    np.testing.assert_allclose(data[:, 1], ou_avg.Qbar[:, 0, 0], rtol=1e-12)
    np.testing.assert_allclose(data[:, 2], ou_avg.Abar[:, 0, 0], rtol=1e-12)
    np.testing.assert_allclose(data[:, 3], ou_avg.Fbar[:, 0], rtol=1e-12, atol=1e-15)
    again = run_subcommand("average", T=1.0, seed=0, out="again") / "averaged.csv"
    assert again.read_bytes() == target.read_bytes()
