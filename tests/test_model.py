from dataclasses import replace

import numpy as np
import pytest

from fastslow import BENCHMARKS, ModelSpec, diffusion_matrix, get_benchmark, validate_model
from fastslow.errors import ConfigError

BOX = [(-6.0, 6.0)]


def test_registry_contents():
    assert set(BENCHMARKS) == {"ou", "double-well", "constant"}


def test_get_benchmark_unknown_name():
    with pytest.raises(ConfigError):
        get_benchmark("pendulum")


def test_spec_structural_checks():
    ou = get_benchmark("ou")
    assert ou.d == ou.l == ou.p == 1
    with pytest.raises(ConfigError):
        get_benchmark("ou", epsilon=-0.1)
    with pytest.raises(ConfigError):
        get_benchmark("ou", kappa=1.5)


def test_with_epsilon_returns_new_spec():
    ou = get_benchmark("ou", epsilon=0.1)
    smaller = ou.with_epsilon(0.01)
    assert smaller.epsilon == 0.01
    assert ou.epsilon == 0.1
    assert smaller.kappa == ou.kappa


def test_kappa_admissible_window():
    # m = 1 gives the window (0, 1/2): 0.499 is inside, 0.75 is not
    assert get_benchmark("ou", kappa=0.25).kappa_admissible()
    assert get_benchmark("ou", kappa=0.499).kappa_admissible()
    assert not get_benchmark("ou", kappa=0.75).kappa_admissible()


def test_diffusion_matrix_ou():
    ou = get_benchmark("ou")
    z = np.zeros((4, 1))
    y = np.zeros((4, 1))
    a = diffusion_matrix(ou, z, y)
    np.testing.assert_allclose(a, np.broadcast_to(2.0 * np.eye(1), (4, 1, 1)))


@pytest.mark.parametrize("d", [1, 2])
def test_diffusion_matrix_matches_einsum_bitwise(d):
    """At d <= 2 the entry-by-entry sigma sigma^T gives the bits of the
    generic einsum, signed zeros, infinities and NaNs included."""
    rng = np.random.Generator(np.random.Philox(key=d))
    sig = rng.standard_normal((4000, d, d)) * 10.0 ** rng.integers(-8, 8, (4000, d, d))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e-300])
    mask = rng.random(sig.shape) < 0.3
    sig[mask] = rng.choice(specials, int(mask.sum()))
    spec = type("Spec", (), {"sigma": staticmethod(lambda z, y: sig)})()
    with np.errstate(all="ignore"):
        got = diffusion_matrix(spec, None, None)
        want = np.einsum("...ij,...kj->...ik", sig, sig)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_constant_coefficients_are_read_only_broadcast_views():
    ou = get_benchmark("ou")
    cases = [
        (np.zeros((7, 1)), np.zeros((7, 1)), (7,)),
        (np.zeros((3, 1)), np.zeros(1), (3,)),
        (np.zeros(1), np.zeros((2, 4, 1)), (2, 4)),
    ]
    for z, y, lead in cases * 2:          # the second pass reuses the views
        for coef, c in ((ou.sigma, np.sqrt(2.0)), (ou.G, 1.0)):
            value = coef(z, y)
            assert value.shape == lead + (1, 1)
            assert not value.flags.writeable
            np.testing.assert_array_equal(value, c)


def test_validate_ou_clean():
    report = validate_model(get_benchmark("ou"), BOX, [(-2.0, 2.0)])
    assert report.ok
    assert report.violations == []
    assert report.lambda_min == pytest.approx(2.0)
    assert report.dissipativity_r is not None and report.dissipativity_r > 0.9
    assert report.centering_defect is not None and report.centering_defect < 1e-6


def test_validate_double_well_clean():
    report = validate_model(get_benchmark("double-well"), BOX, [(-2.0, 2.0)])
    assert report.ok
    # the invariant density is symmetric, so H = z still averages to zero
    assert report.centering_defect < 1e-6


def test_validate_constant_model_flags_dissipativity():
    report = validate_model(get_benchmark("constant"), BOX, [(-2.0, 2.0)])
    assert not report.ok
    assumptions = {v.assumption for v in report.violations}
    assert "A_dissipativity" in assumptions


def test_validate_flags_inadmissible_kappa():
    spec = get_benchmark("ou", kappa=0.499)
    bad = ModelSpec(
        d=1, l=1, p=1,
        b=spec.b, sigma=spec.sigma, F=spec.F, G=spec.G, H=spec.H,
        epsilon=0.1, kappa=0.4, m=1.5, z0=[0.0], y0=[0.0],
    )
    report = validate_model(bad, BOX, [(-2.0, 2.0)])
    assert any(v.assumption == "A_kappa_m" for v in report.violations)


def test_validate_flags_uncentered_h():
    ou = get_benchmark("ou")
    shifted = ModelSpec(
        d=1, l=1, p=1,
        b=ou.b, sigma=ou.sigma, F=ou.F, G=ou.G,
        H=lambda z, y: z + 1.0,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    report = validate_model(shifted, BOX, [(-2.0, 2.0)])
    assert any(v.assumption == "A_centering" for v in report.violations)


def test_validate_flags_degenerate_diffusion():
    ou = get_benchmark("ou")
    flat = ModelSpec(
        d=1, l=1, p=1,
        b=ou.b,
        sigma=lambda z, y: np.zeros(z.shape[:-1] + (1, 1)),
        F=ou.F, G=ou.G, H=ou.H,
        epsilon=0.1, kappa=0.25, z0=[0.0], y0=[0.0],
    )
    report = validate_model(flat, BOX, [(-2.0, 2.0)])
    assert any(v.assumption == "A_ellipticity" for v in report.violations)


def test_validate_rejects_bad_boxes():
    with pytest.raises(ConfigError):
        validate_model(get_benchmark("ou"), BOX, [(-2.0, 2.0), (-2.0, 2.0)])


@pytest.mark.parametrize("d", [1, 2])
def test_validate_centering_grid_has_density_nodes(monkeypatch, d):
    """The centering check runs on density_nodes nodes per axis in 1-d and
    in 2-d, and on the default z-grid's 601 or 101 when none is given."""
    from tests.test_poisson import _counting_densities
    from tests.test_stationary import _two_dim_linear

    shapes = _counting_densities(monkeypatch)
    spec = get_benchmark("ou") if d == 1 else _two_dim_linear()
    box = [(-5.0, 5.0)] * d
    report = validate_model(spec, box, [(-2.0, 2.0)], density_nodes=31)
    assert report.centering_defect is not None
    assert set(shapes) == {(31,) * d}
    shapes.clear()
    validate_model(spec, box, [(-2.0, 2.0)])
    assert set(shapes) == {((601,), (101, 101))[d - 1]}


@pytest.mark.parametrize("y_box, worst", [((-2.0, 1.0), -2.0), ((-1.0, 2.0), 2.0)])
def test_validate_reused_density_follows_y(y_box, worst):
    """The ou fast flow ignores y, so one density serves every y sample, but
    H = z + y is sampled at each sample's own y: int (z + y) pi = y exactly,
    so the defect is the largest |y| and is found where it occurs."""
    ou = get_benchmark("ou")
    spec = replace(ou, H=lambda z, y: z + y)
    report = validate_model(spec, BOX, [y_box])
    assert report.counts == {"densities": 1}
    assert abs(report.centering_defect - 2.0) <= 1e-12
    [violation] = [v for v in report.violations if v.assumption == "A_centering"]
    np.testing.assert_array_equal(violation.witness_y, [worst])
