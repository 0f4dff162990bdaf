"""Shared fixtures: the linear benchmark plus its tabulated objects.

The expensive objects (cell-solution family, averaged coefficients) are
session-scoped; everything downstream of them is deterministic, so sharing
is safe.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fastslow import (
    RectGrid,
    averaged_coefficients,
    get_benchmark,
    invariant_density,
    simulate_block,
    solve_family,
)
from fastslow.simulate import Recorder


@pytest.fixture(scope="session")
def ou():
    return get_benchmark("ou", epsilon=0.1, kappa=0.25)


@pytest.fixture(scope="session")
def z_grid():
    return RectGrid.from_bounds([(-6.0, 6.0, 601)])


@pytest.fixture(scope="session")
def y_grid():
    return RectGrid.from_bounds([(-4.0, 4.0, 41)])


@pytest.fixture(scope="session")
def ou_pi(ou, z_grid):
    return invariant_density(ou, np.array([0.0]), z_grid)


@pytest.fixture(scope="session")
def ou_family(ou, y_grid, z_grid):
    return solve_family(ou, y_grid, z_grid)


@pytest.fixture(scope="session")
def ou_avg(ou, y_grid, z_grid):
    return averaged_coefficients(ou, y_grid, z_grid)


@pytest.fixture(scope="session")
def record_path():
    """``record_path(spec, T, h, seed, path_id=0)`` runs one path through the
    kernel with a ``Recorder`` and returns its macro mesh ``times``, its node
    states ``xi``, ``Y``, ``X`` (N+1 rows), its increments ``dB``
    (N, n_sub, d) and ``dW`` (N, l), and ``n_sub``."""

    def record(spec, T, h, seed, path_id=0):
        rec = Recorder()
        run = simulate_block(spec, T, h, seed, [path_id], probes=(rec,))
        return SimpleNamespace(
            times=run.times, n_sub=run.n_sub, xi=rec.xi[0], Y=rec.Y[0],
            X=rec.X[0], dB=rec.dB[0], dW=rec.dW[0],
        )

    return record


@pytest.fixture()
def splu_sizes(monkeypatch):
    """Size of every sparse LU factorization made during the test, in order."""
    sizes = []
    splu = spla.splu

    def counting(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return sizes


@pytest.fixture()
def run_subcommand(tmp_path):
    """Run one CLI subcommand on the ou benchmark at the fixtures' scales
    and default grids; return the output directory.

    ``blocks`` adds config sections (e.g. ``rate={...}``); ``out`` names the
    output directory, so two runs in one test stay apart."""
    import yaml
    from click.testing import CliRunner

    from fastslow.cli import main

    def run(name, *, T, seed, h=0.01, N=1000, out="out", args=(), **blocks):
        cfg = {
            "model": {"benchmark": "ou"},
            "scales": {"epsilon": [0.1], "kappa": 0.25},
            "run": {"T": T, "h": h, "N": N, "seed": seed},
            "output_dir": str(tmp_path / out),
        }
        cfg.update(blocks)
        cfg_path = tmp_path / f"{out}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        result = CliRunner().invoke(
            main, [name, str(cfg_path), *args], catch_exceptions=False
        )
        assert result.exit_code == 0, result.output
        return tmp_path / out

    return run
