"""Shared fixtures: the linear benchmark plus its tabulated objects.

The expensive objects (cell-solution family, averaged coefficients) are
session-scoped; everything downstream of them is deterministic, so sharing
is safe.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fastslow import (
    RectGrid,
    averaged_coefficients,
    get_benchmark,
    invariant_density,
    solve_family,
)


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
def ou_avg(ou, y_grid, z_grid, ou_family):
    return averaged_coefficients(ou, y_grid, z_grid, family=ou_family)


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
