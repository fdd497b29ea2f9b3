import numpy as np
import pytest

from degenwave import assemble, build_mesh, matrix_exponential

DELTA = 2e-3


@pytest.fixture(scope="session")
def mesh99():
    return build_mesh(99)


@pytest.fixture(scope="session")
def ops99(mesh99):
    return assemble(mesh99)


@pytest.fixture(scope="session")
def prop99(ops99):
    return matrix_exponential(ops99, DELTA)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
