import numpy as np
import pytest
from hypothesis import settings

from patchwave import (
    ResolutionOfUnity,
    assemble,
    fichera_corner,
    haar_basis,
    load_surface,
    multiwavelet_basis,
    unit_cube,
)

# one profile for the whole suite: a property test must not fail because a
# loaded machine made one example slow, so no test carries a deadline
settings.register_profile("patchwave", deadline=None)
settings.load_profile("patchwave")


@pytest.fixture(scope="session")
def cube():
    return load_surface(unit_cube())


@pytest.fixture(scope="session")
def fichera():
    return load_surface(fichera_corner())


@pytest.fixture(scope="session")
def haar():
    return haar_basis()


@pytest.fixture(scope="session")
def alpert2():
    return multiwavelet_basis()


@pytest.fixture(scope="session")
def rou(cube):
    return ResolutionOfUnity(cube)


@pytest.fixture(scope="session")
def systems(cube):
    """Dense double layer systems on the cube, assembled once per session."""
    return {L: assemble(cube, L) for L in (1, 2, 3, 4)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
