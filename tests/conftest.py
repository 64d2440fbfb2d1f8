import numpy as np
import pytest

from invreg import (
    SpectralSynthetic,
    cosine_design,
    discretize_operator,
    midpoint_grid,
)


@pytest.fixture(scope="session")
def op_p1_d4_n16():
    """Spectral-synthetic p=1 operator, d=4, on the exact cosine design."""
    return discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(16), 4)


@pytest.fixture(scope="session")
def identity_op_d4_n16():
    """Identity operator: the sampled images are the cosine design itself."""
    g = midpoint_grid(16)
    return discretize_operator(cosine_design(g, 4).T, g, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240831)
