import dataclasses
import inspect

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


def library_default(holder, name):
    """The default of field ``name`` of the dataclass ``holder``, or of
    parameter ``name`` of the function or class ``holder``."""
    if dataclasses.is_dataclass(holder):
        return {f.name: f.default for f in dataclasses.fields(holder)}[name]
    return inspect.signature(holder).parameters[name].default


def config_text(value) -> str:
    """``value`` as a config file writes it: a float as its repr, a tuple
    as a comma-separated list."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)
