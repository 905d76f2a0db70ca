import os
from pathlib import Path

import numpy as np
import pytest

from nonharmonic.model import ModelSpec, build_model

# tests that start a fresh interpreter import the package from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))

STANDARD_SPECS = {
    "torus_derivative": ModelSpec(kind="torus_derivative", N=16, Q=128),
    "h_derivative_2": ModelSpec(kind="h_derivative", N=16, Q=128, h=2.0),
    "h_derivative_05": ModelSpec(kind="h_derivative", N=16, Q=128, h=0.5),
    "torus_laplacian": ModelSpec(kind="torus_laplacian", N=16, Q=128),
}


@pytest.fixture(scope="session")
def models():
    return {name: build_model(spec) for name, spec in STANDARD_SPECS.items()}


@pytest.fixture(scope="session")
def torus(models):
    return models["torus_derivative"]


@pytest.fixture(scope="session")
def hmodel(models):
    return models["h_derivative_2"]


@pytest.fixture(scope="session")
def laplacian(models):
    return models["torus_laplacian"]


def geometric_star_coefficient(h: float, Q: int, xi: int) -> complex:
    """Closed form of the quadrature sum (1/Q) sum_i h^{2 x_i} e^{-2 pi i xi x_i}.

    Geometric series with ratio r = h^{2/Q} e^{-2 pi i xi / Q} and r^Q = h^2.
    """
    r = h ** (2.0 / Q) * np.exp(-2j * np.pi * xi / Q)
    return (h**2 - 1.0) / (Q * (r - 1.0))
