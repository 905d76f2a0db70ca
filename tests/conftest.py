import os
from pathlib import Path

import numpy as np
import pytest

from nonharmonic.model import ModelSpec, build_model

# tests that start a fresh interpreter import the package from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def keep_blas_variables(monkeypatch):
    """Undo what `cli.main` sets in the test process: each BLAS variable that is unset."""
    from nonharmonic.threads import BLAS_VARIABLES

    for var in BLAS_VARIABLES:
        if var not in os.environ:
            monkeypatch.setenv(var, "")  # so that the variable is removed after the test
            monkeypatch.delenv(var)


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


def closed_form_rows(model, lo, hi, dual=False):
    """u_xi (v_xi if dual) for xi = lo..hi, written out: the model's own rows
    inside the window, h^{+-x} e^{2 pi i xi x} on the grid past +-N."""
    own, rows = model.v if dual else model.u, []
    for xi in range(lo, hi + 1):
        if -model.N <= xi <= model.N:
            rows.append(own[xi + model.N])
            continue
        phase = np.exp(2j * np.pi * xi * model.x)
        if model.spec.kind == "h_derivative":
            phase = model.spec.h ** (-model.x if dual else model.x) * phase
        rows.append(phase)
    return np.stack(rows)


def use_lanes(monkeypatch, n):
    """Set n lanes."""
    from nonharmonic.threads import lanes

    monkeypatch.setenv("NONHARMONIC_THREADS", str(n))
    assert lanes() == n
