"""Fourier analysis in the biorthogonal eigenbasis.

The transform pairs against the v-family and its inverse expands in the
u-family.  On the truncated span the pair (fourier, inverse) is exactly
bijective because the quadrature integrates every u*conj(v) product
exactly.

Norms follow the sequence-space geometry generated by the biorthogonal
system: the squared norm of a coefficient vector c is
sum_xi c(xi) * conj(c*(xi)), with c*(xi) = quad(F^-1 c * conj(u_xi)) the
pairing of the reconstructed function against the u-family; the sum
equals the quadrature L2 norm of the reconstructed function.  It is
asserted (not clamped) to be real and nonnegative so any degradation of
biorthogonality surfaces instead of being hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ShapeError
from .model import ModelProblem, _window_position

IMAG_TOL = 1e-10


@dataclass
class CoeffVector:
    """Coefficients over the truncated window {-N, ..., N}."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, xi: int) -> complex:
        return complex(self.values[_window_position(xi, len(self.values))])


def _check_grid(model: ModelProblem, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.shape != (model.Q,):
        raise ShapeError(f"grid function has shape {f.shape}, expected ({model.Q},)")
    return f.astype(complex)


def fourier(model: ModelProblem, f: np.ndarray) -> CoeffVector:
    """Forward transform: c(xi) = quad(f * conj(v_xi))."""
    f = _check_grid(model, f)
    return CoeffVector(model.conj_v @ (model.w * f))


def inverse(model: ModelProblem, c: CoeffVector) -> np.ndarray:
    """Expansion f = sum_xi c(xi) u_xi on the grid."""
    if len(c) != len(model.indices):
        raise ShapeError(f"coefficient vector has length {len(c)}, expected {len(model.indices)}")
    return c.values @ model.u


def _u_pairing(model: ModelProblem, c: CoeffVector) -> np.ndarray:
    """c*(xi) = quad(F^-1 c * conj(u_xi)) over the window."""
    return model.conj_u @ (model.w * inverse(model, c))


def _assert_real_nonneg(s: complex, what: str) -> float:
    scale = max(abs(s), 1.0)
    if abs(s.imag) > IMAG_TOL * scale:
        raise NumericalConsistencyError(f"{what}: imaginary residue {s.imag:.3e} exceeds tolerance")
    if s.real < -IMAG_TOL * scale:
        raise NumericalConsistencyError(f"{what}: negative real part {s.real:.3e}")
    return max(s.real, 0.0)


def l2L_norm(model: ModelProblem, c: CoeffVector) -> float:
    """Sequence-space norm (sum_xi c(xi) conj(c*(xi)))^(1/2): `sobolev_norm` at s = 0."""
    return sobolev_norm(model, c, 0.0)


def sobolev_norm(model: ModelProblem, c: CoeffVector, s: float) -> float:
    """Sobolev norm (sum_xi <xi>^(2s) c(xi) conj(c*(xi)))^(1/2)."""
    weights = model.bracket_val(model.indices) ** (2.0 * s)
    total = complex(np.sum(weights * c.values * _u_pairing(model, c).conj()))
    return float(np.sqrt(_assert_real_nonneg(total, f"Sobolev norm (s={s})")))


def band_limited(model: ModelProblem, rng: np.random.Generator) -> np.ndarray:
    """A random band-limited grid function (coefficients ~ complex normal)."""
    c = rng.standard_normal(len(model.indices)) + 1j * rng.standard_normal(len(model.indices))
    return inverse(model, CoeffVector(c))


def l2_grid_norm(model: ModelProblem, f: np.ndarray) -> float:
    """Quadrature L2 norm of a grid function."""
    f = _check_grid(model, f)
    return float(np.sqrt(model.quad(np.abs(f) ** 2).real))


def l_convolution(model: ModelProblem, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Convolution adapted to the eigenbasis: hat(f * g) = fhat * ghat."""
    cf = fourier(model, f)
    cg = fourier(model, g)
    return inverse(model, CoeffVector(cf.values * cg.values))


def coefficient_gram(model: ModelProblem) -> np.ndarray:
    """Gram matrix G[eta, xi] = quad(u_xi * conj(u_eta)), built once per
    model (`ModelProblem.gram`) and read-only.

    The quadrature L2 norm of f = sum c(xi) u_xi is (c^H G c)^(1/2); G is
    the identity for the self-adjoint torus kinds.
    """
    return model.gram
