"""Fourier analysis in the biorthogonal eigenbasis.

The forward transform pairs against the v-family, the starred transform
against the u-family; inversion expands in u (resp. v).  On the truncated
span the pair (fourier, inverse) is exactly bijective because the
quadrature integrates every u*conj(v) product exactly.

Norms follow the sequence-space geometry generated by the biorthogonal
system: the squared norm of a coefficient vector c is
sum_xi c(xi) * conj((F* o F^-1 c)(xi)), which equals the quadrature L2
norm of the reconstructed function.  The sum is asserted (not clamped) to
be real and nonnegative so any degradation of biorthogonality surfaces
instead of being hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NumericalConsistencyError, ShapeError, TagError
from .model import ModelProblem

IMAG_TOL = 1e-10


@dataclass
class CoeffVector:
    """Coefficients over the truncated window, tagged by producing transform."""

    values: np.ndarray
    tag: Literal["L", "L*"] = "L"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, xi: int) -> complex:
        return complex(self.values[xi + (len(self.values) - 1) // 2])


def _check_grid(model: ModelProblem, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.shape != (model.Q,):
        raise ShapeError(f"grid function has shape {f.shape}, expected ({model.Q},)")
    return f.astype(complex)


def _check_tag(c: CoeffVector, tag: str):
    if c.tag != tag:
        raise TagError(f"coefficient vector tagged {c.tag!r} where {tag!r} is required")


def fourier(model: ModelProblem, f: np.ndarray) -> CoeffVector:
    """Forward transform: c(xi) = quad(f * conj(v_xi))."""
    f = _check_grid(model, f)
    return CoeffVector(model.conj_v @ (model.w * f), tag="L")


def fourier_star(model: ModelProblem, f: np.ndarray) -> CoeffVector:
    """Starred transform: c(xi) = quad(f * conj(u_xi))."""
    f = _check_grid(model, f)
    return CoeffVector(model.conj_u @ (model.w * f), tag="L*")


def inverse(model: ModelProblem, c: CoeffVector) -> np.ndarray:
    """Expansion f = sum_xi c(xi) u_xi on the grid."""
    _check_tag(c, "L")
    if len(c) != len(model.indices):
        raise ShapeError(f"coefficient vector has length {len(c)}, expected {len(model.indices)}")
    return c.values @ model.u


def inverse_star(model: ModelProblem, c: CoeffVector) -> np.ndarray:
    """Expansion f = sum_xi c(xi) v_xi on the grid."""
    _check_tag(c, "L*")
    if len(c) != len(model.indices):
        raise ShapeError(f"coefficient vector has length {len(c)}, expected {len(model.indices)}")
    return c.values @ model.v


def _assert_real_nonneg(s: complex, what: str) -> float:
    scale = max(abs(s), 1.0)
    if abs(s.imag) > IMAG_TOL * scale:
        raise NumericalConsistencyError(f"{what}: imaginary residue {s.imag:.3e} exceeds tolerance")
    if s.real < -IMAG_TOL * scale:
        raise NumericalConsistencyError(f"{what}: negative real part {s.real:.3e}")
    return max(s.real, 0.0)


def l2L_norm(model: ModelProblem, c: CoeffVector) -> float:
    """Sequence-space norm (sum_xi c * conj(F* F^-1 c))^(1/2)."""
    _check_tag(c, "L")
    fstar = fourier_star(model, inverse(model, c))
    s = complex(np.sum(c.values * fstar.values.conj()))
    return float(np.sqrt(_assert_real_nonneg(s, "l2L norm")))


def sobolev_norm(model: ModelProblem, c: CoeffVector, s: float) -> float:
    """Sobolev norm (sum_xi <xi>^(2s) c(xi) conj(c*(xi)))^(1/2).

    c* is recomputed through the starred transform of the reconstructed
    grid function, exercising both transforms.
    """
    _check_tag(c, "L")
    fstar = fourier_star(model, inverse(model, c))
    weights = model.bracket_val(model.indices) ** (2.0 * s)
    total = complex(np.sum(weights * c.values * fstar.values.conj()))
    return float(np.sqrt(_assert_real_nonneg(total, f"Sobolev norm (s={s})")))


def l2_grid_norm(model: ModelProblem, f: np.ndarray) -> float:
    """Quadrature L2 norm of a grid function."""
    f = _check_grid(model, f)
    return float(np.sqrt(model.quad(np.abs(f) ** 2).real))


def l_convolution(model: ModelProblem, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Convolution adapted to the eigenbasis: hat(f * g) = fhat * ghat."""
    cf = fourier(model, f)
    cg = fourier(model, g)
    return inverse(model, CoeffVector(cf.values * cg.values, tag="L"))


def coefficient_gram(model: ModelProblem) -> np.ndarray:
    """Gram matrix G[eta, xi] = quad(u_xi * conj(u_eta)).

    The quadrature L2 norm of f = sum c(xi) u_xi is (c^H G c)^(1/2); G is
    the identity for the self-adjoint torus kinds.
    """
    return (model.conj_u * model.w) @ model.u.T
