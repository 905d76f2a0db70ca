"""Quantization, symbol extraction, kernels, Galerkin matrices, calculus.

The quantization rule is Af(x) = sum_xi u_xi(x) a(x, xi) fhat(xi); its
inverse is symbol extraction sigma_A(x, xi) = u_xi(x)^-1 (A u_xi)(x),
which requires the eigenfunctions to stay away from zero.  On the
truncated window these two are exact inverses of each other because the
discrete transform reproduces coefficients of basis functions exactly.

Composition and adjoint are implemented as truncated asymptotic
expansions in the difference operators; the exact finite-section operator
(a product or conjugate transpose of Galerkin matrices, re-extracted as a
symbol) serves as the independent oracle.  Finite sections corrupt the
outermost modes, so comparisons are meaningful on the inner half-window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ShapeError, SpectrumProximityError, WindowExhaustedError, WZViolationError
from .model import ModelProblem
from .symbols import Symbol, apply_D, apply_Delta, apply_Delta_star
from .transform import CoeffVector, fourier, inverse


@dataclass
class GalerkinMatrix:
    """Finite section M[eta, xi] = fourier(Op(a) u_xi)(eta)."""

    matrix: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the finite section, computed on first use; read-only."""
        spec = np.linalg.eigvals(self.matrix)
        spec.flags.writeable = False
        return spec

    def apply(self, c: CoeffVector) -> CoeffVector:
        if len(c) != self.matrix.shape[1]:
            raise ShapeError(f"coefficient length {len(c)} does not match matrix {self.matrix.shape}")
        return CoeffVector(self.matrix @ c.values, tag=c.tag)


@dataclass
class KernelTable:
    """Samples K(x_i, y_j) of the Schwartz kernel on the grid."""

    values: np.ndarray


def op_apply(model: ModelProblem, sym: Symbol, f: np.ndarray) -> np.ndarray:
    """Apply Op(a) to a grid function through the quantization sum."""
    return op_apply_coeff(model, sym, fourier(model, f))


def op_apply_coeff(model: ModelProblem, sym: Symbol, c: CoeffVector) -> np.ndarray:
    """Apply Op(a) directly to coefficients (skips one forward transform)."""
    tab = sym.table(model, 0)
    return np.einsum("k,kx,kx->x", c.values, tab, model.u, optimize=True)


def extract_symbol(model: ModelProblem, apply: Callable[[np.ndarray], np.ndarray]) -> Symbol:
    """Recover the symbol of an operator from its action on eigenfunctions,
    over the window {-N, ..., N}."""
    rows = []
    for xi, u in zip(model.indices, model.u):
        if np.min(np.abs(u)) < 1e-12:
            raise WZViolationError(f"|u_{xi}| falls below 1e-12 on the grid; cannot divide")
        rows.append(apply(u) / u)
    return Symbol.from_table(model, np.stack(rows), 0, name="extracted")


def symbol_of_matrix(model: ModelProblem, M: np.ndarray, order: float = 0.0,
                     rho: float = 1.0, delta: float = 0.0, name: str = "matrix", *,
                     basis: Optional[np.ndarray] = None) -> Symbol:
    """Symbol of the operator defined by a finite-section matrix in a basis
    b (default model.u): sigma(x, xi) = b_xi(x)^-1 sum_eta M[eta, xi] b_eta(x)."""
    b = model.u if basis is None else basis
    if np.min(np.abs(b)) < 1e-12:
        raise WZViolationError("|basis| falls below 1e-12 on the grid; cannot divide")
    tab = (M.T @ b) / b
    return Symbol.from_table(model, tab, 0, order=order, rho=rho, delta=delta, name=name)


def kernel(model: ModelProblem, sym: Symbol) -> KernelTable:
    """Schwartz kernel K(x, y) = sum_xi u_xi(x) a(x, xi) conj(v_xi(y))."""
    tab = sym.table(model, 0)
    K = np.einsum("kx,kx,ky->xy", model.u, tab, model.conj_v, optimize=True)
    return KernelTable(values=K)


def kernel_apply(model: ModelProblem, K: KernelTable, f: np.ndarray) -> np.ndarray:
    """Apply an operator through its kernel: g(x) = quad_y K(x, y) f(y)."""
    f = np.asarray(f)
    if f.shape != (model.Q,):
        raise ShapeError(f"grid function has shape {f.shape}, expected ({model.Q},)")
    return K.values @ (model.w * f)


def galerkin_matrix(model: ModelProblem, sym: Symbol) -> GalerkinMatrix:
    """Matrix of Op(a) in the biorthogonal basis, cached per symbol and model.
    The cached arrays are read-only, so no caller can corrupt the cache."""
    key = ("galerkin", model.token)
    if key not in sym._cache:
        M = model.weighted_dual @ (sym.table(model, 0) * model.u).T
        M.flags.writeable = False
        sym._cache[key] = GalerkinMatrix(matrix=M)
    return sym._cache[key]


def check_solvable(A: np.ndarray, what: str):
    """Raise unless A is safely invertible: s_min >= 1e-12 * max(1, s_max).
    Unlike a condition number, this also trips on a matrix that is all roundoff.
    A non-finite entry raises at once.

    Before the SVD, a closed-form certificate tries to pass A.  With R_i and
    C_i the absolute row and column sums of A (diagonal included), d_i = |a_ii|
    and n the order of A, Johnson's bound (C. R. Johnson, Linear Algebra Appl.
    112, 1989) gives

        L = min_i (d_i - (R_i - d_i + C_i - d_i) / 2) <= s_min,
        U = sqrt(||A||_1 ||A||_inf) >= s_max,

    and A passes when L - slack >= 1e-12 * max(1, U).  The slack is

        slack = 2 (n + 4) eps (||A||_1 + ||A||_inf).

    It covers two errors.  Rounding the sums and L costs at most
    (n + 4) eps (R_i + C_i), since each |a_ij| carries ~1 ulp and each sum
    n - 1 additions.  The SVD's backward error, taken as n eps s_max, moves
    the computed s_min by at most n eps (||A||_1 + ||A||_inf) / 2.  So a matrix the
    certificate passes is passed by the SVD rule too, and the guard trips
    wherever the SVD alone tripped.  Otherwise the SVD rule decides."""
    if not np.isfinite(A).all():
        raise SpectrumProximityError(f"{what} has non-finite entries")
    mag = np.abs(A)
    diag = np.diagonal(mag)
    rows, cols = mag.sum(axis=1), mag.sum(axis=0)
    norm_inf, norm_1 = float(rows.max()), float(cols.max())
    lower = float(np.min(2.0 * diag - 0.5 * (rows + cols)))
    slack = 2.0 * (len(diag) + 4) * float(np.finfo(float).eps) * (norm_1 + norm_inf)
    if lower - slack >= 1e-12 * max(1.0, math.sqrt(norm_1 * norm_inf)):
        return
    s = np.linalg.svd(A, compute_uv=False)
    if not s[-1] >= 1e-12 * max(1.0, s[0]):
        raise SpectrumProximityError(f"{what} has singular values {s[0]:.3e} down to {s[-1]:.3e}")


def compose_symbols(model: ModelProblem, a: Symbol, b: Symbol, terms: int) -> Symbol:
    """Truncated composition expansion
    sigma^(terms) = sum_{alpha < terms} (1/alpha!) (Delta^alpha a)(D^(alpha) b)."""
    if terms < 1:
        raise WindowExhaustedError("composition expansion needs terms >= 1")
    _, out_margin = a.margin_after(model, terms - 1, f"composition with terms={terms}")

    total = np.zeros((2 * (model.N + out_margin) + 1, model.Q), dtype=complex)
    for alpha in range(terms):
        da = apply_Delta(model, a, alpha)
        db = apply_D(model, b, alpha)
        term = da.table(model, out_margin) * db.table(model, out_margin)
        total += term / math.factorial(alpha)
    return Symbol.from_table(model, total, out_margin, order=a.order + b.order,
                             rho=min(a.rho, b.rho), delta=max(a.delta, b.delta),
                             name=f"({a.name} o {b.name})[{terms}]")


def adjoint_symbol(model: ModelProblem, a: Symbol, terms: int) -> Symbol:
    """Truncated adjoint expansion
    tau^(terms) = sum_{alpha < terms} (1/alpha!) Delta~^alpha D^(alpha) conj(a).

    For a multiplier (no x-dependence) every D^(alpha) conj(a) with
    alpha >= 1 is identically zero, so its Delta~^alpha is zero too and
    builds no coupling tensor (see `symbols._delta`)."""
    if terms < 1:
        raise WindowExhaustedError("adjoint expansion needs terms >= 1")
    margin, out_margin = a.margin_after(model, terms - 1, f"adjoint with terms={terms}")

    # conj(a), cached on a, keeps its own D^(alpha) and Delta~^alpha from one call to the next
    key = ("conj", margin, model.token)
    conj_a = a._cache.get(key) or a.keep(key, Symbol.from_table(
        model, np.conj(a.table(model, margin)), margin, order=a.order, rho=a.rho,
        delta=a.delta, name=f"conj[{a.name}]"))
    total = np.zeros((2 * (model.N + out_margin) + 1, model.Q), dtype=complex)
    for alpha in range(terms):
        work = apply_D(model, conj_a, alpha)
        work = apply_Delta_star(model, work, alpha)
        total += work.table(model, out_margin) / math.factorial(alpha)
    return Symbol.from_table(model, total, out_margin, order=a.order, rho=a.rho,
                             delta=a.delta, name=f"adj[{a.name}][{terms}]")


def inner_window(model: ModelProblem, fraction: float = 0.5) -> np.ndarray:
    """Boolean mask of the inner part of the index window, |xi| <= N * fraction."""
    return np.abs(model.indices) <= model.N * fraction


def composition_oracle(model: ModelProblem, a: Symbol, b: Symbol) -> Symbol:
    """Exact finite-section composition: product of Galerkin matrices,
    re-extracted as a symbol."""
    Ma = galerkin_matrix(model, a).matrix
    Mb = galerkin_matrix(model, b).matrix
    return symbol_of_matrix(model, Ma @ Mb, order=a.order + b.order,
                            name=f"oracle({a.name} o {b.name})")


#: roundoff allowance of the composition check, in units of eps times the
#: weighted oracle: it keeps the floor at 1e-8 for the shipped compose config
#: at N = 16 and clears the measured roundoff of an exact expansion about
#: threefold at N = 32 and 64
COMPOSE_FLOOR_C = 300.0


def composition_floor(model: ModelProblem, oracle: np.ndarray, order: float,
                      terms: int) -> float:
    """The level below which the weighted remainder of a `terms`-term
    composition expansion is roundoff, given the oracle table over the
    window and the order of the composition:

        max(1e-8, c * eps * max over the inner half-window of
                  <xi>^(terms - order) * sup_x |oracle(x, xi)|),  c = COMPOSE_FLOOR_C.

    The remainder is weighted by the same <xi>^(terms - order), so the
    roundoff of an exact expansion grows with N and a fixed floor would
    read it as divergence."""
    weight = model.bracket_val(model.indices) ** (terms - order)
    size = np.max(np.abs(oracle), axis=1)
    scale = float(np.max((size * weight)[inner_window(model, 0.5)]))
    return max(1e-8, COMPOSE_FLOOR_C * float(np.finfo(float).eps) * scale)


def adjoint_oracle(model: ModelProblem, a: Symbol) -> Symbol:
    """Exact finite-section adjoint: conjugate transpose of the Galerkin
    matrix, extracted against the v-basis."""
    M = galerkin_matrix(model, a).matrix
    return symbol_of_matrix(model, M.conj().T, order=a.order,
                            name=f"oracle(adj {a.name})", basis=model.v)


def band_limited(model: ModelProblem, rng: np.random.Generator) -> np.ndarray:
    """A random band-limited grid function (coefficients ~ complex normal)."""
    c = rng.standard_normal(len(model.indices)) + 1j * rng.standard_normal(len(model.indices))
    return inverse(model, CoeffVector(c, tag="L"))
