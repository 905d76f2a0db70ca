"""Lower bounds and L2 estimates: Garding constants, the epsilon-
interpolation inequality, Hilbert-Schmidt and operator norms of truncated
sections.

The Garding estimator is empirical by design: it draws seeded random
coefficient vectors, evaluates the quadratic form Re(Au, u) directly on
the grid, sets C1 = 1/C0 from the positivity precheck (`ellipticity_floor`,
which the evolution gate shares) and fits the smallest C2 >= 0 such that

    Re(Au, u) >= C1 ||u||_{H^{m/2}}^2 - C2 ||u||_{L2}^2

holds on every trial.  The squared Sobolev term is used throughout (the
inequality is dimensionally consistent only in that form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, EllipticityError, NumericalConsistencyError
from .model import ModelProblem, ModelSpec, build_model
from .quantize import galerkin_matrix, kernel
from .symbols import Symbol
from .transform import coefficient_gram


@dataclass
class GardingReport:
    C0: float
    C1: float
    C2: float
    quad_forms: np.ndarray      # per-trial Re(Au, u)
    sobolev_sq: np.ndarray      # per-trial ||u||^2_{H^{m/2}}
    l2_sq: np.ndarray           # per-trial ||u||^2_{L2}
    margins: np.ndarray         # per-trial Re(Au, u) - C1 ||u||^2_{H^{m/2}} + C2 ||u||^2_{L2}
    violations: int
    verdict: bool


def ellipticity_floor(model: ModelProblem, re_tab: np.ndarray, m: float) -> float:
    """min of re_tab / <xi>^m over the window and the grid.  The positivity
    precheck passes when it is > 0, and then C0 = 1 / floor."""
    br = model.bracket_val(model.indices)
    return float(np.min(re_tab / (br**m)[:, None]))


def garding_estimate(model: ModelProblem, a: Symbol, m: float, trials: int = 200,
                     seed: int = 0) -> GardingReport:
    """Estimate Garding constants for the real-part symbol of a.

    Raises ConfigurationError for trials < 1, EllipticityError when
    A = Re a fails the positivity precheck |<xi>^m A^-1| <= C0 on the
    sampled window, and NumericalConsistencyError when a quadratic form,
    Sobolev or L2 value is not finite.
    """
    if trials < 1:
        raise ConfigurationError(f"Garding estimate needs trials >= 1, got {trials}")
    tab = a.table(model, 0)
    floor = ellipticity_floor(model, tab.real, m)
    if floor <= 0:
        raise EllipticityError("real-part symbol is not positive elliptic on the window")
    C0 = 1.0 / floor

    rng = np.random.default_rng(seed)
    n = len(model.indices)
    quad_forms = np.empty(trials)
    sob_sq = np.empty(trials)
    l2_sq = np.empty(trials)
    sob_weights = model.bracket_val(model.indices) ** m
    # trial-invariant rows: a(., xi) u_xi, which c contracts into Au as the
    # einsum of `op_apply_coeff` does, and conj(u_xi) w of the starred pairing
    tab_u = tab * model.u
    star = model.conj_u * model.w
    for t in range(trials):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        u = c @ model.u
        Au = c @ tab_u
        quad_forms[t] = float(np.real(model.quad(Au * np.conj(u))))
        # grid-quadrature Sobolev/L2 norms through the starred pairing
        sob_sq[t] = float(np.real(np.sum(sob_weights * c * np.conj(star @ u))))
        l2_sq[t] = float(np.real(model.quad(np.abs(u) ** 2)))
    if not np.isfinite((quad_forms, sob_sq, l2_sq)).all():
        raise NumericalConsistencyError("Garding trial has a non-finite quadratic form or norm")

    # 1/C0, not the floor itself: 1/(1/floor) need not equal floor
    C1 = 1.0 / C0
    C2 = float(max(0.0, np.max((C1 * sob_sq - quad_forms) / l2_sq)))

    margins = quad_forms - C1 * sob_sq + C2 * l2_sq
    violations = int(np.sum(margins < -1e-9 * np.maximum(1.0, np.abs(quad_forms))))
    return GardingReport(C0=C0, C1=C1, C2=C2, quad_forms=quad_forms, sobolev_sq=sob_sq,
                         l2_sq=l2_sq, margins=margins, violations=violations,
                         verdict=bool(violations == 0))


def interpolation_constant(model: ModelProblem, s: float, t: float, eps: float,
                           trials: int = 100, seed: int = 0) -> float:
    """Smallest discrete constant with ||u||_t^2 <= eps ||u||_s^2 + C ||u||_{L2}^2.

    C = max over the window of (<xi>^{2t} - eps <xi>^{2s}), floored at 0;
    the inequality is then validated on random coefficient vectors.
    """
    if eps <= 0:
        raise ConfigurationError("interpolation requires eps > 0")
    if not ((s >= t >= 0) or (s < 0 and t < 0)):
        raise ConfigurationError(f"interpolation requires s >= t >= 0 or s, t < 0; got s={s}, t={t}")
    br = model.bracket_val(model.indices)
    C = float(max(0.0, np.max(br ** (2 * t) - eps * br ** (2 * s))))

    rng = np.random.default_rng(seed)
    n = len(model.indices)
    for _ in range(trials):
        c2 = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)) ** 2
        lhs = float(np.sum(br ** (2 * t) * c2))
        rhs = eps * float(np.sum(br ** (2 * s) * c2)) + C * float(np.sum(c2))
        if lhs > rhs * (1 + 1e-12):
            raise EllipticityError("interpolation inequality violated; fitted constant inconsistent")
    return C


def hilbert_schmidt_norm(model: ModelProblem, a: Symbol) -> float:
    """Hilbert-Schmidt norm of the kernel, by grid quadrature in both slots."""
    K = kernel(model, a)
    return float(np.sqrt(np.real(np.einsum("i,ij,j->", model.w, np.abs(K) ** 2, model.w))))


def l2_operator_norm(spec: ModelSpec, a: Symbol, truncations: Sequence[int]) -> np.ndarray:
    """Largest singular value of the Galerkin section at each truncation.

    For non-self-adjoint models the norm is taken in the sequence-space
    geometry: the largest s with M^H G M x = s^2 G x, G the coefficient Gram
    matrix, which is ||R M R^-1||_2 for G = R^H R (Golub & Van Loan, Matrix
    Computations, sec. 8.7).  Truncations must be ascending; each one
    rebuilds the model with a proportionally enlarged grid; a G that is not
    numerically positive definite raises NumericalConsistencyError.
    """
    truncations = list(truncations)
    if truncations != sorted(truncations):
        raise ConfigurationError("truncations must be ascending")
    norms = []
    for N in truncations:
        Q = max(spec.Q, 4 * (2 * N + 1))
        sub = build_model(ModelSpec(kind=spec.kind, N=N, Q=Q, h=spec.h, m=spec.m))
        M = galerkin_matrix(sub, a).matrix
        G = coefficient_gram(sub)
        if np.allclose(G, np.eye(G.shape[0]), atol=1e-12):
            norms.append(float(np.linalg.norm(M, 2)))
        else:
            # L = R^H; ||R M R^-1||_2 = ||(R M R^-1)^H||_2 = ||L^-1 M^H L||_2
            try:
                L = np.linalg.cholesky(G)
            except np.linalg.LinAlgError as exc:
                raise NumericalConsistencyError(
                    f"coefficient Gram at truncation N={N} is not positive definite") from exc
            norms.append(float(np.linalg.norm(np.linalg.solve(L, M.conj().T @ L), 2)))
    return np.array(norms)
