"""Truncated model spectral problems with closed-form biorthogonal eigen-data.

Three built-in boundary-value operators on [0, 1) are supported, each with
eigenvalues and (bi)orthogonal eigenfunctions known in closed form:

``torus_derivative``
    -i d/dx with periodic boundary, lambda_j = 2*pi*j, u_j = v_j = e^{2i pi j x}.
``h_derivative``
    -i d/dx with the twisted boundary condition h*u(0) = u(1),
    lambda_j = 2*pi*j - i*ln(h), u_j = h^x e^{2i pi j x}, v_j = h^-x e^{2i pi j x}.
``torus_laplacian``
    -d^2/dx^2 with periodic boundary, lambda_j = 4*pi^2*j^2, u_j = v_j = e^{2i pi j x}.

Eigen-data is always generated from these closed forms, never from a
numerical eigensolver, so every downstream test value has an analytic
provenance.  Integration uses the Q-point periodic trapezoid rule on [0, 1)
with uniform weights 1/Q; it is exact for the trigonometric-polynomial
integrands produced by pairing any u with any v.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError, WindowExhaustedError

KINDS = ("torus_derivative", "h_derivative", "torus_laplacian")

#: order m of the three built-in operators
_KIND_ORDER = {"torus_derivative": 1.0, "h_derivative": 1.0, "torus_laplacian": 2.0}

#: default extension margin: how far past +-N evaluator symbols are sampled
DEFAULT_MARGIN = 4

#: smallest |u_xi|, |v_xi| that `check_wz` passes and symbol extraction divides by
BASIS_FLOOR = 1e-12

_token_counter = itertools.count()


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`: the one place an array is made read-only, so
    no caller can corrupt a cached or shared array through what it is given."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a truncated model problem.

    N is the symmetric truncation (index window {-N, ..., N}), Q the number
    of quadrature points, h the boundary twist (h_derivative only), m the
    operator order (filled in from the kind when omitted).
    """

    kind: str
    N: int
    Q: int
    h: Optional[float] = None
    m: Optional[float] = None

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.N < 0:
            raise ConfigurationError(f"truncation N must be nonnegative, got {self.N}")
        if self.Q < 2 * (2 * self.N + 1):
            raise ConfigurationError(
                f"quadrature size Q={self.Q} violates Q >= 2*(2N+1) = {2 * (2 * self.N + 1)}"
            )
        if self.kind == "h_derivative":
            if self.h is None or self.h <= 0:
                raise ConfigurationError("h_derivative requires h > 0")
        elif self.h is not None:
            raise ConfigurationError(f"parameter h is only meaningful for h_derivative, got kind {self.kind!r}")
        if self.m is not None and self.m <= 0:
            raise ConfigurationError("operator order m must be positive")
        with np.errstate(over="ignore"):  # the farthest row the calculus reads by default
            edge = self.bracket_val(self.N + DEFAULT_MARGIN)
        if not np.isfinite(edge):
            raise ConfigurationError(f"operator order m={self.order} is too small for N={self.N}: "
                                     f"<xi> overflows at |xi| = N + {DEFAULT_MARGIN}")

    @property
    def order(self) -> float:
        return self.m if self.m is not None else _KIND_ORDER[self.kind]

    def lam(self, xi):
        """Eigenvalue lambda_xi for any integer index (scalar or array)."""
        xi = np.asarray(xi)
        if self.kind == "torus_derivative":
            return 2.0 * np.pi * xi + 0.0j
        if self.kind == "h_derivative":
            return 2.0 * np.pi * xi - 1.0j * math.log(self.h)
        return 4.0 * np.pi**2 * xi.astype(float) ** 2 + 0.0j

    def bracket_val(self, xi):
        """L-Japanese bracket <xi> = (1 + |lambda_xi|^2)^(1/(2m))."""
        return (1.0 + np.abs(self.lam(xi)) ** 2) ** (1.0 / (2.0 * self.order))


@dataclass
class ModelProblem:
    """A built model: grid, weights, truncated eigen-data, and the
    closed-form basis u (or its dual v) on any integer index, `basis_at`
    on any points and `basis_rows` on the grid (difference operators read
    past the truncation edge)."""

    spec: ModelSpec
    indices: np.ndarray        # (2N+1,) ints, ascending
    u: np.ndarray              # (2N+1, Q) eigenfunction samples
    v: np.ndarray              # (2N+1, Q) biorthogonal family samples
    x: np.ndarray              # (Q,) grid points in [0, 1)
    w: np.ndarray              # (Q,) quadrature weights, all 1/Q
    token: int = field(default_factory=lambda: next(_token_counter))

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def Q(self) -> int:
        return self.spec.Q

    @property
    def order(self) -> float:
        return self.spec.order

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """(2N+1,) complex lambda_xi over the window."""
        return self.lam(self.indices)

    # -- closed-form evaluators on arbitrary integer indices ---------------

    def lam(self, xi):
        return self.spec.lam(xi)

    def bracket_val(self, xi):
        return self.spec.bracket_val(xi)

    def index_scalars(self, xi: int) -> tuple:
        """(lambda_xi, <xi>) for one integer index, as the Python scalars a
        symbol evaluator receives.  Evaluated on 0-d arrays: the array
        evaluation of <xi> can differ in the last bit on torus_laplacian."""
        return complex(self.lam(xi)), float(self.bracket_val(xi))

    def window_scalars(self, margin: int) -> tuple:
        """(xi, lambda_xi, <xi>) for xi = -N-margin..N+margin, from
        index_scalars once per margin and then shared by every table."""
        rows = self._window_scalars.get(margin)
        if rows is None:
            M = self.N + margin
            rows = tuple((xi, *self.index_scalars(xi)) for xi in range(-M, M + 1))
            self._window_scalars[margin] = rows
        return rows

    @cached_property
    def _window_scalars(self) -> dict:
        return {}

    @cached_property
    def conj_u(self) -> np.ndarray:
        """conj(u), which the sequence-space norms pair against; read-only."""
        return _read_only(self.u.conj())

    @cached_property
    def conj_v(self) -> np.ndarray:
        """conj(v), which the forward transform pairs against; read-only."""
        return _read_only(self.v.conj())

    @cached_property
    def weighted_dual(self) -> np.ndarray:
        """w * conj(v): the left factor of every Galerkin matrix; read-only."""
        return _read_only(self.w * self.conj_v)

    @cached_property
    def gram(self) -> np.ndarray:
        """G[eta, xi] = quad(u_xi * conj(u_eta)), the coefficient Gram matrix; read-only."""
        return _read_only((self.conj_u * self.w) @ self.u.T)

    def basis_at(self, xs, xi: int, dual: bool = False) -> np.ndarray:
        """u_xi (v_xi if `dual`) sampled at arbitrary points xs in [0, 1]."""
        xs = np.asarray(xs, dtype=float)
        phase = np.exp(2j * np.pi * xi * xs)
        if self.spec.kind == "h_derivative":
            return self.spec.h ** (-xs if dual else xs) * phase
        return phase

    def basis_rows(self, lo: int, hi: int, dual: bool = False) -> np.ndarray:
        """Stacked u_xi (v_xi if `dual`) rows on the model grid for
        xi = lo..hi inclusive: the model's own rows inside the window,
        `basis_at` past +-N."""
        own = self.v if dual else self.u
        return np.stack([own[xi + self.N] if -self.N <= xi <= self.N
                         else self.basis_at(self.x, xi, dual) for xi in range(lo, hi + 1)])

    def u_row(self, xi: int) -> np.ndarray:
        """u_xi on the model grid (any integer index, from the closed form)."""
        return self.basis_rows(xi, xi)[0]

    def quad(self, values: np.ndarray):
        """Periodic trapezoid quadrature along the last axis."""
        return values @ self.w


@dataclass
class BracketTable:
    """Bracket values over the truncated window."""

    indices: np.ndarray
    values: np.ndarray

    def __getitem__(self, xi: int) -> float:
        return float(self.values[_window_position(xi, len(self.values))])


def _window_position(xi: int, length: int) -> int:
    """Position of index xi in an array of the given length over {-N, ..., N}."""
    N = (length - 1) // 2
    if abs(xi) > N:
        raise WindowExhaustedError(f"index xi={xi} read outside the window +-{N}")
    return xi + N


@dataclass
class WZReport:
    """Grid infima of |u_xi|, |v_xi| with a power-law fit inf >= C <xi>^-N."""

    indices: np.ndarray
    inf_u: np.ndarray
    inf_v: np.ndarray
    fitted_C: float
    fitted_exponent: float
    passed: bool


@dataclass
class TailReport:
    """Partial sums of sum <xi>^-s and a decay diagnosis of the increments."""

    s: float
    ks: np.ndarray
    partial_sums: np.ndarray
    increments: np.ndarray
    fitted_decay: float
    convergent_looking: bool


def build_model(spec: ModelSpec) -> ModelProblem:
    """Instantiate a model problem from closed-form eigen-data, once the
    ModelSpec invariants hold."""
    spec.validate()

    Q = spec.Q
    x = np.arange(Q, dtype=float) / Q
    w = np.full(Q, 1.0 / Q)
    indices = np.arange(-spec.N, spec.N + 1)

    phases = np.exp(2j * np.pi * np.outer(indices, x))
    if spec.kind == "h_derivative":
        u = spec.h**x * phases
        v = spec.h ** (-x) * phases
    else:
        u, v = phases, phases.copy()
    return ModelProblem(spec=spec, indices=indices, u=u, v=v, x=x, w=w)


def biorthogonality_row_deviations(model: ModelProblem) -> np.ndarray:
    """Per xi, the max over eta of |quad(u_xi * conj(v_eta)) - delta_{xi,eta}|."""
    gram = (model.u * model.w) @ model.conj_v.T
    return np.max(np.abs(gram - np.eye(len(model.indices))), axis=1)


def check_biorthogonality(model: ModelProblem) -> float:
    """Max over (xi, eta) of |quad(u_xi * conj(v_eta)) - delta_{xi,eta}|."""
    return float(np.max(biorthogonality_row_deviations(model)))


def check_wz(model: ModelProblem) -> WZReport:
    """Infima of |u|, |v| over the closed domain and the WZ power-law fit.

    The quadrature grid lives on [0, 1); the infimum is taken over the grid
    augmented with the closure point x = 1, where e.g. h^-x attains its
    minimum for h > 1.  It passes when every infimum is at least `BASIS_FLOOR`.
    """
    xs = np.concatenate([model.x, [1.0]])
    inf_u, inf_v = (np.array([np.min(np.abs(model.basis_at(xs, xi, dual)))
                              for xi in model.indices]) for dual in (False, True))
    passed = bool(np.all(inf_u >= BASIS_FLOOR) and np.all(inf_v >= BASIS_FLOOR))

    # least-squares fit of log inf|u| = log C - N * log<xi> over both families
    br = model.bracket_val(model.indices)
    logs = np.log(np.concatenate([br, br]))
    vals = np.concatenate([inf_u, inf_v])
    if passed and len(vals) > 1:
        A = np.stack([np.ones_like(logs), -logs], axis=1)
        coef, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
        fitted_C, fitted_exp = math.exp(coef[0]), float(coef[1])
    else:
        fitted_C, fitted_exp = float("nan"), float("nan")
    return WZReport(model.indices, inf_u, inf_v, fitted_C, fitted_exp, passed)


def bracket(model: ModelProblem) -> BracketTable:
    """Bracket table <xi> over the truncated window."""
    return BracketTable(model.indices, model.bracket_val(model.indices))


def s0_tail(model: ModelProblem, s: float) -> TailReport:
    """Partial sums S_k = sum_{|xi|<=k} <xi>^-s for k = 1..N.

    The increments S_k - S_{k-1} = <k>^-s + <-k>^-s decay like k^-s for the
    built-in kinds; the series looks convergent when the fitted decay
    exponent exceeds 1.
    """
    br = model.bracket_val(model.indices)
    terms = br ** (-s)
    N = model.N
    ks = np.arange(1, N + 1)
    increments = terms[N + ks] + terms[N - ks]
    # np.cumsum adds in sequence: S_k = S_{k-1} + increments_k, from S_0 = <0>^-s
    sums = np.cumsum(np.concatenate(([terms[N]], increments)))[1:]

    if N >= 3:
        k_lo = max(1, N // 2)
        sel = ks >= k_lo
        with np.errstate(divide="ignore"):
            y = np.log(increments[sel])
        if np.all(np.isfinite(y)):
            slope = np.polyfit(np.log(ks[sel].astype(float)), y, 1)[0]
        else:
            slope = 0.0
        fitted_decay = -float(slope)
    else:
        fitted_decay = s if s > 0 else 0.0
    convergent = fitted_decay > 1.05
    return TailReport(s, ks, sums, increments, fitted_decay, convergent)
