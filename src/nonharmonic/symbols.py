"""Symbols, difference operators, derived derivatives, and class seminorms.

A symbol is an evaluator a(x, xi, lambda_xi, <xi>) declared with an order m
and type parameters (rho, delta).  Difference operators Delta^alpha act in
the index variable through coupling integrals against an admissible family
q(x, y) vanishing on the diagonal; derivatives D^(beta) act in x through a
triangular change of basis from ordinary derivatives.

The default family is the single function q(x, y) = e^{2i pi (y-x)} - 1.
It is periodic in y (so multiplication preserves both built-in boundary
domains), has nonvanishing first derivative on the diagonal, and makes
Delta an exact forward difference on all built-in models, which supplies
closed-form oracles for every downstream expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import AdmissibilityError, ConfigurationError, WindowExhaustedError
from .model import ModelProblem

#: default extension margin: how far past +-N evaluator symbols are sampled
DEFAULT_MARGIN = 4


# ---------------------------------------------------------------------------
# admissible family
# ---------------------------------------------------------------------------

@dataclass
class AdmissibleFamily:
    """A single difference-generating function q(x, y) and its y-derivatives
    on the diagonal (as Taylor coefficients of s -> q(x, x+s) at s = 0)."""

    q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diag_taylor: np.ndarray  # coefficients c_k of q(x, x+s) = sum c_k s^k, c_0 = 0
    name: str = "q"

    def power_xy(self, x: np.ndarray, y: np.ndarray, alpha: int) -> np.ndarray:
        """q^alpha on the grid x[:, None] x y[None, :]."""
        return self.q(x[:, None], y[None, :]) ** alpha

    def conjugate(self) -> "AdmissibleFamily":
        """Adjoint family q~(x, y) = conj(q(x, y))."""
        return AdmissibleFamily(
            q=lambda x, y: np.conj(self.q(x, y)),
            diag_taylor=np.conj(self.diag_taylor),
            name=self.name + "~",
        )


def default_family(max_order: int = 8) -> AdmissibleFamily:
    """q(x, y) = e^{2i pi (y-x)} - 1 with diagonal Taylor data."""
    coeffs = np.array([0.0] + [(2j * np.pi) ** k / math.factorial(k) for k in range(1, max_order + 1)])
    return AdmissibleFamily(
        q=lambda x, y: np.exp(2j * np.pi * (y - x)) - 1.0,
        diag_taylor=coeffs,
        name="exp_diff",
    )


@dataclass
class DOperatorTransform:
    """Triangular system T[beta, alpha] = (1/alpha!) d^beta_y q^alpha |_{y=x}
    and its inverse, expressing derived derivatives through ordinary ones:
    D^(alpha) = sum_beta Tinv[alpha, beta] d^beta_x."""

    T: np.ndarray
    Tinv: np.ndarray
    max_order: int


def d_operator_transform(family: AdmissibleFamily, max_order: int) -> DOperatorTransform:
    """Build the change of basis between d^beta and D^(alpha) up to max_order.

    From the Taylor expansion q(x, x+s) = sum_k c_k s^k with c_0 = 0 the
    entries are T[beta, alpha] = (beta! / alpha!) [s^beta] q(s)^alpha, which
    is lower triangular with diagonal (c_1)^beta * beta!/beta! != 0 exactly
    when c_1 != 0.
    """
    c = family.diag_taylor
    if len(c) < max_order + 1:
        raise ConfigurationError(
            f"family {family.name!r} provides {len(c) - 1} diagonal derivatives, need {max_order}"
        )
    if abs(c[1]) < 1e-14:
        raise AdmissibilityError(f"family {family.name!r} has vanishing d_y q on the diagonal")

    K = max_order
    T = np.zeros((K + 1, K + 1), dtype=complex)
    T[0, 0] = 1.0
    # powers of the truncated Taylor polynomial of q
    poly = np.zeros(K + 1, dtype=complex)
    poly[0] = 1.0  # q^0 = 1
    base = c[: K + 1]
    for alpha in range(1, K + 1):
        poly = np.convolve(poly, base)[: K + 1]
        for beta in range(K + 1):
            T[beta, alpha] = math.factorial(beta) / math.factorial(alpha) * poly[beta]
    # rows index beta, columns alpha; T[beta, alpha] = 0 for alpha > beta
    Tinv = solve_triangular(T, np.eye(K + 1, dtype=complex), lower=True)
    return DOperatorTransform(T=T, Tinv=Tinv, max_order=K)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass
class Symbol:
    """Symbol a(x, xi) with declared order and type.

    Exactly one of fn / table backs the symbol.  fn(x, xi, lam, br) returns
    grid samples for a single integer index and is valid on any index
    (margin None: the calculus then reads DEFAULT_MARGIN past +-N unless told
    otherwise); table-backed symbols carry samples over the window
    {-N-margin, ..., N+margin} of the model they were built from.
    A symbol must not be mutated once evaluated: its tables and Galerkin
    matrices are cached per model, and a cached value would go stale.
    """

    fn: Optional[Callable] = None
    order: float = 0.0
    rho: float = 1.0
    delta: float = 0.0
    margin: Optional[int] = None
    name: str = "symbol"
    _table: Optional[np.ndarray] = None
    _table_token: Optional[int] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_table(cls, model: ModelProblem, table: np.ndarray, margin: int,
                   order: float = 0.0, rho: float = 1.0, delta: float = 0.0,
                   name: str = "table") -> "Symbol":
        table = np.asarray(table, dtype=complex)
        expected = (2 * (model.N + margin) + 1, model.Q)
        if table.shape != expected:
            raise ConfigurationError(f"symbol table has shape {table.shape}, expected {expected}")
        return cls(order=order, rho=rho, delta=delta, margin=margin, name=name,
                   _table=table, _table_token=model.token)

    def _check_model(self, model: ModelProblem):
        if self._table is not None and self._table_token != model.token:
            raise ConfigurationError(f"symbol {self.name!r} was tabulated on a different model")

    def available_margin(self, model: ModelProblem) -> int:
        """How far past +-N the symbol may be read: its declared margin, or
        DEFAULT_MARGIN for an evaluator symbol without one."""
        self._check_model(model)
        return DEFAULT_MARGIN if self.margin is None else self.margin

    def values(self, model: ModelProblem, xi: int) -> np.ndarray:
        """Samples a(x_i, xi) on the model grid."""
        self._check_model(model)
        if self._table is not None:
            off = model.N + self.margin
            if not -off <= xi <= off:
                raise WindowExhaustedError(
                    f"symbol {self.name!r} read at xi={xi}, valid window is +-{off}"
                )
            return self._table[xi + off]
        if self.margin is not None and abs(xi) > model.N + self.margin:
            raise WindowExhaustedError(
                f"symbol {self.name!r} read at xi={xi} beyond declared margin {self.margin}"
            )
        out = self.fn(model.x, xi, complex(model.lam(xi)), float(model.bracket_val(xi)))
        return np.broadcast_to(np.asarray(out, dtype=complex), (model.Q,)).copy()

    def table(self, model: ModelProblem, margin: int = 0) -> np.ndarray:
        """Sample table over {-N-margin, ..., N+margin}; cached per model."""
        key = (model.token, margin)
        if key in self._cache:
            return self._cache[key]
        if self._table is not None:
            self._check_model(model)
            if margin > self.margin:
                raise WindowExhaustedError(
                    f"symbol {self.name!r} has margin {self.margin}, requested {margin}"
                )
            tab = trim_window(self._table, self.margin, margin)
        else:
            M = model.N + margin
            tab = np.stack([self.values(model, xi) for xi in range(-M, M + 1)])
        self._cache[key] = tab
        return tab


def trim_window(tab: np.ndarray, from_margin: int, to_margin: int) -> np.ndarray:
    """Rows of a table over {-N-from_margin, ..., N+from_margin} restricted
    to {-N-to_margin, ..., N+to_margin}."""
    off = from_margin - to_margin
    return tab[off: len(tab) - off] if off else tab


# ---------------------------------------------------------------------------
# the operators D^(beta) and Delta^alpha
# ---------------------------------------------------------------------------

def _spectral_x_derivative(model: ModelProblem, rows: np.ndarray, order: int) -> np.ndarray:
    """d^order/dx^order of the trigonometric interpolant, row-wise."""
    if order == 0:
        return rows
    Q = model.Q
    freqs = np.fft.fftfreq(Q, d=1.0 / Q)  # integer frequencies
    mult = (2j * np.pi * freqs) ** order
    if Q % 2 == 0 and order % 2 == 1:
        mult[Q // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.ifft(np.fft.fft(rows, axis=-1) * mult, axis=-1)


def apply_D(model: ModelProblem, sym: Symbol, beta: int,
            family: Optional[AdmissibleFamily] = None,
            margin: Optional[int] = None) -> Symbol:
    """Derived derivative D^(beta) of a symbol, sampled on an extended window.

    Ordinary x-derivatives are taken spectrally and recombined through the
    triangular transform of the family.
    """
    if beta == 0:
        return sym
    family = family or default_family()
    tr = d_operator_transform(family, beta)
    if margin is None:
        margin = sym.available_margin(model)
    tab = sym.table(model, margin)
    out = np.zeros_like(tab)
    for j in range(1, beta + 1):
        coef = tr.Tinv[beta, j]
        if coef != 0:
            out += coef * _spectral_x_derivative(model, tab, j)
    return Symbol.from_table(model, out, margin, order=sym.order + sym.delta * beta,
                             rho=sym.rho, delta=sym.delta, name=f"D^{beta}[{sym.name}]")


def coupling_tensor(model: ModelProblem, family: AdmissibleFamily, alpha: int,
                    basis_out: np.ndarray, dual_in: np.ndarray) -> np.ndarray:
    """C[x, xi, eta] = quad_y(q^alpha(x, y) conj(dual_eta(y)) basis_xi(y)) for
    the rows xi of basis_out and eta of dual_in."""
    q_pow = family.power_xy(model.x, model.x, alpha)  # (Q, Q)
    return np.einsum("xy,ey,gy,y->xge", q_pow, dual_in.conj(), basis_out, model.w,
                     optimize=True)


def _delta(model: ModelProblem, sym: Symbol, alpha: int, family: AdmissibleFamily,
           basis: Callable, dual: Callable, label: str) -> Symbol:
    """Delta^alpha against a (basis b, dual basis d, family q) triple, given
    b and d as block builders (lo, hi) -> rows:
    b_xi(x)^-1 sum_eta b_eta(x) a(x, eta) quad_y(q^alpha(x, y) conj(d_eta(y)) b_xi(y))."""
    if alpha == 0:
        return sym
    in_margin = sym.available_margin(model)
    out_margin = in_margin - alpha
    if out_margin < 0:
        raise WindowExhaustedError(
            f"{label}^{alpha} needs margin >= {alpha}, symbol {sym.name!r} has {in_margin}"
        )
    in_off = model.N + in_margin
    out_off = model.N + out_margin

    tab = sym.table(model, in_margin)                # (2*in_off+1, Q)
    B_in = basis(-in_off, in_off)                    # (2*in_off+1, Q)
    B_out = basis(-out_off, out_off)
    C = coupling_tensor(model, family, alpha, B_out, dual(-in_off, in_off))  # (Q, 2*out+1, 2*in+1)
    summed = np.einsum("xge,ex->gx", C, B_in * tab, optimize=True)
    return Symbol.from_table(model, summed / B_out, out_margin, order=sym.order - sym.rho * alpha,
                             rho=sym.rho, delta=sym.delta, name=f"{label}^{alpha}[{sym.name}]")


def apply_Delta(model: ModelProblem, sym: Symbol, alpha: int,
                family: Optional[AdmissibleFamily] = None) -> Symbol:
    """Difference operator Delta^alpha through the coupling-tensor route:

        Delta^a a(x, xi) = u_xi(x)^-1 sum_eta u_eta(x) a(x, eta) C[x, xi, eta].

    For the built-in models with the default family this equals the forward
    difference iterated alpha times, which tests exploit as an oracle.
    """
    return _delta(model, sym, alpha, family or default_family(),
                  model.u_block, model.v_block, "Delta")


def apply_Delta_star(model: ModelProblem, sym: Symbol, alpha: int,
                     family: Optional[AdmissibleFamily] = None) -> Symbol:
    """Adjoint difference operator: the same construction with u and v
    swapped and the conjugate family q~ as default."""
    return _delta(model, sym, alpha, family or default_family().conjugate(),
                  model.v_block, model.u_block, "Delta~")


def seminorm(model: ModelProblem, sym: Symbol, l: float, alpha: int, beta: int,
             rho: float, delta: float,
             family: Optional[AdmissibleFamily] = None) -> float:
    """Class seminorm sup_{x, xi} |Delta^a D^(b) a(x, xi)| <xi>^(-l + rho a - delta b)."""
    family = family or default_family()
    work = apply_D(model, sym, beta, family)
    work = apply_Delta(model, work, alpha, family)
    tab = work.table(model, 0)
    weights = model.bracket_val(model.indices) ** (-l + rho * alpha - delta * beta)
    return float(np.max(np.abs(tab) * weights[:, None]))


@dataclass
class SeminormReport:
    """Per-(alpha, beta) seminorms together with a fitted order."""

    values: dict
    fitted_order: float


def estimate_order(model: ModelProblem, sym: Symbol, rho: float, delta: float,
                   family: Optional[AdmissibleFamily] = None,
                   max_alpha: int = 2, max_beta: int = 2) -> SeminormReport:
    """Estimate the symbol order from the decay of difference profiles.

    For each pair (alpha, beta) the profile sup_x |Delta^a D^(b) a(x, xi)|
    is least-squares fitted to a power of <xi>; the pair then certifies the
    order (slope + rho*alpha - delta*beta).  The symbol order is the max
    over pairs: a profile may decay faster than its class bound (that only
    certifies a smaller class), so averaging across pairs would be wrong.
    Identically negligible profiles carry no information and are skipped.
    """
    family = family or default_family()
    N = model.N
    xi_lo = max(2, N // 4)
    sel = np.abs(model.indices) >= xi_lo
    if np.count_nonzero(sel) < 3:
        sel = model.indices != 0
    log_br = np.log(model.bracket_val(model.indices)[sel])

    implied, values = [], {}
    d_beta = [apply_D(model, sym, beta, family) for beta in range(max_beta + 1)]
    for alpha in range(max_alpha + 1):
        for beta in range(max_beta + 1):
            work = apply_Delta(model, d_beta[beta], alpha, family)
            profile = np.max(np.abs(work.table(model, 0)), axis=1)
            values[(alpha, beta)] = float(
                np.max(profile * model.bracket_val(model.indices)
                       ** (-sym.order + rho * alpha - delta * beta)))
            prof = profile[sel]
            if np.max(prof) < 1e-12 * max(1.0, float(np.max(profile))):
                continue
            slope = np.polyfit(log_br, np.log(np.maximum(prof, 1e-300)), 1)[0]
            implied.append(slope + rho * alpha - delta * beta)

    fitted = max(implied) if implied else float("-inf")
    return SeminormReport(values=values, fitted_order=float(fitted))


# ---------------------------------------------------------------------------
# named symbol registry (CLI-facing)
# ---------------------------------------------------------------------------

def make_symbol(name: str, **params) -> Symbol:
    """Construct a registry symbol by name.

    Available: bracket_power(power), lambda_multiplier, constant(value),
    x_modulated_bracket(power, amplitude), exp_mode(mode, power),
    mode_indicator(mode).
    """
    if name == "bracket_power":
        p = float(params.pop("power", 1.0))
        sym = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, br**p, dtype=complex),
                     order=p, name=f"bracket^{p:g}", **params)
        return sym
    if name == "lambda_multiplier":
        # order equals the generating operator's order; set at bind time by caller
        m = float(params.pop("order", 1.0))
        return Symbol(fn=lambda x, xi, lam, br: np.full_like(x, lam, dtype=complex),
                      order=m, name="lambda", **params)
    if name == "constant":
        c = complex(params.pop("value", 1.0))
        return Symbol(fn=lambda x, xi, lam, br: np.full_like(x, c, dtype=complex),
                      order=0.0, name=f"const({c:g})" if c.imag == 0 else "const", **params)
    if name == "x_modulated_bracket":
        p = float(params.pop("power", 1.0))
        amp = float(params.pop("amplitude", 0.5))
        return Symbol(
            fn=lambda x, xi, lam, br: (1.0 + amp * np.sin(2.0 * np.pi * x)) * br**p + 0.0j,
            order=p, name=f"(1+{amp:g} sin)bracket^{p:g}", **params)
    if name == "exp_mode":
        k = int(params.pop("mode", 1))
        p = float(params.pop("power", 0.0))
        return Symbol(fn=lambda x, xi, lam, br: np.exp(2j * np.pi * k * x) * br**p,
                      order=p, name=f"e(2pi i {k}x)br^{p:g}", **params)
    if name == "mode_indicator":
        k = int(params.pop("mode", 0))
        return Symbol(fn=lambda x, xi, lam, br: np.full_like(x, 1.0 + 0.0j if xi == k else 0.0j,
                                                             dtype=complex),
                      order=0.0, name=f"indicator({k})", **params)
    raise ConfigurationError(f"unknown symbol {name!r} in registry")
