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
from typing import Callable, Optional, Sequence

import numpy as np

from . import threads
from .errors import AdmissibilityError, ConfigurationError, WindowExhaustedError
from .model import ModelProblem

#: default extension margin: how far past +-N evaluator symbols are sampled
DEFAULT_MARGIN = 4


# ---------------------------------------------------------------------------
# admissible family
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AdmissibleFamily:
    """A single difference-generating function q(x, y) and its y-derivatives
    on the diagonal (as Taylor coefficients of s -> q(x, x+s) at s = 0).

    A family compares and hashes by identity: the differences a symbol
    caches are keyed by the family object that produced them."""

    q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diag_taylor: np.ndarray  # coefficients c_k of q(x, x+s) = sum c_k s^k, c_0 = 0
    name: str = "q"
    _conjugate: Optional["AdmissibleFamily"] = field(default=None, init=False, repr=False)

    def power_xy(self, x: np.ndarray, y: np.ndarray, alpha: int) -> np.ndarray:
        """q^alpha on the grid x[:, None] x y[None, :]."""
        return self.q(x[:, None], y[None, :]) ** alpha

    def conjugate(self) -> "AdmissibleFamily":
        """Adjoint family q~(x, y) = conj(q(x, y)), built once per family;
        the conjugate of q~ is this family itself."""
        if self._conjugate is None:
            tilde = AdmissibleFamily(
                q=lambda x, y: np.conj(self.q(x, y)),
                diag_taylor=np.conj(self.diag_taylor),
                name=self.name + "~",
            )
            object.__setattr__(self, "_conjugate", tilde)
            object.__setattr__(tilde, "_conjugate", self)
        return self._conjugate


def default_family() -> AdmissibleFamily:
    """q(x, y) = e^{2i pi (y-x)} - 1 with diagonal Taylor data to order 8."""
    coeffs = np.array([0.0] + [(2j * np.pi) ** k / math.factorial(k) for k in range(1, 9)])
    return AdmissibleFamily(
        q=lambda x, y: np.exp(2j * np.pi * (y - x)) - 1.0,
        diag_taylor=coeffs,
        name="exp_diff",
    )


#: the default family and its conjugate, built once and shared by every default argument
DEFAULT_FAMILY = default_family()
DEFAULT_FAMILY_TILDE = DEFAULT_FAMILY.conjugate()


@dataclass
class DOperatorTransform:
    """Triangular system T[beta, alpha] = (1/alpha!) d^beta_y q^alpha |_{y=x}
    and its inverse, expressing derived derivatives through ordinary ones:
    D^(alpha) = sum_beta Tinv[alpha, beta] d^beta_x."""

    T: np.ndarray
    Tinv: np.ndarray


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
    # T (rows beta, columns alpha) is lower triangular; column-oriented forward
    # substitution for T Tinv = I keeps exact zeros above the diagonal of Tinv
    Tinv = np.eye(K + 1, dtype=complex)
    for k in range(K + 1):
        Tinv[k] /= T[k, k]
        Tinv[k + 1:] -= T[k + 1:, k, None] * Tinv[k]
    return DOperatorTransform(T=T, Tinv=Tinv)


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
    A symbol must not be mutated once evaluated: its tables, Galerkin
    matrices and derived symbols (D^(beta), Delta^alpha, Delta~^alpha and
    conj, see `keep`) are cached per model, and a cached value would go
    stale.  They live as long as the symbol does.
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

    def margin_after(self, model: ModelProblem, levels: int, what: str) -> tuple:
        """(available margin, margin left after using `levels` index levels)."""
        margin = self.available_margin(model)
        if margin < levels:
            raise WindowExhaustedError(
                f"{what} needs margin >= {levels}, symbol {self.name!r} has {margin}")
        return margin, margin - levels

    def values(self, model: ModelProblem, xi: int) -> np.ndarray:
        """Samples a(x_i, xi) on the model grid."""
        self._check_model(model)
        if self._table is not None:
            off = model.N + self.margin
            if not -off <= xi <= off:
                raise WindowExhaustedError(
                    f"symbol {self.name!r} read at xi={xi}, valid window is +-{off}"
                )
            row = self._table[xi + off]  # a view: the table's own flags stay as they are
            row.flags.writeable = False
            return row
        if self.margin is not None and abs(xi) > model.N + self.margin:
            raise WindowExhaustedError(
                f"symbol {self.name!r} read at xi={xi} beyond declared margin {self.margin}"
            )
        out = self.fn(model.x, xi, *model.index_scalars(xi))
        return np.broadcast_to(np.asarray(out, dtype=complex), (model.Q,)).copy()

    def table(self, model: ModelProblem, margin: int = 0) -> np.ndarray:
        """Sample table over {-N-margin, ..., N+margin}; cached per model.
        An evaluator is called once per index, each result broadcast to the grid.
        The table is a read-only view, so no caller can corrupt a later hit
        or the Galerkin matrices and derived symbols computed from it."""
        key = (model.token, margin)
        if key in self._cache:
            return self._cache[key]
        self._check_model(model)
        if self.margin is not None and margin > self.margin:
            raise WindowExhaustedError(
                f"symbol {self.name!r} has margin {self.margin}, requested {margin}"
            )
        if self._table is not None:
            tab = trim_window(self._table, self.margin, margin)
        else:
            rows = model.window_scalars(margin)
            tab = np.empty((len(rows), model.Q), dtype=complex)
            for i, (xi, lam, br) in enumerate(rows):
                tab[i] = self.fn(model.x, xi, lam, br)
        tab = tab.view()  # an array handed to from_table keeps its own flags
        tab.flags.writeable = False
        self._cache[key] = tab
        return tab

    def keep(self, key: tuple, derived: "Symbol") -> "Symbol":
        """Cache `derived`, a table-backed symbol computed from this one,
        under `key` = (operation, order or margin, model token[, family]).
        Its table is made read-only, so no caller can corrupt a later hit."""
        derived._table.flags.writeable = False
        self._cache[key] = derived
        return derived


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
            family: AdmissibleFamily = DEFAULT_FAMILY) -> Symbol:
    """Derived derivative D^(beta) of a symbol, sampled on an extended window.

    Ordinary x-derivatives are taken spectrally and recombined through the
    triangular transform of the family.  The result is cached on `sym`.
    """
    if beta == 0:
        return sym
    key = ("D", beta, model.token, family)
    if key in sym._cache:
        return sym._cache[key]
    tr = d_operator_transform(family, beta)
    margin = sym.available_margin(model)
    tab = sym.table(model, margin)
    out = np.zeros_like(tab)
    for j in range(1, beta + 1):
        coef = tr.Tinv[beta, j]
        if coef != 0:
            out += coef * _spectral_x_derivative(model, tab, j)
    return sym.keep(key, Symbol.from_table(model, out, margin, order=sym.order + sym.delta * beta,
                                           rho=sym.rho, delta=sym.delta,
                                           name=f"D^{beta}[{sym.name}]"))


#: the coupling tensor as an einsum over (q^alpha, conj(dual_in), basis_out, w)
_COUPLING = "xy,ey,gy,y->xge"

#: bytes of the coupling-tensor blocks alive at once, over all lanes, per BLAS
#: thread: every window at N <= 16 (Q = 8N) is one block, a window at N = 32
#: is five or six at one lane, and memory stays bounded as N grows
BLOCK_BYTES = 4 << 20


def coupling_tensor(model: ModelProblem, family: AdmissibleFamily, alpha: int,
                    basis_w: np.ndarray, dual_conj: np.ndarray, q_pow: np.ndarray,
                    product: np.ndarray, out: np.ndarray) -> np.ndarray:
    """C[xi, eta, x] = quad_y(q^alpha(x, y) conj(dual_eta(y)) basis_xi(y)),
    built into `out` for the rows xi of `basis_w` = w·basis and eta of
    `dual_conj` = conj(dual), given `q_pow`, the family's q^alpha on the
    grid.  `product` is scratch; it and `out` are (xi, eta, Q) arrays the
    caller owns.  `family` and `alpha` name the tensor for the traces and
    tests that wrap this builder.

    The steps are those einsum takes for _COUPLING along the path its
    optimizer picks for every window with Q >= 32: w·basis (the caller's),
    the product with conj(dual), then one BLAS product against q^alpha,
    each with einsum's operands in einsum's order, so C has its bits.
    (Below Q = 32 the optimizer may pick another path, whose bits may
    differ in the last place.)"""
    np.multiply(basis_w[:, None, :], dual_conj[None, :, :], out=product)
    np.matmul(product.reshape(-1, model.Q), q_pow.T, out=out.reshape(-1, model.Q))
    return out


def _coupled_rows(model: ModelProblem, family: AdmissibleFamily, alpha: int,
                  B_out: np.ndarray, D_in: np.ndarray, weighted: list) -> list:
    """sum_eta C[xi, eta, x] weighted[eta, x] over the rows xi of B_out,
    for each array of `weighted`, with C the coupling tensor of B_out and
    D_in.  C is built and contracted in blocks of rows xi: the whole window
    if it fits in the budget of BLOCK_BYTES per BLAS thread, else blocks of
    the budget over the `threads.lanes()` lanes, which work through them
    side by side, lane k taking every lanes-th block from the k-th.  The
    calling thread allocates every array a block needs, one set per lane
    reused over its blocks, and the rows each block contracts into, so no
    lane allocates and the blocks alive at once stay within the budget."""
    n_lanes = threads.lanes()
    # a lane whose BLAS runs several threads (at most the thread cap) takes a
    # block as large per thread: a few rows are too small a product for them
    budget = BLOCK_BYTES * min(threads.blas_threads(),
                               threads.setting() or threads.usable_cores())
    Q, n_out, n_in = model.Q, len(B_out), len(D_in)
    row_bytes = Q * n_in * 16
    if n_out * row_bytes > budget:
        budget //= n_lanes
    blocks = threads.blocks(n_out, row_bytes, budget)
    n_lanes = min(n_lanes, len(blocks))
    shape = (blocks[0].stop, n_in, Q)  # the first block is a longest one
    buffers = [(np.empty(shape, complex), np.empty(shape, complex)) for _ in range(n_lanes)]
    B_w = np.multiply(model.w, B_out)
    D_conj = np.conj(D_in)
    q_pow = family.power_xy(model.x, model.x, alpha)
    summed = [np.empty((n_out, Q), complex) for _ in weighted]

    def lane(k):
        product, tensor = buffers[k]
        for rows in blocks[k::n_lanes]:
            n = rows.stop - rows.start
            C = coupling_tensor(model, family, alpha, B_w[rows], D_conj, q_pow,
                                product[:n], tensor[:n])
            for w, s in zip(weighted, summed):
                np.einsum("gex,ex->gx", C, w, out=s[rows])

    if n_lanes == 1:
        lane(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # a few ms to load: only here

        with ThreadPoolExecutor(n_lanes - 1) as pool:
            # the calling thread is lane 0, which saves a helper
            helped = [pool.submit(lane, k) for k in range(1, n_lanes)]
            lane(0)
            for future in helped:
                future.result()
    return summed


def _delta(model: ModelProblem, syms: Sequence[Symbol], alpha: int, family: AdmissibleFamily,
           basis: Callable, dual: Callable, label: str) -> list[Symbol]:
    """Delta^alpha against a (basis b, dual basis d, family q) triple, given
    b and d as block builders (lo, hi) -> rows:
    b_xi(x)^-1 sum_eta b_eta(x) a(x, eta) quad_y(q^alpha(x, y) conj(d_eta(y)) b_xi(y)).

    Each result is cached on its input symbol under (label, alpha, model
    token, family).  The coupling tensor depends on the window but not on
    the symbol, so it serves every symbol that misses the cache over the
    same input margin.  It is built and contracted in blocks of output rows
    xi (`_coupled_rows`): all lanes' blocks together take at most
    BLOCK_BYTES per BLAS thread, in arrays the calling thread owns, and
    none is kept.  Every block is built from the whole window's w·b,
    conj(d) and q^alpha by the same operations, in the same order, as
    those rows of the whole tensor, and contracted into its own rows of the
    result.  That the BLAS product then gives each row the same bits is
    pinned by the tests.

    A symbol whose input table is identically zero has Delta^alpha = 0: it
    gets a zero table with the margin, order, name and cache entry of any
    other result, and takes no part in the contraction, so a window with no
    other symbol builds no coupling tensor, no q^alpha and no basis blocks.
    (The tensor route would give sums of C·0, zeros whose sign may be -0.)"""
    if alpha == 0:
        return list(syms)
    # every window is checked before any cache hit is taken
    margins = [sym.margin_after(model, alpha, f"{label}^{alpha}")[0] for sym in syms]
    key = (label, alpha, model.token, family)
    out = [sym._cache.get(key) for sym in syms]
    windows = {}  # input margin -> positions in syms that miss the cache
    for i, in_margin in enumerate(margins):
        if out[i] is None:
            windows.setdefault(in_margin, []).append(i)

    for in_margin, members in windows.items():
        out_margin = in_margin - alpha
        in_off = model.N + in_margin
        out_off = model.N + out_margin
        tables = [syms[i].table(model, in_margin) for i in members]
        live = [k for k, tab in enumerate(tables) if tab.any()]
        results = [None] * len(members)  # None: an identically zero input
        if live:
            B_out = basis(-out_off, out_off)            # (2*out_off+1, Q)
            B_in = basis(-in_off, in_off)
            summed = _coupled_rows(model, family, alpha, B_out, dual(-in_off, in_off),
                                   [B_in * tables[k] for k in live])
            for k, s in zip(live, summed):
                results[k] = np.divide(s, B_out, out=s)
        for i, res in zip(members, results):
            sym = syms[i]
            if res is None:
                res = np.zeros((2 * out_off + 1, model.Q), complex)
            out[i] = sym.keep(key, Symbol.from_table(
                model, res, out_margin, order=sym.order - sym.rho * alpha,
                rho=sym.rho, delta=sym.delta, name=f"{label}^{alpha}[{sym.name}]"))
    return out


def apply_Delta_many(model: ModelProblem, syms: Sequence[Symbol], alpha: int,
                     family: AdmissibleFamily = DEFAULT_FAMILY) -> list[Symbol]:
    """`apply_Delta` of each symbol in `syms`.

    One coupling tensor serves every symbol read over the same window that
    has no cached Delta^alpha for this model and family, so each result is
    bitwise the one a call of its own gives.  A call in which every symbol
    hits its cache builds no tensor.  A symbol whose table is identically
    zero over its window gets a zero Delta^alpha and joins no contraction,
    so a window of such symbols alone builds no tensor either.
    """
    return _delta(model, syms, alpha, family, model.u_block, model.v_block, "Delta")


def apply_Delta(model: ModelProblem, sym: Symbol, alpha: int,
                family: AdmissibleFamily = DEFAULT_FAMILY) -> Symbol:
    """Difference operator Delta^alpha through the coupling-tensor route:

        Delta^a a(x, xi) = u_xi(x)^-1 sum_eta u_eta(x) a(x, eta) C[xi, eta, x].

    For the built-in models with the default family this equals the forward
    difference iterated alpha times, which tests exploit as an oracle.
    """
    return apply_Delta_many(model, [sym], alpha, family)[0]


def apply_Delta_star(model: ModelProblem, sym: Symbol, alpha: int,
                     family: AdmissibleFamily = DEFAULT_FAMILY_TILDE) -> Symbol:
    """Adjoint difference operator: the same construction with u and v
    swapped and the conjugate family q~ as default."""
    return _delta(model, [sym], alpha, family, model.v_block, model.u_block, "Delta~")[0]


def seminorm(model: ModelProblem, sym: Symbol, l: float, alpha: int, beta: int,
             rho: float, delta: float) -> float:
    """Class seminorm sup_{x, xi} |Delta^a D^(b) a(x, xi)| <xi>^(-l + rho a - delta b)."""
    work = apply_D(model, sym, beta)
    work = apply_Delta(model, work, alpha)
    tab = work.table(model, 0)
    weights = model.bracket_val(model.indices) ** (-l + rho * alpha - delta * beta)
    return float(np.max(np.abs(tab) * weights[:, None]))


@dataclass
class SeminormReport:
    """Per-(alpha, beta) seminorms together with a fitted order."""

    values: dict
    fitted_order: float


def estimate_order(model: ModelProblem, sym: Symbol, rho: float, delta: float) -> SeminormReport:
    """Estimate the symbol order from the decay of difference profiles.

    For each pair (alpha, beta) with alpha, beta <= 2 the profile
    sup_x |Delta^a D^(b) a(x, xi)| is least-squares fitted to a power of
    <xi>; the pair then certifies the order (slope + rho*alpha - delta*beta).
    The symbol order is the max over pairs: a profile may decay faster than its class bound (that only
    certifies a smaller class), so averaging across pairs would be wrong.
    Identically negligible profiles carry no information and are skipped.
    """
    N = model.N
    xi_lo = max(2, N // 4)
    sel = np.abs(model.indices) >= xi_lo
    if np.count_nonzero(sel) < 3:
        sel = model.indices != 0
    log_br = np.log(model.bracket_val(model.indices)[sel])
    if len(np.unique(log_br)) < 2:
        raise ConfigurationError(f"order fit needs two distinct <xi> off xi = 0; N={N} has fewer")

    implied, values = [], {}
    d_beta = [apply_D(model, sym, beta) for beta in range(3)]
    for alpha in range(3):
        for beta, work in enumerate(apply_Delta_many(model, d_beta, alpha)):
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

    Available: bracket_power(power), lambda_multiplier(order), constant(value),
    x_modulated_bracket(power, amplitude), exp_mode(mode, power),
    mode_indicator(mode).  Every entry also passes the Symbol fields rho,
    delta and margin through; any other key raises ConfigurationError.
    """
    if name == "bracket_power":
        p = float(params.pop("power", 1.0))
        fn, order, label = (lambda x, xi, lam, br: np.full_like(x, br**p, dtype=complex),
                            p, f"bracket^{p:g}")
    elif name == "lambda_multiplier":
        # order equals the generating operator's order; set at bind time by caller
        fn, order, label = (lambda x, xi, lam, br: np.full_like(x, lam, dtype=complex),
                            float(params.pop("order", 1.0)), "lambda")
    elif name == "constant":
        c = complex(params.pop("value", 1.0))
        fn, order, label = (lambda x, xi, lam, br: np.full_like(x, c, dtype=complex),
                            0.0, f"const({c:g})" if c.imag == 0 else "const")
    elif name == "x_modulated_bracket":
        p = float(params.pop("power", 1.0))
        amp = float(params.pop("amplitude", 0.5))
        fn, order, label = (
            lambda x, xi, lam, br: (1.0 + amp * np.sin(2.0 * np.pi * x)) * br**p + 0.0j,
            p, f"(1+{amp:g} sin)bracket^{p:g}")
    elif name == "exp_mode":
        k = int(params.pop("mode", 1))
        p = float(params.pop("power", 0.0))
        fn, order, label = (lambda x, xi, lam, br: np.exp(2j * np.pi * k * x) * br**p,
                            p, f"e(2pi i {k}x)br^{p:g}")
    elif name == "mode_indicator":
        k = int(params.pop("mode", 0))
        fn, order, label = (lambda x, xi, lam, br: np.full_like(x, 1.0 + 0.0j if xi == k else 0.0j,
                                                                dtype=complex),
                            0.0, f"indicator({k})")
    else:
        raise ConfigurationError(f"unknown symbol {name!r} in registry")
    extra = sorted(set(params) - {"rho", "delta", "margin"})
    if extra:
        raise ConfigurationError(f"symbol {name!r} takes no parameter {', '.join(extra)}")
    return Symbol(fn=fn, order=order, name=label, **params)
