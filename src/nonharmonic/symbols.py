"""Symbols, difference operators, derived derivatives, and class seminorms.

A symbol is an evaluator a(x, xi, lambda_xi, <xi>) declared with an order m;
the type (rho, delta) is an argument of `seminorm`, `estimate_order` and
`calculus.parametrix`, and derived orders follow the (1, 0) class.
Difference operators Delta^alpha act in the index variable through coupling
integrals against an admissible family q(x, y) vanishing on the diagonal;
derivatives D^(beta) act in x through a triangular change of basis from
ordinary derivatives.

The family is the single function q(x, y) = e^{2i pi (y-x)} - 1, and
Delta~ uses its conjugate q~; no other family can be plugged in.  Both
are computed in closed form where they are needed: q^alpha and q~^alpha
on the grid for a coupling tensor, from the 2Q - 1 distinct values of
q(x_i, x_j), which depends on j - i alone (bitwise the dense grid's on a
dyadic Q), and the diagonal Taylor coefficients c_k = (2 pi i)^k / k! to
whatever order D^(beta) asks.  q is periodic in y (so multiplication
preserves both built-in boundary domains), has nonvanishing first
derivative c_1 = 2 pi i on the diagonal, and makes Delta an exact forward
difference on all built-in models, which supplies closed-form oracles for
every downstream expansion.  Since the family is fixed, a derived symbol
is cached under (operation, order, model token) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import threads
from .errors import ConfigurationError, WindowExhaustedError
from .model import DEFAULT_MARGIN, ModelProblem, _read_only


# ---------------------------------------------------------------------------
# the difference family
# ---------------------------------------------------------------------------

def _q_power(Q: int, alpha: int, star: bool) -> np.ndarray:
    """q^alpha (q~^alpha if `star`) on the model grid x_j = j/Q, as the
    C-contiguous (Q, Q) operand of `coupling_tensor`'s product.

    q(x_i, x_j) depends on j - i alone, so the 2Q - 1 distinct values
    e_k = e^{2 pi i k/Q} - 1 (k = 1-Q..Q-1) are raised to alpha and laid
    out as q[i, j] = e_{j-i}.  On a dyadic Q, x_j - x_i is exactly (j-i)/Q,
    so the result is bitwise that of exponentiating x_j - x_i on the dense
    grid; on another Q the angle is the correctly rounded (j-i)/Q, which
    moves q^alpha by at most ~1.2e-14 for alpha <= 3.  The layout is copied
    contiguous because `np.matmul` takes a slower non-BLAS loop, with other
    bits, for a strided operand.  It is built per call and not kept on the
    model: kept there, 2 MB of q~^alpha raised `twisted_timedep`'s peak RSS
    from 75.9 to 81.6 MB, a heap-layout effect of long-lived arrays
    allocated mid-pass."""
    e = np.exp(2j * np.pi * (np.arange(1 - Q, Q) / Q)) - 1.0
    e = (np.conj(e) if star else e) ** alpha
    return np.ascontiguousarray(sliding_window_view(e, Q)[::-1])


def _taylor_coefficients(K: int) -> np.ndarray:
    """Coefficients c_0..c_K of q(x, x+s) = sum_k c_k s^k: c_0 = 0, c_k = (2 pi i)^k / k!."""
    return np.array([0.0] + [(2j * np.pi) ** k / math.factorial(k) for k in range(1, K + 1)])


@dataclass
class DOperatorTransform:
    """Triangular system T[beta, alpha] = (1/alpha!) d^beta_y q^alpha |_{y=x}
    and its inverse, expressing derived derivatives through ordinary ones:
    D^(alpha) = sum_beta Tinv[alpha, beta] d^beta_x."""

    T: np.ndarray
    Tinv: np.ndarray


def d_operator_transform(max_order: int) -> DOperatorTransform:
    """Build the change of basis between d^beta and D^(alpha) up to max_order.

    From the Taylor expansion q(x, x+s) = sum_k c_k s^k with c_0 = 0 the
    entries are T[beta, alpha] = (beta! / alpha!) [s^beta] q(s)^alpha, which
    is lower triangular with diagonal (c_1)^beta = (2 pi i)^beta != 0.
    """
    K = max_order
    T = np.zeros((K + 1, K + 1), dtype=complex)
    T[0, 0] = 1.0
    # powers of the truncated Taylor polynomial of q
    poly = np.zeros(K + 1, dtype=complex)
    poly[0] = 1.0  # q^0 = 1
    base = _taylor_coefficients(K)
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
    """Symbol a(x, xi) with its declared order, margin and name.

    Exactly one of fn / table backs the symbol.  fn(x, xi, lam, br) returns
    grid samples for a single integer index and is valid on any index
    (margin None: the calculus then reads DEFAULT_MARGIN past +-N unless told
    otherwise); table-backed symbols carry samples over the window
    {-N-margin, ..., N+margin} of the model they were built from.
    A symbol must not be mutated once evaluated: its tables, Galerkin matrix,
    derived symbols (D^(beta), Delta^alpha, Delta~^alpha, conj) and Gronwall
    C2 are cached per model by the one rule of `derived`, and a cached value
    would go stale.  They live as long as the symbol does.
    """

    fn: Optional[Callable] = None
    order: float = 0.0
    margin: Optional[int] = None
    name: str = "symbol"
    _table: Optional[np.ndarray] = None
    _table_token: Optional[int] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_table(cls, model: ModelProblem, table: np.ndarray, margin: int,
                   order: float = 0.0, name: str = "table") -> "Symbol":
        table = np.asarray(table, dtype=complex)
        expected = (2 * (model.N + margin) + 1, model.Q)
        if table.shape != expected:
            raise ConfigurationError(f"symbol table has shape {table.shape}, expected {expected}")
        return cls(order=order, margin=margin, name=name, _table=table, _table_token=model.token)

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
            return _read_only(self._table[xi + off])
        if self.margin is not None and abs(xi) > model.N + self.margin:
            raise WindowExhaustedError(
                f"symbol {self.name!r} read at xi={xi} beyond declared margin {self.margin}"
            )
        out = self.fn(model.x, xi, *model.index_scalars(xi))
        return np.broadcast_to(np.asarray(out, dtype=complex), (model.Q,)).copy()

    def table(self, model: ModelProblem, margin: int = 0) -> np.ndarray:
        """Sample table over {-N-margin, ..., N+margin}; cached per model.
        An evaluator is called once per index, each result broadcast to the grid;
        a table-backed symbol gives the rows of its table in that window.
        The table is a read-only view, so no caller can corrupt a later hit
        or the Galerkin matrices and derived symbols computed from it."""
        return self.derived((model.token, margin), lambda: self._tabulate(model, margin))

    def _tabulate(self, model: ModelProblem, margin: int) -> np.ndarray:
        self._check_model(model)
        if self.margin is not None and margin > self.margin:
            raise WindowExhaustedError(
                f"symbol {self.name!r} has margin {self.margin}, requested {margin}"
            )
        if self._table is not None:
            off = self.margin - margin
            return _read_only(self._table[off: len(self._table) - off])
        rows = model.window_scalars(margin)
        tab = np.empty((len(rows), model.Q), dtype=complex)
        for i, (xi, lam, br) in enumerate(rows):
            tab[i] = self.fn(model.x, xi, lam, br)
        return _read_only(tab)

    def derived(self, key: tuple, build: Callable):
        """The value cached on this symbol under `key`, or else `build()`'s,
        stored under `key` first.  A key ends in the model token: (token,
        margin) for a table, (operation, its parameters, token) for the rest."""
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value


# ---------------------------------------------------------------------------
# the operators D^(beta) and Delta^alpha
# ---------------------------------------------------------------------------

def apply_D(model: ModelProblem, sym: Symbol, beta: int) -> Symbol:
    """Derived derivative D^(beta) of a symbol, sampled on an extended window.

    Ordinary x-derivatives are taken spectrally, one inverse FFT per order
    from one forward FFT of the table, and recombined through the triangular
    transform of the family q.  The result is cached on `sym`.
    """
    if beta == 0:
        return sym
    return sym.derived(("D", beta, model.token), lambda: _derivative(model, sym, beta))


def _derivative(model: ModelProblem, sym: Symbol, beta: int) -> Symbol:
    tr = d_operator_transform(beta)
    margin = sym.available_margin(model)
    tab = sym.table(model, margin)
    Q = model.Q
    k = np.fft.fftfreq(Q, d=1.0 / Q)  # integer frequencies
    out = np.zeros_like(tab)
    spectrum = np.fft.fft(tab, axis=-1)
    for j in range(1, beta + 1):
        coef = tr.Tinv[beta, j]
        if coef != 0:
            mult = (2j * np.pi * k) ** j
            if Q % 2 == 0 and j % 2 == 1:
                mult[Q // 2] = 0.0  # the Nyquist mode has no well-defined odd derivative
            out += coef * np.fft.ifft(spectrum * mult, axis=-1)
    return Symbol.from_table(model, out, margin, order=sym.order, name=f"D^{beta}[{sym.name}]")


#: bytes of the coupling-tensor blocks alive at once, over all lanes: every
#: window at N <= 16 (Q = 8N) is one block, a window at N = 32 is five or six
#: at one lane, and memory stays bounded as N grows
BLOCK_BYTES = 4 << 20


def coupling_tensor(basis_w: np.ndarray, dual_conj: np.ndarray, q_pow: np.ndarray,
                    product: np.ndarray, out: np.ndarray) -> np.ndarray:
    """C[xi, eta, x] = quad_y(q^alpha(x, y) conj(dual_eta(y)) basis_xi(y)),
    built into `out` for the rows xi of `basis_w` = w·basis and eta of
    `dual_conj` = conj(dual), given `q_pow`, the (Q, Q) q^alpha (or
    q~^alpha) on the grid.  `product` is scratch; it and `out` are
    (xi, eta, Q) arrays the caller owns.

    The steps are those einsum takes for "xy,ey,gy,y->xge" over (q^alpha,
    conj(dual), basis, w) along the path its optimizer picks for every
    window with Q >= 32: w·basis (the caller's), the product with
    conj(dual), then one BLAS product against q^alpha, each with einsum's
    operands in einsum's order, so C has its bits.
    (Below Q = 32 the optimizer may pick another path, whose bits may
    differ in the last place.)"""
    Q = len(q_pow)
    np.multiply(basis_w[:, None, :], dual_conj[None, :, :], out=product)
    np.matmul(product.reshape(-1, Q), q_pow.T, out=out.reshape(-1, Q))
    return out


def _coupled_rows(model: ModelProblem, star: bool, alpha: int,
                  B_out: np.ndarray, D_in: np.ndarray, weighted: list) -> list:
    """sum_eta C[xi, eta, x] weighted[eta, x] over the rows xi of B_out,
    for each array of `weighted`, with C the coupling tensor of B_out and
    D_in.  C is built and contracted in blocks of rows xi: the whole window
    if it fits in BLOCK_BYTES, else blocks of BLOCK_BYTES over the lanes of
    `threads.side_by_side`, lane k taking every lanes-th block from the
    k-th.  The calling thread allocates every array a block needs, one set
    per lane reused over its blocks, and the rows each block contracts
    into, so no lane allocates and the blocks alive at once stay within
    BLOCK_BYTES."""
    n_lanes = threads.lanes()
    Q, n_out, n_in = model.Q, len(B_out), len(D_in)
    row_bytes = Q * n_in * 16
    budget = BLOCK_BYTES if n_out * row_bytes <= BLOCK_BYTES else BLOCK_BYTES // n_lanes
    blocks = threads.blocks(n_out, row_bytes, budget)
    n_lanes = min(n_lanes, len(blocks))
    shape = (blocks[0].stop, n_in, Q)  # the first block is a longest one
    buffers = [(np.empty(shape, complex), np.empty(shape, complex)) for _ in range(n_lanes)]
    B_w = np.multiply(model.w, B_out)
    D_conj = np.conj(D_in)
    q_pow = _q_power(Q, alpha, star)
    summed = [np.empty((n_out, Q), complex) for _ in weighted]

    def lane(k):
        product, tensor = buffers[k]
        for rows in blocks[k::n_lanes]:
            n = rows.stop - rows.start
            C = coupling_tensor(B_w[rows], D_conj, q_pow, product[:n], tensor[:n])
            for w, s in zip(weighted, summed):
                np.einsum("gex,ex->gx", C, w, out=s[rows])

    threads.side_by_side(lane, n_lanes)
    return summed


def _delta(model: ModelProblem, syms: Sequence[Symbol], alpha: int,
           star: bool) -> list[Symbol]:
    """Delta^alpha (Delta~^alpha if `star`) against a (basis b, dual basis d,
    family q) triple, (u, v, q) or (v, u, q~):
    b_xi(x)^-1 sum_eta b_eta(x) a(x, eta) quad_y(q^alpha(x, y) conj(d_eta(y)) b_xi(y)).

    Each window's input rows of b and d are built once, and the output rows
    b_xi are a slice of the input ones.  Each result is cached on its input
    symbol under ("Delta" or "Delta~", alpha, model token).  The coupling
    tensor depends on the window but not on the symbol, so it serves every
    symbol that misses the cache over the same input margin.  It is built
    and contracted in blocks of output rows xi (`_coupled_rows`): all
    lanes' blocks together take at most BLOCK_BYTES, in arrays the calling
    thread owns, and none is kept.  Every block is built from the whole
    window's w·b, conj(d) and q^alpha by the same operations, in the same
    order, as those rows of the whole tensor, and contracted into its own
    rows of the result.  That the BLAS product then gives each row the same
    bits is pinned by the tests.

    A symbol whose input table is identically zero has Delta^alpha = 0: it
    gets a zero table with the margin, order, name and cache entry of any
    other result, and takes no part in the contraction, so a window with no
    other symbol builds no coupling tensor, no q^alpha and no basis blocks.
    (The tensor route would give sums of C·0, zeros whose sign may be -0.)"""
    if alpha == 0:
        return list(syms)
    label = "Delta~" if star else "Delta"
    # every window is checked before any cache hit is taken
    margins = [sym.margin_after(model, alpha, f"{label}^{alpha}")[0] for sym in syms]
    key = (label, alpha, model.token)
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
            B_in = model.basis_rows(-in_off, in_off, dual=star)
            B_out = B_in[alpha:len(B_in) - alpha]  # xi = -out_off..out_off
            summed = _coupled_rows(model, star, alpha, B_out,
                                   model.basis_rows(-in_off, in_off, dual=not star),
                                   [B_in * tables[k] for k in live])
            for k, s in zip(live, summed):
                results[k] = np.divide(s, B_out, out=s)
        for i, res in zip(members, results):
            sym = syms[i]
            if res is None:
                res = np.zeros((2 * out_off + 1, model.Q), complex)
            out[i] = sym.derived(key, lambda: Symbol.from_table(
                model, res, out_margin, order=sym.order - alpha,
                name=f"{label}^{alpha}[{sym.name}]"))
    return out


def apply_Delta_many(model: ModelProblem, syms: Sequence[Symbol], alpha: int) -> list[Symbol]:
    """`apply_Delta` of each symbol in `syms`.

    One coupling tensor serves every symbol read over the same window that
    has no cached Delta^alpha for this model, so each result is
    bitwise the one a call of its own gives.  A call in which every symbol
    hits its cache builds no tensor.  A symbol whose table is identically
    zero over its window gets a zero Delta^alpha and joins no contraction,
    so a window of such symbols alone builds no tensor either.
    """
    return _delta(model, syms, alpha, star=False)


def apply_Delta(model: ModelProblem, sym: Symbol, alpha: int) -> Symbol:
    """Difference operator Delta^alpha through the coupling-tensor route:

        Delta^a a(x, xi) = u_xi(x)^-1 sum_eta u_eta(x) a(x, eta) C[xi, eta, x].

    On the built-in models this equals the forward difference iterated
    alpha times, which tests exploit as an oracle.
    """
    return apply_Delta_many(model, [sym], alpha)[0]


def apply_Delta_star(model: ModelProblem, sym: Symbol, alpha: int) -> Symbol:
    """Adjoint difference operator: the same construction with u and v
    swapped and the conjugate family q~."""
    return _delta(model, [sym], alpha, star=True)[0]


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
    # min/max, not np.unique: numpy's first unique call imports numpy.ma (8-16 ms)
    if log_br.size < 2 or log_br.min() == log_br.max():
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
    mode_indicator(mode).  Every entry also passes the Symbol field margin
    through; any other key raises ConfigurationError.
    """
    if name == "bracket_power":
        p = float(params.pop("power", 1.0))
        fn, order, label = lambda x, xi, lam, br: br**p, p, f"bracket^{p:g}"
    elif name == "lambda_multiplier":
        # order equals the generating operator's order; set at bind time by caller
        fn, order, label = lambda x, xi, lam, br: lam, float(params.pop("order", 1.0)), "lambda"
    elif name == "constant":
        c = complex(params.pop("value", 1.0))
        fn, order, label = (lambda x, xi, lam, br: c,
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
        fn, order, label = (lambda x, xi, lam, br: 1.0 + 0.0j if xi == k else 0.0j,
                            0.0, f"indicator({k})")
    else:
        raise ConfigurationError(f"unknown symbol {name!r} in registry")
    extra = sorted(set(params) - {"margin"})
    if extra:
        raise ConfigurationError(f"symbol {name!r} takes no parameter {', '.join(extra)}")
    return Symbol(fn=fn, order=order, name=label, **params)
