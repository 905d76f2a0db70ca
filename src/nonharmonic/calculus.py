"""Parametrices, parameter ellipticity, resolvents, functional calculus.

The contour calculus computes sigma_{F(A)}(x, xi) as a quadrature of
resolvent symbols along a closed curve separating the truncated spectrum
from the non-holomorphy region of F.  Resolvents inside the integral are
exact truncated matrix inverses, so for multiplier symbols the result can
be checked pointwise against the spectral oracle F(a(xi)).

The overall sign of the -1/(2 pi i) prefactor is the winding number of the
discretized curve around the truncated spectrum, one shared +-1 for every
eigenvalue; a curve that misses part of the spectrum raises instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import threads
from .errors import (BranchCutError, ConfigurationError, EllipticityError,
                     SpectrumProximityError)
from .model import ModelProblem, _read_only
from .quantize import check_solvable, galerkin_matrix, symbol_of_matrix
from .symbols import Symbol, apply_D, apply_Delta

# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

KEYHOLE_EPS = 0.1  # radius of the keyhole's inner arc around 0


@lru_cache(maxsize=128)
def _gauss_legendre(size: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size;
    read-only, since every caller shares them."""
    t, w = np.polynomial.legendre.leggauss(size)
    return _read_only(t), _read_only(w)


def _gauss_segment(t0: float, t1: float, n: int, panels: int):
    """Composite Gauss-Legendre nodes t and weights w on [t0, t1].

    The n nodes are spread over the panels as evenly as possible so the
    total node budget is met exactly.
    """
    if n < 1:
        raise ConfigurationError(f"a contour segment needs at least one node, got {n}")
    panels = min(panels, n)
    sizes = [n // panels + (1 if i < n % panels else 0) for i in range(panels)]
    ts, ws = [], []
    edges = np.linspace(t0, t1, panels + 1)
    for size, (a, b) in zip(sizes, zip(edges[:-1], edges[1:])):
        base_t, base_w = _gauss_legendre(size)
        ts.append(0.5 * (b - a) * base_t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(ts), np.concatenate(ws)


def _ray(angle: float, r0: float, r1: float, n: int):
    """Nodes and weights of z = e^t e^(i angle), t from log r0 to log r1."""
    t, w = _gauss_segment(math.log(r0), math.log(r1), n, 8)
    z = np.exp(t) * np.exp(1j * angle)
    return z, w * z


def _arc(radius: float, t0: float, t1: float, n: int, panels: int):
    """Nodes and weights of z = radius e^(it), t from t0 to t1."""
    t, w = _gauss_segment(t0, t1, n, panels)
    e = np.exp(1j * t)
    return radius * e, w * (1j * radius * e)


@dataclass
class Contour:
    """A closed, quadrature-discretized curve in the complex plane.

    nodes/weights absorb the parametrization derivative, so a contour
    integral is just sum_k weights[k] * g(nodes[k]).
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def keyhole_negative_axis(cls, R: float, nodes_per_segment: int = 100) -> "Contour":
        """Keyhole around the negative real axis, closed at radius R.

        Two rays at angles +-5 pi/6 joined by an arc of radius KEYHOLE_EPS
        around the origin and the closing outer arc through the right
        half-plane.  Rays are parametrized in log-radius; each segment uses
        8 Gauss-Legendre panels so that accuracy improves visibly (instead
        of saturating) as the node budget grows.
        """
        eps = KEYHOLE_EPS
        if not 0 < eps < R:
            raise ConfigurationError(f"keyhole needs 0 < eps < R, got eps={eps}, R={R}")
        phi = math.pi - math.pi / 6  # an opening half-angle of pi/6 around the cut
        n = nodes_per_segment
        segs = [_ray(phi, R, eps, n),  # upper ray, inward
                _arc(eps, phi, -phi, n, 8),  # inner arc through the positive real axis
                _ray(-phi, eps, R, n),  # lower ray, outward
                _arc(R, -phi, phi, n, 8)]  # closing outer arc through 0
        return cls(nodes=np.concatenate([s[0] for s in segs]),
                   weights=np.concatenate([s[1] for s in segs]))

    @classmethod
    def circle(cls, center: complex, radius: float, n: int = 200) -> "Contour":
        """Counterclockwise circle around center."""
        if radius <= 0:
            raise ConfigurationError("circle radius must be positive")
        z, w = _arc(radius, 0.0, 2.0 * math.pi, n, 2)
        return cls(nodes=center + z, weights=w)

    @classmethod
    def polyline(cls, vertices: Sequence[complex], n_per_edge: int = 50) -> "Contour":
        """Closed polygon through the given vertices."""
        vertices = [complex(v) for v in vertices]
        if len(vertices) < 3:
            raise ConfigurationError("polyline contour needs at least 3 vertices")
        t, w = _gauss_segment(0.0, 1.0, n_per_edge, 1)
        zs, ws = [], []
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            zs.append(a + t * (b - a))
            ws.append(w * (b - a))
        return cls(nodes=np.concatenate(zs), weights=np.concatenate(ws))

    @classmethod
    def default_keyhole(cls, model: ModelProblem, sym: Symbol,
                        nodes_per_segment: int = 100) -> "Contour":
        """Keyhole sized from the truncated spectrum of Op(a), R = 4 max |lambda|."""
        R = 4.0 * float(np.max(np.abs(galerkin_matrix(model, sym).eigenvalues)))
        if R <= KEYHOLE_EPS:
            raise SpectrumProximityError("the whole spectrum lies inside the keyhole's inner disc")
        return cls.keyhole_negative_axis(R=R, nodes_per_segment=nodes_per_segment)

    def check_clear_of(self, values: np.ndarray) -> int:
        """The winding number (+1 or -1) shared by all values.  Raises on a
        node within 1e-9 * max(1, max |value|) of a value, or unless every
        discrete winding number sum_k w_k / (z_k - lambda_j) / (2 pi i) is
        within 1/4 of it."""
        diff = self.nodes[:, None] - np.asarray(values)[None, :]
        dmin = float(np.min(np.abs(diff)))
        if dmin < 1e-9 * max(1.0, float(np.max(np.abs(values)))):
            raise SpectrumProximityError(f"contour node within {dmin:.3e} of the spectrum")
        wind = (self.weights @ (1.0 / diff)) / (2j * np.pi)
        turns = round(float(wind[0].real))
        if abs(turns) != 1 or np.max(np.abs(wind - turns)) > 0.25:
            raise SpectrumProximityError(
                "contour does not wind once around the whole spectrum (winding numbers "
                f"{np.min(wind.real):.3g} to {np.max(wind.real):.3g})")
        return turns


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------

@dataclass
class ParametrixResult:
    symbol: Symbol
    ellipticity_sup: float
    terms: list = field(default_factory=list)


def _invert_table(tab: np.ndarray, what: str) -> np.ndarray:
    if np.min(np.abs(tab)) < 1e-12:
        raise EllipticityError(f"{what}: symbol value within 1e-12 of zero; not invertible")
    return 1.0 / tab


def parametrix(model: ModelProblem, a: Symbol, m: float, rho: float, delta: float,
               n_terms: int) -> ParametrixResult:
    """Asymptotic inverse B = sum_{k <= n_terms} B_k of an elliptic symbol.

    B_0 = a^-1 and, for N >= 1,

        B_N = -a^-1 sum_{k<N} (1/(N-k)!) (Delta^(N-k) a)(D^(N-k) B_k).

    The composition expansion forces the 1/gamma! factor: with it each level
    cancels the next order of sigma(Op(a)Op(B)) - 1 exactly.  The type
    (rho, delta) sets only B_N's declared order -m - (rho - delta) N.
    """
    margin, out_margin = a.margin_after(model, n_terms, f"parametrix with n_terms={n_terms}")

    a_tab = a.table(model, margin)
    off_all = model.N + margin
    br_all = model.bracket_val(np.arange(-off_all, off_all + 1))
    inv_tab = _invert_table(a_tab, "parametrix precheck")
    ell_sup = float(np.max(np.abs(inv_tab) * (br_all**m)[:, None]))
    if not np.isfinite(ell_sup):
        raise EllipticityError("ellipticity sup is not finite")

    # one symbol per level B_k, over margin - k; each Delta^g a is cached on a,
    # while each D^(g) B_k is read once (N = k + g), so none is reused
    levels = [Symbol.from_table(model, inv_tab, margin, order=-m, name="B_0")]
    for N in range(1, n_terms + 1):
        tgt_margin = margin - N
        acc = np.zeros((2 * (model.N + tgt_margin) + 1, model.Q), dtype=complex)
        for k in range(N):
            g = N - k
            term = (apply_Delta(model, a, g).table(model, tgt_margin)
                    * apply_D(model, levels[k], g).table(model, tgt_margin))
            acc += term / math.factorial(g)
        levels.append(Symbol.from_table(model, -levels[0].table(model, tgt_margin) * acc,
                                        tgt_margin, order=-m - (rho - delta) * N, name=f"B_{N}"))

    total = np.zeros((2 * (model.N + out_margin) + 1, model.Q), dtype=complex)
    terms = []
    for Bk in levels:
        cut = Bk.table(model, out_margin)
        total += cut
        terms.append(Symbol.from_table(model, cut.copy(), out_margin, order=Bk.order,
                                       name=Bk.name))
    sym = Symbol.from_table(model, total, out_margin, order=-m,
                            name=f"parametrix[{a.name};{n_terms}]")
    return ParametrixResult(symbol=sym, ellipticity_sup=ell_sup, terms=terms)


# ---------------------------------------------------------------------------
# parameter ellipticity
# ---------------------------------------------------------------------------

@dataclass
class EllipticityCertificate:
    sup_value: float
    bound: float
    passed: bool
    n_lambda: int
    derivative_check: Optional[float] = None  # max relative error of dR = R^2


def negative_real_ray() -> np.ndarray:
    """60 sample points on the negative real axis: 0 and 59 log-spaced
    points from -1e-3 to -1e6."""
    ts = np.concatenate([[0.0], np.logspace(-3, 6.0, 59)])
    return -ts + 0.0j


def certify_parameter_ellipticity(model: ModelProblem, a: Symbol, m: float,
                                  lambdas: np.ndarray, bound: float = float("inf"),
                                  check_derivative: bool = True,
                                  rng: Optional[np.random.Generator] = None
                                  ) -> EllipticityCertificate:
    """Certify sup over lambda, grid, window of |(|l|^(1/m) + <xi>)^m / (a - l)|.

    Samples colliding with values of a are re-drawn with a small jitter, at
    most three times, and each re-draw is checked before giving up.
    Optionally verifies the resolvent derivative identity d_lambda R = R^2
    by central differences.  Raises ConfigurationError for an empty
    `lambdas` or an order m <= 0, where the weight |l|^(1/m) is undefined.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    if len(lambdas) == 0 or not m > 0:
        raise ConfigurationError("parameter ellipticity needs a lambda sample and an order "
                                 f"m > 0, got {len(lambdas)} samples and m = {m}")
    rng = rng or np.random.default_rng(0)
    tab = a.table(model, 0)
    br = model.bracket_val(model.indices)
    sup = 0.0
    scale = max(1.0, float(np.max(np.abs(tab))))
    for lam in lambdas:
        redraws = 0
        while np.min(np.abs(tab - lam)) <= 1e-9 * scale:
            if redraws == 3:
                raise SpectrumProximityError(f"lambda sample {lam} keeps hitting values of a")
            lam = lam + (1e-6 * scale) * (1.0 + 1j) * (1.0 + rng.standard_normal())
            redraws += 1
        weight = (abs(lam) ** (1.0 / m) + br) ** m
        sup = max(sup, float(np.max(weight[:, None] / np.abs(tab - lam))))

    deriv_err = None
    if check_derivative:
        lam0 = complex(lambdas[len(lambdas) // 2])
        if np.min(np.abs(tab - lam0)) < 1e-6 * scale:
            lam0 = lam0 - 0.5 * scale
        h = 1e-5 * max(1.0, abs(lam0))
        R = lambda z: 1.0 / (tab - z)
        fd = (R(lam0 + h) - R(lam0 - h)) / (2.0 * h)
        deriv_err = float(np.max(np.abs(fd - R(lam0) ** 2) / np.abs(R(lam0) ** 2)))

    return EllipticityCertificate(sup_value=sup, bound=bound, passed=bool(sup <= bound),
                                  n_lambda=len(lambdas), derivative_check=deriv_err)


# ---------------------------------------------------------------------------
# resolvent and functional calculus
# ---------------------------------------------------------------------------

def resolvent_symbol(model: ModelProblem, a: Symbol, z: complex) -> Symbol:
    """Exact truncated resolvent symbol: invert (M - zI) and extract."""
    M = galerkin_matrix(model, a).matrix
    A = M - z * np.eye(M.shape[0])
    check_solvable(A, f"(M - zI) at z={z}")
    X = np.linalg.inv(A)
    return symbol_of_matrix(model, X, order=-a.order, name=f"resolvent[{a.name};z={z:g}]")


@dataclass
class FunctionalCalculusResult:
    """sigma_{F(A)}, the winding number of its contour, and what the
    leading-term approximation is computed from when first read."""

    symbol: Symbol
    orientation: int
    model: ModelProblem = field(repr=False)
    a: Symbol = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    weighted_F: np.ndarray = field(repr=False)  # contour weights * F(nodes)

    @cached_property
    def leading_term(self) -> Symbol:
        """The pointwise scalar integral of F(z) (a - z)^-1."""
        tab = self.a.table(self.model, 0)
        lead_tab = np.zeros_like(tab)
        for z, wf in zip(self.nodes, self.weighted_F):
            lead_tab += wf / (tab - z)
        lead_tab *= -self.orientation / (2j * np.pi)
        return Symbol.from_table(self.model, lead_tab, 0, order=self.symbol.order,
                                 name=f"F[{self.a.name}]_leading")


#: bytes of the inverses (M - zI)^-1 in one block of contour nodes: three
#: nodes at N = 32 and one from N = 64, so a round of blocks stays small
NODE_BLOCK_BYTES = 256 << 10


def dunford_riesz(model: ModelProblem, a: Symbol, F: Callable, contour: Contour,
                  decay_exponent: Optional[float] = None) -> FunctionalCalculusResult:
    """Contour functional calculus sigma_{F(A)} = -(1/2 pi i) sum w F(z) Rhat_z.

    F must be evaluable at every node and should decay like |z|^s with
    s < 0 for the operator calculus to be well defined; callers declare the
    exponent.  The contour must wind once around the whole truncated
    spectrum; its winding number is the orientation.  The leading-term
    approximation (pointwise scalar integral of (a - z)^-1) is computed
    when first read.
    """
    return dunford_riesz_many(model, a, [(F, decay_exponent)], contour)[0]


def dunford_riesz_many(model: ModelProblem, a: Symbol,
                       functions: Sequence[tuple[Callable, Optional[float]]],
                       contour: Contour) -> list[FunctionalCalculusResult]:
    """`dunford_riesz` of each (F, decay_exponent) pair over one contour.

    M - zI is inverted once per node and the inverse shared by every F, so
    each result is bitwise the one a call of its own gives (an empty
    `functions` raises ConfigurationError first).  The nodes are inverted
    in consecutive blocks of at most NODE_BLOCK_BYTES of inverses,
    side by side on the lanes (`threads.side_by_side`), and the calling
    thread adds every inverse to each F's sum in node order, by the same
    expression as one lane, so the lanes change no bit.  At most one block
    per lane is alive at a time.
    """
    if not functions:
        raise ConfigurationError("the functional calculus needs at least one function")
    Fzs = []
    for F, decay_exponent in functions:
        if decay_exponent is not None and decay_exponent >= 0:
            raise ConfigurationError(
                f"declared decay exponent must be negative, got {decay_exponent}")
        Fz = np.asarray(F(contour.nodes), dtype=complex)
        if not np.all(np.isfinite(Fz)):
            raise ConfigurationError("F is not finite at some contour node")
        Fzs.append(Fz)

    G = galerkin_matrix(model, a)
    sign = contour.check_clear_of(G.eigenvalues)
    M = G.matrix
    n = M.shape[0]
    eye = np.eye(n)
    accs = [np.zeros((n, n), dtype=complex) for _ in Fzs]

    blocks = threads.blocks(len(contour.nodes), n * n * 16, NODE_BLOCK_BYTES)

    def invert(b):
        # all a helper lane runs: no function of the package, so none is traced there
        return [np.linalg.inv(M - z * eye) for z in contour.nodes[blocks[b]]]

    def add(b, inverses):
        for k, X in zip(range(blocks[b].start, blocks[b].stop), inverses):
            w = contour.weights[k]
            for acc, Fz in zip(accs, Fzs):
                acc += (w * Fz[k]) * X

    threads.side_by_side(invert, len(blocks), add)

    results = []
    for (_, decay_exponent), Fz, acc in zip(functions, Fzs, accs):
        FA = -sign / (2j * np.pi) * acc
        sym = symbol_of_matrix(model, FA, order=(a.order * decay_exponent
                                                 if decay_exponent is not None else -a.order),
                               name=f"F[{a.name}]")
        results.append(FunctionalCalculusResult(symbol=sym, orientation=sign, model=model, a=a,
                                                nodes=contour.nodes,
                                                weighted_F=contour.weights * Fz))
    return results


def fractional_power_symbol(model: ModelProblem, a: Symbol, s: complex) -> Symbol:
    """Pointwise principal power exp(s log a) of a positive-real-part symbol."""
    margin = a.available_margin(model)
    tab = a.table(model, margin)
    on_cut = (tab.real <= 0) & (np.abs(tab.imag) < 1e-14 * np.maximum(1.0, np.abs(tab.real)))
    if np.any(on_cut):
        raise BranchCutError("symbol touches the branch cut (Re a <= 0, Im a = 0)")
    out = np.exp(s * np.log(tab))
    return Symbol.from_table(model, out, margin, order=a.order * complex(s).real,
                             name=f"{a.name}^{s}")


# ---------------------------------------------------------------------------
# named scalar functions for the calculus (CLI-facing)
# ---------------------------------------------------------------------------

def make_scalar_function(name: str, **params):
    """Registry of admissible F's: returns (callable, decay exponent).  Only
    power takes a parameter, exponent; any other key raises ConfigurationError."""
    if name == "inverse":
        F, s = (lambda z: 1.0 / z), -1.0
    elif name == "inverse_sqrt":
        F, s = (lambda z: z ** -0.5), -0.5
    elif name == "power":
        s = float(params.pop("exponent", -1.0))
        F = lambda z: z**s
    elif name == "zero":
        F, s = (lambda z: np.zeros_like(np.asarray(z, dtype=complex))), -1.0
    else:
        raise ConfigurationError(f"unknown scalar function {name!r} in registry")
    if params:
        raise ConfigurationError(f"scalar function {name!r} takes no parameter {', '.join(params)}")
    if s >= 0:
        raise ConfigurationError(f"power function requires a negative exponent, got {s}")
    return F, s
