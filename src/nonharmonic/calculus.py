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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BranchCutError, ConfigurationError, EllipticityError,
                     SpectrumProximityError)
from .model import ModelProblem
from .quantize import check_solvable, galerkin_matrix, symbol_of_matrix
from .symbols import (AdmissibleFamily, Symbol, apply_D, apply_Delta, default_family,
                      trim_window)

# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------


def _gauss_segment(f_z: Callable[[np.ndarray], np.ndarray],
                   f_dz: Callable[[np.ndarray], np.ndarray],
                   t0: float, t1: float, n: int, panels: int):
    """Composite Gauss-Legendre nodes/weights for z(t), t in [t0, t1].

    The n nodes are spread over the panels as evenly as possible so the
    total node budget is met exactly.
    """
    panels = min(panels, n)
    sizes = [n // panels + (1 if i < n % panels else 0) for i in range(panels)]
    ts, ws = [], []
    edges = np.linspace(t0, t1, panels + 1)
    for size, (a, b) in zip(sizes, zip(edges[:-1], edges[1:])):
        base_t, base_w = np.polynomial.legendre.leggauss(size)
        ts.append(0.5 * (b - a) * base_t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    return f_z(t), w * f_dz(t)


@dataclass
class Contour:
    """A closed, quadrature-discretized curve in the complex plane.

    nodes/weights absorb the parametrization derivative, so a contour
    integral is just sum_k weights[k] * g(nodes[k]).
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def keyhole_negative_axis(cls, R: float, eps: float = 0.1,
                              theta: float = math.pi / 6,
                              nodes_per_segment: int = 100) -> "Contour":
        """Keyhole around the negative real axis, closed at radius R.

        Two rays at angles +-(pi - theta) joined by an arc of radius eps
        around the origin and the closing outer arc through the right
        half-plane.  Rays are parametrized in log-radius; each segment uses
        8 Gauss-Legendre panels so that accuracy improves visibly (instead
        of saturating) as the node budget grows.
        """
        if not 0 < eps < R:
            raise ConfigurationError(f"keyhole needs 0 < eps < R, got eps={eps}, R={R}")
        if not 0 < theta < math.pi:
            raise ConfigurationError(f"opening half-angle must lie in (0, pi), got {theta}")
        phi = math.pi - theta
        n = nodes_per_segment
        segs = []
        # upper ray, inward: r from R to eps at angle +phi
        segs.append(_gauss_segment(lambda t: np.exp(t) * np.exp(1j * phi),
                                   lambda t: np.exp(t) * np.exp(1j * phi),
                                   math.log(R), math.log(eps), n, 8))
        # inner arc through the positive real axis: angle from +phi to -phi
        segs.append(_gauss_segment(lambda t: eps * np.exp(1j * t),
                                   lambda t: 1j * eps * np.exp(1j * t),
                                   phi, -phi, n, 8))
        # lower ray, outward: r from eps to R at angle -phi
        segs.append(_gauss_segment(lambda t: np.exp(t) * np.exp(-1j * phi),
                                   lambda t: np.exp(t) * np.exp(-1j * phi),
                                   math.log(eps), math.log(R), n, 8))
        # closing outer arc: angle from -phi to +phi through 0
        segs.append(_gauss_segment(lambda t: R * np.exp(1j * t),
                                   lambda t: 1j * R * np.exp(1j * t),
                                   -phi, phi, n, 8))
        return cls(nodes=np.concatenate([s[0] for s in segs]),
                   weights=np.concatenate([s[1] for s in segs]))

    @classmethod
    def circle(cls, center: complex, radius: float, n: int = 200) -> "Contour":
        """Counterclockwise circle around center."""
        if radius <= 0:
            raise ConfigurationError("circle radius must be positive")
        z, w = _gauss_segment(lambda t: center + radius * np.exp(1j * t),
                              lambda t: 1j * radius * np.exp(1j * t),
                              0.0, 2.0 * math.pi, n, 2)
        return cls(nodes=z, weights=w)

    @classmethod
    def polyline(cls, vertices: Sequence[complex], n_per_edge: int = 50) -> "Contour":
        """Closed polygon through the given vertices."""
        vertices = [complex(v) for v in vertices]
        if len(vertices) < 3:
            raise ConfigurationError("polyline contour needs at least 3 vertices")
        zs, ws = [], []
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            z, w = _gauss_segment(lambda t, a=a, b=b: a + t * (b - a),
                                  lambda t, a=a, b=b: np.full_like(t, b - a, dtype=complex),
                                  0.0, 1.0, n_per_edge, 1)
            zs.append(z)
            ws.append(w)
        return cls(nodes=np.concatenate(zs), weights=np.concatenate(ws))

    @classmethod
    def default_keyhole(cls, model: ModelProblem, sym: Symbol,
                        nodes_per_segment: int = 100) -> "Contour":
        """Keyhole sized from the truncated spectrum of Op(a)."""
        R = 4.0 * float(np.max(np.abs(galerkin_matrix(model, sym).eigenvalues)))
        return cls.keyhole_negative_axis(R=R, nodes_per_segment=nodes_per_segment)

    def check_clear_of(self, values: np.ndarray, tol: float = 1e-9) -> int:
        """The winding number (+1 or -1) shared by all values.  Raises on a
        node colliding with a value, or unless every discrete winding number
        sum_k w_k / (z_k - lambda_j) / (2 pi i) is within 1/4 of it."""
        diff = self.nodes[:, None] - np.asarray(values)[None, :]
        dmin = float(np.min(np.abs(diff)))
        if dmin < tol * max(1.0, float(np.max(np.abs(values)))):
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
               n_terms: int, family: Optional[AdmissibleFamily] = None) -> ParametrixResult:
    """Asymptotic inverse B = sum_{k <= n_terms} B_k of an elliptic symbol.

    B_0 = a^-1 and, for N >= 1,

        B_N = -a^-1 sum_{k<N} (1/(N-k)!) (Delta^(N-k) a)(D^(N-k) B_k).

    The composition expansion forces the 1/gamma! factor: with it each level
    cancels the next order of sigma(Op(a)Op(B)) - 1 exactly.
    """
    family = family or default_family()
    margin = a.available_margin(model)
    out_margin = margin - n_terms
    if out_margin < 0:
        raise EllipticityError(
            f"parametrix with n_terms={n_terms} exhausts margin {margin} of {a.name!r}")

    a_tab = a.table(model, margin)
    off_all = model.N + margin
    br_all = model.bracket_val(np.arange(-off_all, off_all + 1))
    inv_tab = _invert_table(a_tab, "parametrix precheck")
    ell_sup = float(np.max(np.abs(inv_tab) * (br_all**m)[:, None]))
    if not np.isfinite(ell_sup):
        raise EllipticityError("ellipticity sup is not finite")

    # B_k tables at margin (margin - k); deltas of a cached per order
    b_tables = [inv_tab]
    b_margins = [margin]
    delta_a = {0: a}
    for N in range(1, n_terms + 1):
        tgt_margin = margin - N
        acc = np.zeros((2 * (model.N + tgt_margin) + 1, model.Q), dtype=complex)
        for k in range(N):
            g = N - k
            if g not in delta_a:
                delta_a[g] = apply_Delta(model, a, g, family)
            Bk = Symbol.from_table(model, b_tables[k], b_margins[k],
                                   order=-m - (rho - delta) * k, rho=rho, delta=delta,
                                   name=f"B_{k}")
            DBk = apply_D(model, Bk, g, family)
            term = delta_a[g].table(model, tgt_margin) * DBk.table(model, tgt_margin)
            acc += term / math.factorial(g)
        inv_here = trim_window(inv_tab, margin, tgt_margin)
        b_tables.append(-inv_here * acc)
        b_margins.append(tgt_margin)

    total = np.zeros((2 * (model.N + out_margin) + 1, model.Q), dtype=complex)
    terms = []
    for k, (tab, mk) in enumerate(zip(b_tables, b_margins)):
        cut = trim_window(tab, mk, out_margin)
        total += cut
        terms.append(Symbol.from_table(model, cut.copy(), out_margin,
                                       order=-m - (rho - delta) * k, rho=rho,
                                       delta=delta, name=f"B_{k}"))
    sym = Symbol.from_table(model, total, out_margin, order=-m, rho=rho, delta=delta,
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


def negative_real_ray(n: int = 60, t_max: float = 1e6) -> np.ndarray:
    """Sample points on the closed negative real axis including 0."""
    ts = np.concatenate([[0.0], np.logspace(-3, math.log10(t_max), n - 1)])
    return -ts + 0.0j


def certify_parameter_ellipticity(model: ModelProblem, a: Symbol, m: float,
                                  lambdas: np.ndarray, bound: float = float("inf"),
                                  check_derivative: bool = True,
                                  rng: Optional[np.random.Generator] = None
                                  ) -> EllipticityCertificate:
    """Certify sup over lambda, grid, window of |(|l|^(1/m) + <xi>)^m / (a - l)|.

    Samples colliding with values of a are re-drawn with a small jitter, at
    most three times, before giving up.  Optionally verifies the resolvent
    derivative identity d_lambda R = R^2 by central differences.
    """
    rng = rng or np.random.default_rng(0)
    tab = a.table(model, 0)
    br = model.bracket_val(model.indices)
    sup = 0.0
    scale = max(1.0, float(np.max(np.abs(tab))))
    for lam in np.asarray(lambdas, dtype=complex):
        for attempt in range(3):
            dist = np.abs(tab - lam)
            if np.min(dist) > 1e-9 * scale:
                break
            lam = lam + (1e-6 * scale) * (1.0 + 1j) * (1.0 + rng.standard_normal())
        else:
            raise SpectrumProximityError(f"lambda sample {lam} keeps hitting values of a")
        weight = (abs(lam) ** (1.0 / m) + br) ** m
        sup = max(sup, float(np.max(weight[:, None] / np.abs(tab - lam))))

    deriv_err = None
    if check_derivative:
        lam0 = complex(np.asarray(lambdas, dtype=complex)[len(lambdas) // 2])
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
    return symbol_of_matrix(model, X, order=-a.order, rho=a.rho, delta=a.delta,
                            name=f"resolvent[{a.name};z={z:g}]")


@dataclass
class FunctionalCalculusResult:
    symbol: Symbol
    leading_term: Symbol
    orientation: int


def dunford_riesz(model: ModelProblem, a: Symbol, F: Callable, contour: Contour,
                  decay_exponent: Optional[float] = None) -> FunctionalCalculusResult:
    """Contour functional calculus sigma_{F(A)} = -(1/2 pi i) sum w F(z) Rhat_z.

    F must be evaluable at every node and should decay like |z|^s with
    s < 0 for the operator calculus to be well defined; callers declare the
    exponent.  The contour must wind once around the whole truncated
    spectrum; its winding number is the orientation.  The leading-term
    approximation (pointwise scalar integral of (a - z)^-1) is returned too.
    """
    if decay_exponent is not None and decay_exponent >= 0:
        raise ConfigurationError(f"declared decay exponent must be negative, got {decay_exponent}")
    Fz = np.asarray(F(contour.nodes), dtype=complex)
    if not np.all(np.isfinite(Fz)):
        raise ConfigurationError("F is not finite at some contour node")

    G = galerkin_matrix(model, a)
    sign = contour.check_clear_of(G.eigenvalues)
    M = G.matrix
    n = M.shape[0]
    eye = np.eye(n)
    acc = np.zeros((n, n), dtype=complex)
    for z, w, fz in zip(contour.nodes, contour.weights, Fz):
        acc += (w * fz) * np.linalg.inv(M - z * eye)
    FA = -sign / (2j * np.pi) * acc
    sym = symbol_of_matrix(model, FA, order=(a.order * decay_exponent
                                             if decay_exponent is not None else -a.order),
                           rho=a.rho, delta=a.delta, name=f"F[{a.name}]")

    tab = a.table(model, 0)
    lead_tab = np.zeros_like(tab)
    for z, wf in zip(contour.nodes, contour.weights * Fz):
        lead_tab += wf / (tab - z)
    lead_tab *= -sign / (2j * np.pi)
    lead = Symbol.from_table(model, lead_tab, 0, order=sym.order, rho=a.rho,
                             delta=a.delta, name=f"F[{a.name}]_leading")
    return FunctionalCalculusResult(symbol=sym, leading_term=lead, orientation=sign)


def fractional_power_symbol(model: ModelProblem, a: Symbol, s: complex,
                            margin: Optional[int] = None) -> Symbol:
    """Pointwise principal power exp(s log a) of a positive-real-part symbol."""
    if margin is None:
        margin = a.available_margin(model)
    tab = a.table(model, margin)
    on_cut = (tab.real <= 0) & (np.abs(tab.imag) < 1e-14 * np.maximum(1.0, np.abs(tab.real)))
    if np.any(on_cut):
        raise BranchCutError("symbol touches the branch cut (Re a <= 0, Im a = 0)")
    out = np.exp(s * np.log(tab))
    return Symbol.from_table(model, out, margin, order=a.order * complex(s).real,
                             rho=a.rho, delta=a.delta, name=f"{a.name}^{s}")


# ---------------------------------------------------------------------------
# named scalar functions for the calculus (CLI-facing)
# ---------------------------------------------------------------------------

def make_scalar_function(name: str, **params):
    """Registry of admissible F's: returns (callable, decay exponent)."""
    if name == "inverse":
        return (lambda z: 1.0 / z), -1.0
    if name == "inverse_sqrt":
        return (lambda z: z ** -0.5), -0.5
    if name == "power":
        s = float(params.get("exponent", -1.0))
        if s >= 0:
            raise ConfigurationError(f"power function requires a negative exponent, got {s}")
        return (lambda z: z**s), s
    if name == "zero":
        return (lambda z: np.zeros_like(np.asarray(z, dtype=complex))), -1.0
    raise ConfigurationError(f"unknown scalar function {name!r} in registry")
