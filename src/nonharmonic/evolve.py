"""Parabolic Cauchy problems on the truncated model.

Solves d/dt v = K(t) v + f with v(0) = u0 in coefficient space, where K(t)
is given through a (possibly time-dependent) symbol factory.  Admissible
problems are dissipative: -Re(symbol of K) must pass the Garding
positivity precheck at sampled times.  The literal sign reading (printed
hypothesis: +Re K elliptic) is exposed for experimentation, and the gate
can be switched off entirely for unit-scale problems like K = 0.

Schemes: Crank-Nicolson (order 2, forcing sampled at half-steps),
backward Euler (order 1), and Picard iteration of the integral equation
(trapezoid quadrature, fixed point to 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from typing import Callable, Optional

import numpy as np

from .analysis import ellipticity_floor, garding_estimate
from .errors import ConfigurationError, EllipticityError, PicardDivergenceError
from .model import ModelProblem
from .quantize import check_solvable, galerkin_matrix
from .symbols import Symbol
from .transform import coefficient_gram, fourier

SCHEMES = ("crank_nicolson", "backward_euler", "picard")
GATES = ("dissipative", "literal", "off")


@dataclass
class EvolutionProblem:
    """Data of the Cauchy problem: generator symbol factory, forcing,
    initial value, horizon, step count, scheme."""

    symbol_factory: Callable[[float], Symbol]
    u0: np.ndarray
    T: float
    steps: int
    scheme: str = "crank_nicolson"
    forcing: Optional[Callable[[float], np.ndarray]] = None
    order_m: float = 2.0
    ellipticity_gate: str = "dissipative"

    def validate(self, model: ModelProblem):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.ellipticity_gate not in GATES:
            raise ConfigurationError(f"unknown gate {self.ellipticity_gate!r}")
        if self.T <= 0 or self.steps < 1:
            raise ConfigurationError("need T > 0 and steps >= 1")
        if self.ellipticity_gate == "off":
            return
        sign = -1.0 if self.ellipticity_gate == "dissipative" else +1.0
        for t in (0.0, self.T / 2.0, self.T):
            K = self.symbol_factory(t).table(model, 0)
            if ellipticity_floor(model, sign * K.real, self.order_m) <= 0:
                raise EllipticityError(
                    f"generator fails the {self.ellipticity_gate} ellipticity gate at t={t:g}")


@dataclass
class Trajectory:
    times: np.ndarray
    coeffs: np.ndarray      # (steps+1, 2N+1)
    norms: np.ndarray       # per-step L2 norms in the sequence geometry
    Kv: np.ndarray          # (steps+1, 2N+1) K(t_k) v_k, NaN where no K(t_k) was built
    scheme: str
    picard_iterations: int = 0


_NORM_SUBSCRIPTS = "ki,ij,kj->k"


@lru_cache(maxsize=32)
def _norm_path(coeffs_shape: tuple, gram_shape: tuple) -> tuple:
    """The contraction path `optimize=True` finds for `_norms_of`; it depends
    on the shapes alone, so it is searched once per pair of shapes, on
    zero-stride stand-ins that allocate nothing."""
    c, g = (np.broadcast_to(0j, shape) for shape in (coeffs_shape, gram_shape))
    return tuple(np.einsum_path(_NORM_SUBSCRIPTS, c, g, c, optimize=True)[0])


def _norms_of(coeffs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    vals = np.einsum(_NORM_SUBSCRIPTS, coeffs.conj(), gram, coeffs,
                     optimize=_norm_path(coeffs.shape, gram.shape))
    return np.sqrt(np.maximum(vals.real, 0.0))


def _forcing(model: ModelProblem, forcing: Optional[Callable], t: float) -> np.ndarray:
    """Coefficients of f(t); zero without forcing."""
    if forcing is None:
        return np.zeros(len(model.indices), dtype=complex)
    return fourier(model, forcing(t)).values


def _walk(model: ModelProblem, prob: EvolutionProblem, columns: list) -> list:
    """One trajectory per column (u0, forcing) over the generator of `prob`.
    Each K(t_k) is built and each implicit step system factored once for
    every column; explicit products stay per-column matrix-vector products,
    so each column has the bits of its own walk."""
    prob.validate(model)
    n = len(model.indices)
    dt = prob.T / prob.steps
    times = np.linspace(0.0, prob.T, prob.steps + 1)
    gram = coefficient_gram(model)
    eye = np.eye(n)
    systems = {}  # c -> (Galerkin array, eye + c M): the last one per coefficient

    def generators(ts):
        """K(t) for each t of ts, each built once, in order, when the walk reaches it."""
        return (galerkin_matrix(model, prob.symbol_factory(t)).matrix for t in ts)

    def system(M: np.ndarray, c: float) -> np.ndarray:
        """eye + c M, once per Galerkin array and coefficient; guarded when c < 0 (implicit)."""
        if c not in systems or systems[c][0] is not M:
            A = eye + c * M
            if c < 0:
                check_solvable(A, "time-step system")
            systems[c] = (M, A)
        return systems[c][1]

    def forcing_rows(t: float) -> np.ndarray:
        """(columns, n) coefficients of f(t), transformed once per distinct callable."""
        done = {}  # id(callable) -> its coefficients at t
        for _, f in columns:
            if id(f) not in done:
                done[id(f)] = _forcing(model, f, t)
        return np.array([done[id(f)] for _, f in columns])

    coeffs = np.zeros((len(columns), prob.steps + 1, n), dtype=complex)
    coeffs[:, 0] = [fourier(model, u0).values for u0, _ in columns]
    Kv = np.full_like(coeffs, np.nan)
    iterations = [0] * len(columns)

    def implicit_step(k: int, M: np.ndarray, c: float, rows):
        """coeffs[k + 1] of every column: one factorization of eye + c M for all `rows`."""
        coeffs[:, k + 1] = np.linalg.solve(system(M, c), np.transpose(rows)).T

    if prob.scheme == "crank_nicolson":
        # step k's implicit generator K(t_{k+1}) is step k + 1's explicit one
        for k, (M, M_next) in enumerate(pairwise(generators(times))):
            explicit, f_half = system(M, 0.5 * dt), forcing_rows(times[k] + 0.5 * dt)
            Kv[:, k] = [M @ c for c in coeffs[:, k]]
            implicit_step(k, M_next, -0.5 * dt,
                          [explicit @ c + dt * f for c, f in zip(coeffs[:, k], f_half)])
        Kv[:, -1] = [M_next @ c for c in coeffs[:, -1]]
    elif prob.scheme == "backward_euler":
        for k, M in enumerate(generators(times[1:])):
            implicit_step(k, M, -dt, coeffs[:, k] + dt * forcing_rows(times[k + 1]))
            Kv[:, k + 1] = [M @ c for c in coeffs[:, k + 1]]
    else:  # picard: each column iterates on the one stack
        mats = np.fromiter(generators(times), dtype=(complex, (n, n)), count=prob.steps + 1)
        fs = np.stack([forcing_rows(t) for t in times], axis=1)  # (columns, S + 1, n)
        for j, c0 in enumerate(coeffs[:, 0]):
            cur = np.tile(c0, (prob.steps + 1, 1)).astype(complex)
            prev_res = np.inf
            growths = 0
            for it in range(1, 51):
                rhs = np.einsum("kij,kj->ki", mats, cur) + fs[j]
                integ = np.zeros_like(cur)
                increments = 0.5 * dt * (rhs[:-1] + rhs[1:])
                integ[1:] = np.cumsum(increments, axis=0)
                new = c0[None, :] + integ
                res = float(np.max(np.abs(new - cur)))
                cur = new
                iterations[j] = it
                if res < 1e-10:
                    break
                if res > prev_res:
                    growths += 1
                    if growths >= 5:
                        raise PicardDivergenceError(f"Picard residual grew {growths} consecutive"
                                                    f" iterations (last {res:.3e})")
                else:
                    growths = 0
                prev_res = res
            coeffs[j] = cur
            Kv[j] = [mats[k] @ c for k, c in enumerate(cur)]

    return [Trajectory(times=times, coeffs=c, norms=_norms_of(c, gram), Kv=kv,
                       scheme=prob.scheme, picard_iterations=it)
            for c, kv, it in zip(coeffs, Kv, iterations)]


def solve_ivp(model: ModelProblem, prob: EvolutionProblem) -> Trajectory:
    """Integrate the problem and return the coefficient trajectory."""
    return _walk(model, prob, [(prob.u0, prob.forcing)])[0]


def _gronwall_C2(model: ModelProblem, prob: EvolutionProblem, seed: int) -> float:
    """The largest Garding constant C2 of -Re K at t = 0, T/2 and T (0 under
    the literal gate): a 50-trial estimate of -K(t), 0 where it fails the
    precheck, cached on K(t) under ("gronwall", order_m, seed, model token),
    so a symbol sampled twice or by both checks of a problem is fitted once."""
    if prob.ellipticity_gate == "literal":
        return 0.0
    m = prob.order_m

    def fit(sym: Symbol, t: float) -> float:
        neg = Symbol.from_table(model, -sym.table(model, 0), 0, order=m, name=f"-K({t:g})")
        try:
            return garding_estimate(model, neg, m, trials=50, seed=seed).C2
        except EllipticityError:
            return 0.0

    samples = ((prob.symbol_factory(t), t) for t in (0.0, prob.T / 2.0, prob.T))
    return max(sym.derived(("gronwall", m, seed, model.token), lambda: fit(sym, t))
               for sym, t in samples)


@dataclass
class EnergyReport:
    C: float
    C2: float
    C_prime: float
    forcing_integral: float
    margins: np.ndarray
    violations: int
    passed: bool


def energy_check(model: ModelProblem, prob: EvolutionProblem, traj: Trajectory,
                 seed: int = 0) -> EnergyReport:
    """Verify ||v(t)||^2 <= C ||u0||^2 + C'(T) int_0^T ||f||^2.

    C = exp(2 C2 T) with C2 the Gronwall constant (`_gronwall_C2`); C' is
    fitted as the tightest constant over the trajectory and the margins
    are reported per step.  With forcing, C' is fitted on the same
    trajectory that is then checked, so a forced problem cannot fail and
    zero violations are no evidence; only the unforced case (C' = 0)
    checks the bound.
    """
    C2 = _gronwall_C2(model, prob, seed)
    C = float(np.exp(2.0 * C2 * prob.T))

    if prob.forcing is None:
        forcing_sq = np.zeros_like(traj.times)
    else:
        forcing_sq = np.array([
            float(np.real(model.quad(np.abs(prob.forcing(t)) ** 2)))
            for t in traj.times])
    fint = float(np.trapezoid(forcing_sq, traj.times))

    u0_sq = traj.norms[0] ** 2
    lhs = traj.norms**2
    if fint > 1e-300:
        C_prime = float(max(0.0, np.max((lhs - C * u0_sq) / fint)))
    else:
        C_prime = 0.0
    bound = C * u0_sq + C_prime * fint
    margins = bound - lhs
    tol = 1e-9 * max(1.0, float(np.max(lhs)))
    violations = int(np.sum(margins < -tol))
    return EnergyReport(C=C, C2=C2, C_prime=C_prime, forcing_integral=fint,
                        margins=margins, violations=violations,
                        passed=bool(violations == 0))


@dataclass
class UniquenessReport:
    bitwise_identical: bool
    homogeneous_max_norm: float
    ratio: np.ndarray
    envelope: np.ndarray
    passed: bool


def uniqueness_probe(model: ModelProblem, prob: EvolutionProblem, seed: int = 0) -> UniquenessReport:
    """Determinism and uniqueness diagnostics.

    Two identical solves must agree bitwise; the homogeneous difference
    problem (zero data) must stay at zero; a perturbed initial value must
    stay inside the Gronwall envelope exp(C2 t) relative to its size.

    The four solves are two walks of two columns over the one generator,
    (reference, perturbed) and (repeat, homogeneous); a walk builds each
    K(t_k) and factors each step system once for both its columns.  The
    bitwise check compares reference and repeat, each first in its own walk.
    """
    scale = 1e-6  # the perturbation of u0 is scale times a standard normal draw
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal(model.Q) + 1j * rng.standard_normal(model.Q)
    t1, t3 = _walk(model, prob, [(prob.u0, prob.forcing),
                                 (prob.u0 + scale * bump, prob.forcing)])
    t2, hom_traj = _walk(model, prob, [(prob.u0, prob.forcing),
                                       (np.zeros(model.Q, dtype=complex), None)])
    bitwise = bool(np.array_equal(t1.coeffs, t2.coeffs))
    hom_max = float(np.max(hom_traj.norms))

    gram = coefficient_gram(model)
    diff = _norms_of(t3.coeffs - t1.coeffs, gram)
    bump_norm = _norms_of((fourier(model, bump).values)[None, :], gram)[0]
    ratio = diff / (scale * max(bump_norm, 1e-300))

    envelope = np.exp(_gronwall_C2(model, prob, seed) * t1.times)
    passed = bool(bitwise and hom_max <= 1e-12
                  and np.all(ratio <= envelope * (1.0 + 1e-6) + 1e-9))
    return UniquenessReport(bitwise_identical=bitwise, homogeneous_max_norm=hom_max,
                            ratio=ratio, envelope=envelope, passed=passed)


def residual(model: ModelProblem, prob: EvolutionProblem, traj: Trajectory) -> np.ndarray:
    """Central-difference defect || d/dt v - (K v + f) || at interior steps,
    with the K(t_k) v_k that `solve_ivp` recorded on the trajectory."""
    dt = traj.times[1] - traj.times[0]
    gram = coefficient_gram(model)
    out = []
    for k in range(1, prob.steps):
        t = traj.times[k]
        defect = ((traj.coeffs[k + 1] - traj.coeffs[k - 1]) / (2.0 * dt)
                  - (traj.Kv[k] + _forcing(model, prob.forcing, t)))
        out.append(_norms_of(defect[None, :], gram)[0])
    return np.array(out)
