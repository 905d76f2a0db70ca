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

from dataclasses import dataclass, field, replace
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
    _gronwall: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _forcing(model: ModelProblem, prob: EvolutionProblem, t: float) -> np.ndarray:
    """Coefficients of f(t); zero without forcing."""
    if prob.forcing is None:
        return np.zeros(len(model.indices), dtype=complex)
    return fourier(model, prob.forcing(t)).values


def solve_ivp(model: ModelProblem, prob: EvolutionProblem) -> Trajectory:
    """Integrate the problem and return the coefficient trajectory."""
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

    coeffs = np.zeros((prob.steps + 1, n), dtype=complex)
    coeffs[0] = fourier(model, prob.u0).values
    Kv = np.full_like(coeffs, np.nan)
    iterations = 0

    if prob.scheme == "crank_nicolson":
        # step k's implicit generator K(t_{k+1}) is step k + 1's explicit one
        for k, (M, M_next) in enumerate(pairwise(generators(times))):
            Kv[k] = M @ coeffs[k]
            rhs = system(M, 0.5 * dt) @ coeffs[k] + dt * _forcing(model, prob, times[k] + 0.5 * dt)
            coeffs[k + 1] = np.linalg.solve(system(M_next, -0.5 * dt), rhs)
        Kv[-1] = M_next @ coeffs[-1]
    elif prob.scheme == "backward_euler":
        for k, M in enumerate(generators(times[1:])):
            rhs = coeffs[k] + dt * _forcing(model, prob, times[k + 1])
            coeffs[k + 1] = np.linalg.solve(system(M, -dt), rhs)
            Kv[k + 1] = M @ coeffs[k + 1]
    else:  # picard
        mats = np.stack(list(generators(times)))
        fs = np.stack([_forcing(model, prob, t) for t in times])
        cur = np.tile(coeffs[0], (prob.steps + 1, 1)).astype(complex)
        prev_res = np.inf
        growths = 0
        for it in range(1, 51):
            rhs = np.einsum("kij,kj->ki", mats, cur) + fs
            integ = np.zeros_like(cur)
            increments = 0.5 * dt * (rhs[:-1] + rhs[1:])
            integ[1:] = np.cumsum(increments, axis=0)
            new = coeffs[0][None, :] + integ
            res = float(np.max(np.abs(new - cur)))
            cur = new
            iterations = it
            if res < 1e-10:
                break
            if res > prev_res:
                growths += 1
                if growths >= 5:
                    raise PicardDivergenceError(
                        f"Picard residual grew {growths} consecutive iterations (last {res:.3e})")
            else:
                growths = 0
            prev_res = res
        coeffs = cur
        for k in range(prob.steps + 1):
            Kv[k] = mats[k] @ coeffs[k]

    norms = _norms_of(coeffs, gram)
    return Trajectory(times=times, coeffs=coeffs, norms=norms, Kv=Kv, scheme=prob.scheme,
                      picard_iterations=iterations)


def _gronwall_C2(model: ModelProblem, prob: EvolutionProblem, seed: int) -> float:
    """The largest Garding constant C2 of -Re K at t = 0, T/2 and T (0 under
    the literal gate).  It is computed once per model, seed and problem
    data and kept on the problem, which `energy_check` and
    `uniqueness_probe` of one problem then share."""
    key = (model.token, seed, prob.symbol_factory, prob.T, prob.order_m, prob.ellipticity_gate)
    if key not in prob._gronwall:
        C2 = 0.0
        if prob.ellipticity_gate != "literal":
            for t in (0.0, prob.T / 2.0, prob.T):
                sym = prob.symbol_factory(t)
                neg = Symbol.from_table(model, -sym.table(model, 0), 0,
                                        order=prob.order_m, name=f"-K({t:g})")
                try:
                    rep = garding_estimate(model, neg, prob.order_m, trials=50, seed=seed)
                    C2 = max(C2, rep.C2)
                except EllipticityError:
                    C2 = max(C2, 0.0)
        prob._gronwall[key] = C2
    return prob._gronwall[key]


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
    are reported per step.
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
    """
    scale = 1e-6  # the perturbation of u0 is scale times a standard normal draw
    t1 = solve_ivp(model, prob)
    t2 = solve_ivp(model, prob)
    bitwise = bool(np.array_equal(t1.coeffs, t2.coeffs))

    hom_traj = solve_ivp(model, replace(prob, u0=np.zeros(model.Q, dtype=complex), forcing=None))
    hom_max = float(np.max(hom_traj.norms))

    rng = np.random.default_rng(seed)
    bump = rng.standard_normal(model.Q) + 1j * rng.standard_normal(model.Q)
    t3 = solve_ivp(model, replace(prob, u0=prob.u0 + scale * bump))
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
                  - (traj.Kv[k] + _forcing(model, prob, t)))
        out.append(_norms_of(defect[None, :], gram)[0])
    return np.array(out)
