from dataclasses import replace

import numpy as np
import pytest

from nonharmonic.errors import (ConfigurationError, EllipticityError, PicardDivergenceError,
                                SpectrumProximityError)
from nonharmonic.evolve import (EvolutionProblem, _norms_of, energy_check, residual, solve_ivp,
                                uniqueness_probe)
from nonharmonic.model import ModelSpec, build_model
from nonharmonic.quantize import galerkin_matrix
from nonharmonic.symbols import Symbol, make_symbol
from nonharmonic.transform import coefficient_gram, fourier


def neg_laplace_symbol():
    return Symbol(fn=lambda x, xi, lam, br: np.full_like(x, -(br**2), dtype=complex),
                  order=2.0, name="-bracket^2")


def dissipative_problem(model, scheme="crank_nicolson", steps=200, T=0.1, forcing=None):
    return EvolutionProblem(symbol_factory=lambda t: neg_laplace_symbol(),
                            u0=model.u_row(1), T=T, steps=steps, scheme=scheme,
                            forcing=forcing, order_m=2.0)


def exact_final_coeffs(model, T):
    c = np.zeros(len(model.indices), dtype=complex)
    c[model.N + 1] = np.exp(-float(model.bracket_val(1)) ** 2 * T)
    return c


def test_closed_form_decay_crank_nicolson(torus):
    prob = dissipative_problem(torus, steps=400)
    traj = solve_ivp(torus, prob)
    err = np.linalg.norm(traj.coeffs[-1] - exact_final_coeffs(torus, 0.1))
    assert err <= 1e-5
    assert np.all(np.diff(traj.norms) <= 1e-14)  # dissipative decay


@pytest.mark.parametrize("scheme,expected", [("crank_nicolson", 2.0), ("backward_euler", 1.0)])
def test_convergence_orders(torus, scheme, expected):
    steps_list = (50, 100, 200, 400)
    errs = []
    for steps in steps_list:
        traj = solve_ivp(torus, dissipative_problem(torus, scheme=scheme, steps=steps))
        errs.append(np.linalg.norm(traj.coeffs[-1] - exact_final_coeffs(torus, 0.1)))
    slope = -np.polyfit(np.log2(steps_list), np.log2(errs), 1)[0]
    assert slope == pytest.approx(expected, abs=0.2)


def test_zero_generator_keeps_state(torus):
    zero = make_symbol("constant", value=0.0)
    prob = EvolutionProblem(symbol_factory=lambda t: zero, u0=torus.u_row(1), T=1.0,
                            steps=50, scheme="crank_nicolson", order_m=2.0,
                            ellipticity_gate="off")
    traj = solve_ivp(torus, prob)
    assert np.max(np.abs(traj.coeffs - traj.coeffs[0][None, :])) <= 1e-13
    assert np.max(residual(torus, prob, traj)) <= 1e-13
    rep = energy_check(torus, prob, traj)
    assert rep.C == pytest.approx(1.0, abs=1e-12)
    assert rep.violations == 0


def test_pure_forcing_integration(torus):
    zero = make_symbol("constant", value=0.0)
    prob = EvolutionProblem(symbol_factory=lambda t: zero,
                            u0=np.zeros(torus.Q, dtype=complex), T=1.0, steps=100,
                            scheme="crank_nicolson", forcing=lambda t: torus.u_row(1),
                            order_m=2.0, ellipticity_gate="off")
    traj = solve_ivp(torus, prob)
    expected = np.zeros(33, dtype=complex)
    expected[torus.N + 1] = 1.0  # v(T) = T * u_1 with T = 1
    np.testing.assert_allclose(traj.coeffs[-1], expected, atol=1e-12)


def test_picard_agrees_with_crank_nicolson_where_it_contracts():
    m = build_model(ModelSpec(kind="torus_derivative", N=1, Q=32))
    pp = dissipative_problem(m, scheme="picard", steps=400)
    pc = dissipative_problem(m, scheme="crank_nicolson", steps=400)
    tp, tc = solve_ivp(m, pp), solve_ivp(m, pc)
    assert tp.picard_iterations < 50
    assert np.max(np.abs(tp.coeffs - tc.coeffs)) <= 1e-6


def test_picard_divergence_guard_on_stiff_window(torus):
    # max |symbol| * T ~ 1000 here: the fixed-point iteration amplifies
    # top-mode roundoff faster than the factorial gain for 50 iterations
    with pytest.raises(PicardDivergenceError):
        solve_ivp(torus, dissipative_problem(torus, scheme="picard", steps=100))


def test_dissipativity_gate(torus):
    growth = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, br**2, dtype=complex),
                    order=2.0, name="+bracket^2")
    prob = EvolutionProblem(symbol_factory=lambda t: growth, u0=torus.u_row(1), T=0.1,
                            steps=10, scheme="crank_nicolson", order_m=2.0)
    with pytest.raises(EllipticityError):
        solve_ivp(torus, prob)
    # the literal sign reading accepts the same generator
    prob_lit = EvolutionProblem(symbol_factory=lambda t: growth, u0=torus.u_row(1), T=0.1,
                                steps=10, scheme="crank_nicolson", order_m=2.0,
                                ellipticity_gate="literal")
    traj = solve_ivp(torus, prob_lit)
    assert np.all(np.isfinite(traj.norms))


def test_scheme_validation(torus):
    prob = dissipative_problem(torus)
    prob.scheme = "leapfrog"
    with pytest.raises(ConfigurationError):
        solve_ivp(torus, prob)


@pytest.mark.parametrize("field,value,message", [
    pytest.param("ellipticity_gate", "strict", "unknown gate", id="gate"),
    pytest.param("T", 0.0, "T > 0", id="T"),
    pytest.param("steps", 0, "steps >= 1", id="steps"),
])
def test_problem_validation(torus, field, value, message):
    prob = replace(dissipative_problem(torus), **{field: value})
    with pytest.raises(ConfigurationError, match=message):
        solve_ivp(torus, prob)


def test_energy_bound_with_forcing_and_time_dependence(torus):
    def K_t(t):
        amp = -(1.0 + 0.3 * np.cos(2 * np.pi * t))
        return Symbol(fn=lambda x, xi, lam, br, A=amp: A * br**2 + 0.1 * np.exp(2j * np.pi * x),
                      order=2.0, name="K(t)")

    prob = EvolutionProblem(symbol_factory=K_t, u0=torus.u_row(1), T=0.5, steps=200,
                            scheme="crank_nicolson", forcing=lambda t: torus.u_row(2),
                            order_m=2.0)
    traj = solve_ivp(torus, prob)
    rep = energy_check(torus, prob, traj)
    assert rep.violations == 0 and rep.passed
    assert rep.C_prime >= 0.0


def test_uniqueness_probe(torus):
    prob = dissipative_problem(torus, steps=100)
    rep = uniqueness_probe(torus, prob, seed=3)
    assert rep.bitwise_identical
    assert rep.homogeneous_max_norm <= 1e-12
    assert np.all(rep.ratio <= rep.envelope * (1 + 1e-6) + 1e-9)
    assert rep.passed


def test_residual_orders(torus):
    med = {}
    for steps in (200, 400):
        prob = dissipative_problem(torus, steps=steps)
        med[steps] = np.median(residual(torus, prob, solve_ivp(torus, prob)))
    assert med[200] / med[400] == pytest.approx(4.0, rel=0.2)
    medb = {}
    for steps in (200, 400):
        prob = dissipative_problem(torus, scheme="backward_euler", steps=steps)
        medb[steps] = np.median(residual(torus, prob, solve_ivp(torus, prob)))
    assert medb[200] / medb[400] == pytest.approx(2.0, rel=0.2)


# ---------------------------------------------------------------------------
# step matrices and guard built once per Galerkin array
# ---------------------------------------------------------------------------

def per_step_reference(model, prob):
    """Crank-Nicolson / backward Euler with a fresh Galerkin build, condition
    check and solve on every step: the form the cached step matrices replace."""
    n = len(model.indices)
    dt = prob.T / prob.steps
    times = np.linspace(0.0, prob.T, prob.steps + 1)
    eye = np.eye(n)

    def fresh_galerkin(t):
        tab = prob.symbol_factory(t).table(model, 0)
        return np.einsum("ey,y,ky,ky->ek", model.v.conj(), model.w, model.u, tab, optimize=True)

    def guarded_solve(A, rhs):
        cond = np.linalg.cond(A)
        assert np.isfinite(cond) and cond <= 1e12
        return np.linalg.solve(A, rhs)

    coeffs = np.zeros((prob.steps + 1, n), dtype=complex)
    coeffs[0] = fourier(model, prob.u0).values
    for k in range(prob.steps):
        if prob.scheme == "crank_nicolson":
            f_half = fourier(model, prob.forcing(times[k] + 0.5 * dt)).values
            rhs = (eye + 0.5 * dt * fresh_galerkin(times[k])) @ coeffs[k] + dt * f_half
            coeffs[k + 1] = guarded_solve(eye - 0.5 * dt * fresh_galerkin(times[k + 1]), rhs)
        else:
            rhs = coeffs[k] + dt * fourier(model, prob.forcing(times[k + 1])).values
            coeffs[k + 1] = guarded_solve(eye - dt * fresh_galerkin(times[k + 1]), rhs)
    return coeffs


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
def test_constant_generator_matches_per_step_reference(models, model_name, scheme):
    model = models[model_name]
    base = make_symbol("x_modulated_bracket", power=2.0)
    gen = Symbol(fn=lambda x, xi, lam, br: -base.fn(x, xi, lam, br), order=2.0, name="-K")
    forcing_row = model.u_row(2)
    prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=model.u_row(1), T=0.1, steps=40,
                            scheme=scheme, forcing=lambda t: np.cos(t) * forcing_row,
                            order_m=2.0)
    traj = solve_ivp(model, prob)
    assert np.array_equal(traj.coeffs, per_step_reference(model, prob))


def test_condition_guard_runs_once_per_galerkin_array(torus, monkeypatch):
    import nonharmonic.evolve as evolve
    calls = []
    guard = evolve.check_solvable
    monkeypatch.setattr(evolve, "check_solvable", lambda A, what: calls.append(1) or guard(A, what))
    gen = neg_laplace_symbol()
    for scheme in ("crank_nicolson", "backward_euler"):
        calls.clear()
        solve_ivp(torus, EvolutionProblem(symbol_factory=lambda t: gen, u0=torus.u_row(1),
                                          T=0.1, steps=20, scheme=scheme, order_m=2.0))
        assert len(calls) == 1
    calls.clear()
    solve_ivp(torus, dissipative_problem(torus, steps=20))  # a new symbol every call
    assert len(calls) == 20


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2"])
def test_crank_nicolson_builds_each_time_dependent_generator_once(models, model_name,
                                                                   monkeypatch):
    import nonharmonic.evolve as evolve
    model = models[model_name]
    steps, T = 30, 0.1
    builds = []
    build = evolve.galerkin_matrix
    monkeypatch.setattr(evolve, "galerkin_matrix", lambda m, s: builds.append(1) or build(m, s))

    def factory(t):  # a fresh symbol per call: every Galerkin matrix is a new build
        scale = 1.0 + 5.0 * t
        return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      * br**2 + 0.0j, order=2.0, name=f"K({t:g})")

    forcing_row = model.u_row(2)
    prob = EvolutionProblem(symbol_factory=factory, u0=model.u_row(1), T=T, steps=steps,
                            forcing=lambda t: np.cos(t) * forcing_row, order_m=2.0)
    traj = solve_ivp(model, prob)
    assert len(builds) == steps + 1  # K(t_0) ... K(t_S), each once

    # the reference rebuilds K(t) at both halves of every step; the bits are the same
    n, dt = len(model.indices), T / steps
    eye = np.eye(n)
    coeffs = np.zeros((steps + 1, n), dtype=complex)
    coeffs[0] = fourier(model, prob.u0).values
    Kv = np.full_like(coeffs, np.nan)
    for k in range(steps):
        M = build(model, factory(traj.times[k])).matrix
        Kv[k] = M @ coeffs[k]
        f_half = fourier(model, prob.forcing(traj.times[k] + 0.5 * dt)).values
        rhs = (eye + 0.5 * dt * M) @ coeffs[k] + dt * f_half
        M = build(model, factory(traj.times[k + 1])).matrix
        coeffs[k + 1] = np.linalg.solve(eye - 0.5 * dt * M, rhs)
    Kv[-1] = M @ coeffs[-1]
    assert np.array_equal(traj.coeffs, coeffs)
    assert np.array_equal(traj.Kv, Kv)
    reference = replace(traj, coeffs=coeffs, Kv=Kv)
    assert np.array_equal(residual(model, prob, traj), residual(model, prob, reference))


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("scheme,builds_expected", [("backward_euler", 30), ("picard", 31)])
def test_backward_euler_and_picard_build_each_time_dependent_generator_once(
        models, model_name, scheme, builds_expected, monkeypatch):
    import nonharmonic.evolve as evolve
    model = models[model_name]
    steps, T = 30, 0.1
    order = 0.0 if scheme == "picard" else 2.0
    builds = []
    build = evolve.galerkin_matrix
    monkeypatch.setattr(evolve, "galerkin_matrix", lambda m, s: builds.append(1) or build(m, s))

    def factory(t):  # a fresh symbol per call: every Galerkin matrix is a new build
        scale = 1.0 + 5.0 * t
        return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      * br**order + 0.0j, order=order, name=f"K({t:g})")

    forcing_row = model.u_row(2)
    prob = EvolutionProblem(symbol_factory=factory, u0=model.u_row(1), T=T, steps=steps,
                            scheme=scheme, forcing=lambda t: np.cos(t) * forcing_row,
                            order_m=order)
    traj = solve_ivp(model, prob)
    assert len(builds) == builds_expected  # backward Euler never reads K(t_0)

    # the reference builds K(t) afresh wherever a step reads it
    n, dt = len(model.indices), T / steps
    eye = np.eye(n)
    coeffs = np.zeros((steps + 1, n), dtype=complex)
    coeffs[0] = fourier(model, prob.u0).values
    Kv = np.full_like(coeffs, np.nan)
    if scheme == "backward_euler":
        for k in range(steps):
            rhs = coeffs[k] + dt * fourier(model, prob.forcing(traj.times[k + 1])).values
            M = build(model, factory(traj.times[k + 1])).matrix
            coeffs[k + 1] = np.linalg.solve(eye - dt * M, rhs)
            Kv[k + 1] = M @ coeffs[k + 1]
    else:
        mats = np.stack([build(model, factory(t)).matrix for t in traj.times])
        fs = np.stack([fourier(model, prob.forcing(t)).values for t in traj.times])
        cur = np.tile(coeffs[0], (steps + 1, 1))
        for it in range(1, traj.picard_iterations + 1):
            rhs = np.einsum("kij,kj->ki", mats, cur) + fs
            integ = np.zeros_like(cur)
            for k in range(steps):  # the trapezoid sums, added in sequence
                integ[k + 1] = integ[k] + 0.5 * dt * (rhs[k] + rhs[k + 1])
            new = coeffs[0][None, :] + integ
            res = float(np.max(np.abs(new - cur)))
            cur = new
        assert res < 1e-10
        coeffs = cur
        for k in range(steps + 1):
            Kv[k] = mats[k] @ coeffs[k]
    assert np.array_equal(traj.coeffs, coeffs)
    assert np.array_equal(traj.Kv, Kv, equal_nan=True)  # backward Euler records no K(t_0) v_0
    reference = replace(traj, coeffs=coeffs, Kv=Kv)
    assert np.array_equal(residual(model, prob, traj), residual(model, prob, reference))


def test_time_step_guard_trips_on_singular_system(torus):
    # the generator is 2/dt on one mode, so eye - (dt/2) M is singular there
    T, steps = 0.1, 50
    dt = T / steps
    gen = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, 2.0 / dt if xi == 3 else 0.0,
                                                          dtype=complex),
                 order=0.0, name="2/dt on mode 3")
    prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=torus.u_row(1), T=T, steps=steps,
                            scheme="crank_nicolson", ellipticity_gate="off")
    with pytest.raises(SpectrumProximityError):
        solve_ivp(torus, prob)


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("scheme,c", [("crank_nicolson", 2.0), ("backward_euler", 1.0)])
def test_time_step_guard_trips_on_whole_spectrum_collision(models, model_name, scheme, c):
    # a constant generator c/dt makes eye - (dt/c) M roundoff noise: its singular
    # values are ~1e-15 and below, while its condition number stays modest
    model = models[model_name]
    T, steps = 0.1, 50
    gen = make_symbol("constant", value=c * steps / T)
    prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=model.u_row(1), T=T, steps=steps,
                            scheme=scheme, ellipticity_gate="off")
    with pytest.raises(SpectrumProximityError):
        solve_ivp(model, prob)


# ---------------------------------------------------------------------------
# residual reads the K(t_k) v_k that solve_ivp recorded
# ---------------------------------------------------------------------------

def rebuilt_residual(model, prob, traj):
    """The residual with K(t_k) rebuilt at every interior step: the form the
    recorded products replace."""
    dt = traj.times[1] - traj.times[0]
    gram = coefficient_gram(model)
    out = []
    for k in range(1, prob.steps):
        t = traj.times[k]
        K = galerkin_matrix(model, prob.symbol_factory(t)).matrix
        f = fourier(model, prob.forcing(t)).values
        defect = (traj.coeffs[k + 1] - traj.coeffs[k - 1]) / (2.0 * dt) - (K @ traj.coeffs[k] + f)
        out.append(_norms_of(defect[None, :], gram)[0])
    return np.array(out)


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler", "picard"])
def test_residual_builds_no_generator_and_keeps_its_bits(models, model_name, scheme):
    model = models[model_name]
    order = 0.0 if scheme == "picard" else 2.0
    built = []

    def factory(t):  # a fresh symbol per call, as a time-dependent generator gives
        built.append(t)
        scale = 1.0 + 5.0 * t
        return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      * br**order + 0.0j, order=order, name=f"K({t:g})")

    forcing_row = model.u_row(2)
    prob = EvolutionProblem(symbol_factory=factory, u0=model.u_row(1), T=0.1,
                            steps=200 if scheme == "backward_euler" else 50, scheme=scheme,
                            forcing=lambda t: np.cos(t) * forcing_row, order_m=order)
    traj = solve_ivp(model, prob)
    built.clear()
    res = residual(model, prob, traj)
    assert built == []
    assert np.array_equal(res, rebuilt_residual(model, prob, traj))


def test_twisted_backward_euler_certifies_every_step_without_an_svd(monkeypatch):
    # the benchmark's time-dependent problem: a fresh generator, so a fresh guard, every step
    import nonharmonic.evolve as evolve
    model = build_model(ModelSpec(kind="h_derivative", N=32, Q=256, h=2.0))
    guards, svds = [], []
    guard, svd = evolve.check_solvable, np.linalg.svd
    monkeypatch.setattr(evolve, "check_solvable",
                        lambda A, what: guards.append(1) or guard(A, what))
    monkeypatch.setattr(np.linalg, "svd", lambda A, **kw: svds.append(1) or svd(A, **kw))

    def generator(t):
        scale = 1.0 + 5.0 * t
        return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      * br**2 + 0.0j, order=2.0, name=f"K({t:g})")

    u2 = model.u_row(2)
    solve_ivp(model, EvolutionProblem(symbol_factory=generator, u0=model.u_row(1), T=0.1,
                                      steps=200, scheme="backward_euler",
                                      forcing=lambda t: np.cos(t) * u2, order_m=2.0))
    assert len(guards) == 200
    assert len(svds) == 0


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_norms_of_equals_the_searched_path(models, model_name):
    model = models[model_name]
    gram = coefficient_gram(model)
    rng = np.random.default_rng(5)
    n = len(model.indices)
    for rows in (1, 201):
        c = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        vals = np.einsum("ki,ij,kj->k", c.conj(), gram, c, optimize=True)
        assert np.array_equal(_norms_of(c, gram), np.sqrt(np.maximum(vals.real, 0.0)))
