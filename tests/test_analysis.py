import numpy as np
import pytest

from nonharmonic.analysis import (garding_estimate, hilbert_schmidt_norm,
                                  interpolation_constant, l2_operator_norm)
from nonharmonic.errors import ConfigurationError, EllipticityError, NumericalConsistencyError
from nonharmonic.model import ModelSpec, build_model, s0_tail
from nonharmonic.quantize import galerkin_matrix
from nonharmonic.symbols import make_symbol


def test_garding_multiplier_sharp_constants(torus):
    rep = garding_estimate(torus, make_symbol("bracket_power", power=2.0), 2.0,
                           trials=200, seed=42)
    assert rep.C0 == pytest.approx(1.0, abs=1e-12)
    assert rep.C1 == pytest.approx(1.0, abs=1e-12)
    assert rep.C2 <= 1e-10
    assert rep.violations == 0 and rep.verdict


def test_garding_variable_coefficient(torus):
    rep = garding_estimate(torus, make_symbol("x_modulated_bracket", power=2.0), 2.0,
                           trials=200, seed=42)
    assert rep.C0 == pytest.approx(2.0, abs=1e-12)
    assert rep.C1 >= 0.2
    assert rep.violations == 0 and rep.verdict


def test_garding_feasible_at_both_desk_truncations():
    from nonharmonic.model import ModelSpec, build_model
    for N in (8, 16):
        m = build_model(ModelSpec(kind="torus_derivative", N=N, Q=8 * N))
        rep = garding_estimate(m, make_symbol("x_modulated_bracket", power=2.0), 2.0,
                               trials=200, seed=42)
        assert rep.verdict and rep.violations == 0


def test_garding_rejects_non_elliptic(torus):
    from nonharmonic.symbols import Symbol
    neg = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, -(br**2), dtype=complex),
                 order=2.0, name="-bracket^2")
    with pytest.raises(EllipticityError):
        garding_estimate(torus, neg, 2.0, trials=10, seed=0)


def test_garding_seed_reproducible(torus):
    sym = make_symbol("x_modulated_bracket", power=2.0)
    r1 = garding_estimate(torus, sym, 2.0, trials=50, seed=7)
    r2 = garding_estimate(torus, sym, 2.0, trials=50, seed=7)
    np.testing.assert_array_equal(r1.quad_forms, r2.quad_forms)
    assert r1.C1 == r2.C1 and r1.C2 == r2.C2


def garding_reference(model, a, m, trials, seed):
    """Garding's trial loop with the quantization sum and the starred rows
    built on every trial."""
    from nonharmonic.quantize import op_apply_coeff
    from nonharmonic.transform import CoeffVector, inverse

    rng = np.random.default_rng(seed)
    n = len(model.indices)
    quad, sob, l2 = np.empty(trials), np.empty(trials), np.empty(trials)
    sob_weights = model.bracket_val(model.indices) ** m
    for t in range(trials):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        cv = CoeffVector(c)
        u = inverse(model, cv)
        Au = op_apply_coeff(model, a, cv)
        quad[t] = float(np.real(model.quad(Au * np.conj(u))))
        fstar = (model.u.conj() * model.w) @ u
        sob[t] = float(np.real(np.sum(sob_weights * c * np.conj(fstar))))
        l2[t] = float(np.real(model.quad(np.abs(u) ** 2)))
    return quad, sob, l2


@pytest.mark.parametrize("kind", ["torus_derivative", "h_derivative_2"])
def test_garding_trials_equal_the_per_trial_loop(models, kind):
    sym = make_symbol("x_modulated_bracket", power=2.0)
    rep = garding_estimate(models[kind], sym, 2.0, trials=60, seed=11)
    quad, sob, l2 = garding_reference(models[kind], sym, 2.0, 60, 11)
    assert np.array_equal(rep.quad_forms, quad)
    assert np.array_equal(rep.sobolev_sq, sob)
    assert np.array_equal(rep.l2_sq, l2)


@pytest.mark.parametrize("trials", [0, -1])
def test_garding_rejects_fewer_than_one_trial(torus, trials):
    sym = make_symbol("bracket_power", power=2.0)
    with pytest.raises(ConfigurationError, match="trials >= 1"):
        garding_estimate(torus, sym, 2.0, trials=trials)
    assert sym._cache == {}  # raised before any table was sampled


def test_garding_rejects_non_finite_quadratic_forms():
    # the forms of a 1e308 multiplier overflow; without its own check the
    # estimate passed with nan forms, C2 = 0 and no violation
    model = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    with np.errstate(all="ignore"), pytest.raises(NumericalConsistencyError, match="non-finite"):
        garding_estimate(model, make_symbol("constant", value=1e308), 0.0, trials=20, seed=1)


def test_interpolation_continuum_bounds(torus):
    C = interpolation_constant(torus, 2.0, 1.0, 0.1)
    assert C <= 1.0 / (4 * 0.1) + 1e-12
    C2 = interpolation_constant(torus, 1.0, 0.0, 0.5)
    assert C2 == pytest.approx(1.0 - 0.5, abs=1e-14)  # attained at <xi> = 1


def test_interpolation_large_eps_floor(torus):
    assert interpolation_constant(torus, 2.0, 1.0, 1.0) == 0.0
    assert interpolation_constant(torus, 2.0, 1.0, 1.7) == 0.0


def test_interpolation_negative_orders(torus):
    C = interpolation_constant(torus, -1.0, -2.0, 0.25)
    assert C >= 0.0


def test_interpolation_domain_guards(torus):
    with pytest.raises(ConfigurationError):
        interpolation_constant(torus, 1.0, 2.0, 0.1)   # s < t
    with pytest.raises(ConfigurationError):
        interpolation_constant(torus, 1.0, -1.0, 0.1)  # mixed signs
    with pytest.raises(ConfigurationError):
        interpolation_constant(torus, 2.0, 1.0, 0.0)


def test_hilbert_schmidt_multiplier_identity(torus):
    a = make_symbol("bracket_power", power=-1.0)
    hs = hilbert_schmidt_norm(torus, a)
    br = torus.bracket_val(torus.indices)
    assert hs == pytest.approx(float(np.sqrt(np.sum(br**-2.0))), abs=1e-10)


def test_hilbert_schmidt_rank_one_projector(torus):
    assert hilbert_schmidt_norm(torus, make_symbol("mode_indicator", mode=0)) == pytest.approx(
        1.0, abs=1e-12)


def test_hilbert_schmidt_cross_checks_tail(torus):
    hs = hilbert_schmidt_norm(torus, make_symbol("bracket_power", power=-1.0))
    tail = s0_tail(torus, 2.0)
    assert hs**2 == pytest.approx(float(tail.partial_sums[-1]), abs=1e-10)


def test_hilbert_schmidt_finite_on_h_model(hmodel):
    hs = hilbert_schmidt_norm(hmodel, make_symbol("bracket_power", power=-1.0))
    assert np.isfinite(hs) and hs > 0


def test_l2_norm_constant_symbol(torus):
    norms = l2_operator_norm(torus.spec, make_symbol("constant", value=-2.5), [4, 8, 16])
    np.testing.assert_allclose(norms, 2.5, atol=1e-12)


def test_l2_norm_unitary_shift(torus):
    norms = l2_operator_norm(torus.spec, make_symbol("exp_mode", mode=1), [4, 8, 16])
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_l2_norm_order_zero_plateau(torus):
    sym = make_symbol("x_modulated_bracket", power=0.0)
    norms = l2_operator_norm(torus.spec, sym, [8, 16, 32])
    assert np.all(np.diff(norms) > -1e-12)
    assert norms[2] / norms[1] - 1.0 <= 0.01
    assert norms[2] <= 1.5 + 1e-9  # sup of the coefficient 1 + 0.5 sin


def test_l2_norm_h_model_uses_sequence_geometry(hmodel):
    # truncating the top mode of the shift can raise the norm above 1 in the
    # biorthogonal geometry (plain spectral norm of the section is exactly 1),
    # which is precisely what the Gram pairing is there to capture
    norms = l2_operator_norm(hmodel.spec, make_symbol("exp_mode", mode=1), [8, 16])
    assert np.all(norms > 1.0 + 1e-3)
    assert np.all(norms < 1.05)
    assert abs(norms[1] / norms[0] - 1.0) <= 0.01


@pytest.mark.parametrize("h", [2.0, 0.5])
def test_l2_norm_h_model_matches_qr_oracle(h):
    # G = R^H R with R from a QR factorization of sqrt(w) u^T, independent of
    # the Cholesky route; the norm is ||R M R^-1||_2
    spec = ModelSpec(kind="h_derivative", N=8, Q=64, h=h)
    sym = make_symbol("exp_mode", mode=1)
    truncations = [8, 16]
    norms = l2_operator_norm(spec, sym, truncations)
    for N, norm in zip(truncations, norms):
        sub = build_model(ModelSpec(kind="h_derivative", N=N, Q=max(64, 4 * (2 * N + 1)), h=h))
        M = galerkin_matrix(sub, sym).matrix
        R = np.linalg.qr(np.sqrt(sub.w)[:, None] * sub.u.T, mode="r")
        oracle = np.linalg.norm(R @ M @ np.linalg.inv(R), 2)
        assert norm == pytest.approx(oracle, rel=1e-12)


def test_l2_norm_requires_ascending_truncations(torus):
    with pytest.raises(ConfigurationError):
        l2_operator_norm(torus.spec, make_symbol("constant", value=1.0), [16, 8])


@pytest.mark.parametrize("kind", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("symbol", [{"name": "bracket_power", "power": 2.0},
                                    {"name": "x_modulated_bracket", "power": 2.0}])
def test_garding_constants_are_their_closed_forms(models, kind, symbol):
    params = dict(symbol)
    rep = garding_estimate(models[kind], make_symbol(params.pop("name"), **params), 2.0,
                           trials=40, seed=3)
    assert rep.C1 == 1.0 / rep.C0
    # the last point of the C1 sweep the estimator once ran
    assert rep.C1 == np.linspace(1.0 / rep.C0 / 257, 1.0 / rep.C0, 257)[-1]
    deficit = (rep.C1 * rep.sobolev_sq - rep.quad_forms) / rep.l2_sq
    assert rep.C2 == max(0.0, float(np.max(deficit)))


def _negated(sym):
    from nonharmonic.symbols import Symbol

    return Symbol(fn=lambda x, xi, lam, br: -sym.fn(x, xi, lam, br), order=sym.order,
                  name=f"-{sym.name}")


def test_gate_and_garding_reject_a_symbol_that_touches_zero(torus):
    from nonharmonic.evolve import EvolutionProblem

    # (1 + sin 2 pi x) bracket^2 vanishes at the grid point x = 3/4
    sym = make_symbol("x_modulated_bracket", power=2.0, amplitude=1.0)
    assert 0.75 in torus.x
    with pytest.raises(EllipticityError):
        garding_estimate(torus, sym, 2.0, trials=10, seed=0)
    prob = EvolutionProblem(symbol_factory=lambda t: _negated(sym), u0=torus.u_row(1),
                            T=0.1, steps=10, order_m=2.0)
    with pytest.raises(EllipticityError):
        prob.validate(torus)


def test_gate_and_garding_accept_a_symbol_just_inside(torus):
    from nonharmonic.analysis import ellipticity_floor
    from nonharmonic.evolve import EvolutionProblem

    sym = make_symbol("x_modulated_bracket", power=2.0, amplitude=0.99)
    assert ellipticity_floor(torus, sym.table(torus, 0).real, 2.0) == pytest.approx(0.01)
    rep = garding_estimate(torus, sym, 2.0, trials=10, seed=0)
    assert rep.C0 == pytest.approx(100.0)
    prob = EvolutionProblem(symbol_factory=lambda t: _negated(sym), u0=torus.u_row(1),
                            T=0.1, steps=10, order_m=2.0)
    prob.validate(torus)
