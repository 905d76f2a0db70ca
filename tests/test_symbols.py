import numpy as np
import pytest

from nonharmonic.errors import AdmissibilityError, ConfigurationError, WindowExhaustedError
from nonharmonic.model import ModelSpec, build_model
from nonharmonic.symbols import (DEFAULT_MARGIN, AdmissibleFamily, Symbol, apply_D,
                                 apply_Delta, apply_Delta_star, d_operator_transform,
                                 default_family, estimate_order, make_symbol, seminorm)

TWO_PI_I = 2j * np.pi


def forward_difference_table(model, sym, alpha, margin=0):
    """Oracle: iterated forward difference from direct evaluator calls."""
    from math import comb
    M = model.N + margin
    rows = []
    for xi in range(-M, M + 1):
        acc = np.zeros(model.Q, dtype=complex)
        for j in range(alpha + 1):
            acc += comb(alpha, j) * (-1.0) ** (alpha - j) * sym.values(model, xi + j)
        rows.append(acc)
    return np.stack(rows)


def test_default_family_invariants():
    fam = default_family()
    x = np.linspace(0, 1, 13)
    assert np.max(np.abs(fam.q(x, x))) == 0.0
    # periodic in y: multiplication preserves both built-in boundary domains
    np.testing.assert_allclose(fam.q(x, np.zeros_like(x)), fam.q(x, np.ones_like(x)), atol=1e-15)
    assert abs(fam.diag_taylor[1]) > 0


def test_d_operator_transform_closed_form():
    tr = d_operator_transform(default_family(), 3)
    assert tr.T[1, 1] == pytest.approx(TWO_PI_I, rel=1e-14)
    assert tr.T[2, 1] == pytest.approx(TWO_PI_I**2, rel=1e-14)
    assert tr.T[2, 2] == pytest.approx(TWO_PI_I**2, rel=1e-14)
    # D^(1) = (2 pi i)^-1 d_x ;  D^(2) = (2 pi i)^-2 d_x^2 - D^(1)
    assert tr.Tinv[1, 1] == pytest.approx(1.0 / TWO_PI_I, rel=1e-14)
    assert tr.Tinv[2, 2] == pytest.approx(TWO_PI_I**-2, rel=1e-14)
    assert tr.Tinv[2, 1] == pytest.approx(-1.0 / TWO_PI_I, rel=1e-14)


def test_degenerate_family_rejected():
    fam = AdmissibleFamily(q=lambda x, y: (np.exp(TWO_PI_I * (y - x)) - 1.0) ** 2,
                           diag_taylor=np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
                           name="squared")
    with pytest.raises(AdmissibilityError):
        d_operator_transform(fam, 2)


@pytest.mark.parametrize("kind,h", [("torus_derivative", None), ("h_derivative", 2.0),
                                    ("h_derivative", 0.5), ("torus_laplacian", None)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_delta_equals_forward_difference(kind, h, alpha):
    m = build_model(ModelSpec(kind=kind, N=8, Q=64, h=h))
    for sym in (make_symbol("bracket_power", power=1.0),
                make_symbol("lambda_multiplier", order=m.order),
                make_symbol("x_modulated_bracket", power=1.0)):
        got = apply_Delta(m, sym, alpha).table(m, 0)
        oracle = forward_difference_table(m, sym, alpha)
        scale = max(1.0, float(np.max(np.abs(sym.table(m, alpha)))))
        assert np.max(np.abs(got - oracle)) / scale <= 1e-12, sym.name


def test_delta_of_lambda_on_torus_is_constant(torus):
    sym = make_symbol("lambda_multiplier", order=1.0)
    tab = apply_Delta(torus, sym, 1).table(torus, 0)
    np.testing.assert_allclose(tab, 2 * np.pi, atol=1e-11)


def test_delta_annihilates_multiplier_constants(torus):
    sym = make_symbol("constant", value=2.5)
    for alpha in (1, 2):
        assert np.max(np.abs(apply_Delta(torus, sym, alpha).table(torus, 0))) <= 1e-13


def test_delta_linearity(torus):
    a = make_symbol("bracket_power", power=1.0)
    b = make_symbol("lambda_multiplier", order=1.0)
    da = apply_Delta(torus, a, 1).table(torus, 0)
    db = apply_Delta(torus, b, 1).table(torus, 0)
    both = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, br + lam, dtype=complex), order=1.0)
    dsum = apply_Delta(torus, both, 1).table(torus, 0)
    np.testing.assert_allclose(dsum, da + db, atol=1e-11)
    scaled = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, 3.0 * br, dtype=complex), order=1.0)
    np.testing.assert_allclose(apply_Delta(torus, scaled, 1).table(torus, 0), 3.0 * da, atol=1e-11)


def test_delta_star_is_backward_difference_on_torus(torus):
    sym = make_symbol("bracket_power", power=1.0)
    got = apply_Delta_star(torus, sym, 1).table(torus, 0)
    oracle = np.stack([sym.values(torus, xi - 1) - sym.values(torus, xi)
                       for xi in range(-torus.N, torus.N + 1)])
    scale = max(1.0, float(np.max(np.abs(sym.table(torus, 1)))))
    assert np.max(np.abs(got - oracle)) / scale <= 1e-12


def test_window_exhaustion_raises(torus):
    tab = make_symbol("bracket_power", power=1.0).table(torus, 1)
    narrow = Symbol.from_table(torus, tab, 1, order=1.0)
    with pytest.raises(WindowExhaustedError):
        apply_Delta(torus, narrow, 2)
    with pytest.raises(WindowExhaustedError):
        narrow.table(torus, 3)


def test_apply_D_annihilates_x_independent(torus):
    sym = make_symbol("bracket_power", power=1.0)
    for beta in (1, 2):
        assert np.max(np.abs(apply_D(torus, sym, beta).table(torus, 0))) <= 1e-12


def test_apply_D_exp_mode_eigenfunction(torus):
    sym = make_symbol("exp_mode", mode=1, power=1.0)
    got = apply_D(torus, sym, 1).table(torus, 0)
    scale = float(np.max(np.abs(sym.table(torus, 0))))
    assert np.max(np.abs(got - sym.table(torus, 0))) / scale <= 1e-12
    # the second spectral derivative amplifies roundoff by (2 pi Q/2)^2
    assert np.max(np.abs(apply_D(torus, sym, 2).table(torus, 0))) / scale <= 1e-10


def test_apply_D_beta_zero_identity(torus):
    sym = make_symbol("exp_mode", mode=1)
    assert apply_D(torus, sym, 0) is sym


def test_seminorm_exact_cancellation(torus):
    assert seminorm(torus, make_symbol("bracket_power", power=1.0),
                    1.0, 0, 0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_seminorm_first_difference_value(torus):
    sym = make_symbol("bracket_power", power=1.0)
    got = seminorm(torus, sym, 1.0, 1, 0, 1.0, 0.0)
    br = torus.bracket_val(np.arange(-torus.N, torus.N + 1))
    br_next = torus.bracket_val(np.arange(-torus.N + 1, torus.N + 2))
    oracle = np.max(np.abs(br_next - br) * br**0.0)
    assert got == pytest.approx(float(oracle), rel=1e-12)


def test_seminorm_bounded_at_declared_order_grows_below():
    values_ok, values_low = [], []
    for N in (8, 16, 32):
        m = build_model(ModelSpec(kind="torus_derivative", N=N, Q=4 * (2 * N + 1)))
        sym = make_symbol("bracket_power", power=2.0)
        values_ok.append(seminorm(m, sym, 2.0, 0, 0, 1.0, 0.0))
        values_low.append(seminorm(m, sym, 1.0, 0, 0, 1.0, 0.0))
    assert max(values_ok) / min(values_ok) <= 1.01
    assert values_low[1] / values_low[0] >= 1.8
    assert values_low[2] / values_low[1] >= 1.8


@pytest.mark.parametrize("name,kw,expected", [
    ("bracket_power", {"power": 2.0}, 2.0),
    ("constant", {"value": 1.0}, 0.0),
    ("x_modulated_bracket", {"power": 1.0}, 1.0),
])
def test_estimate_order_recovers_declared(torus, name, kw, expected):
    rep = estimate_order(torus, make_symbol(name, **kw), 1.0, 0.0)
    assert rep.fitted_order == pytest.approx(expected, abs=0.05)


def test_estimate_order_builds_each_D_beta_once(monkeypatch):
    import nonharmonic.symbols as symbols

    m = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    calls = []
    monkeypatch.setattr(symbols, "apply_D",
                        lambda *a, **kw: calls.append(a[2]) or apply_D(*a, **kw))
    estimate_order(m, make_symbol("x_modulated_bracket", power=1.0), 1.0, 0.0)
    assert sorted(calls) == [0, 1, 2]


def test_registry_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_symbol("does_not_exist")


def test_table_cache_reused(torus):
    sym = make_symbol("bracket_power", power=1.0)
    t1 = sym.table(torus, 2)
    t2 = sym.table(torus, 2)
    assert t1 is t2


def test_table_on_foreign_model_rejected(torus):
    other = build_model(ModelSpec(kind="torus_derivative", N=4, Q=64))
    tab = make_symbol("bracket_power", power=1.0).table(other, 0)
    foreign = Symbol.from_table(other, tab, 0)
    with pytest.raises(ConfigurationError):
        foreign.table(torus, 0)


@pytest.mark.parametrize("read", [lambda s, m: s.available_margin(m),
                                  lambda s, m: s.values(m, 0),
                                  lambda s, m: s.table(m, 0)],
                         ids=["available_margin", "values", "table"])
def test_every_read_of_a_foreign_table_rejected(torus, read):
    other = build_model(ModelSpec(kind="torus_derivative", N=4, Q=64))
    foreign = Symbol.from_table(other, make_symbol("constant").table(other, 1), 1)
    with pytest.raises(ConfigurationError):
        read(foreign, torus)


def test_unlimited_symbol_reports_default_margin(torus):
    sym = make_symbol("bracket_power", power=1.0)
    assert sym.margin is None
    assert sym.available_margin(torus) == DEFAULT_MARGIN
    assert make_symbol("bracket_power", power=1.0, margin=2).available_margin(torus) == 2


def delta_star_reference(model, sym, alpha):
    """The adjoint difference operator written out on its own: the v-basis
    coupled against conj(u) through the conjugate family."""
    family = default_family().conjugate()
    avail = sym.available_margin(model)
    in_margin = DEFAULT_MARGIN if avail is None else avail
    out_margin = in_margin - alpha
    in_off, out_off = model.N + in_margin, model.N + out_margin
    tab = sym.table(model, in_margin)
    q_pow = family.power_xy(model.x, model.x, alpha)
    V_in = model.v_block(-in_off, in_off)
    V_out = model.v_block(-out_off, out_off)
    U_in = model.u_block(-in_off, in_off)
    C = np.einsum("xy,ey,gy,y->xge", q_pow, U_in.conj(), V_out, model.w, optimize=True)
    summed = np.einsum("xge,ex->gx", C, V_in * tab, optimize=True)
    return summed / V_out


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("backing", ["fn", "table"])
def test_delta_star_equals_written_out_adjoint(hmodel, alpha, backing):
    sym = make_symbol("x_modulated_bracket", power=1.0)
    if backing == "table":
        sym = Symbol.from_table(hmodel, sym.table(hmodel, 5), 5, order=1.0)
    out = apply_Delta_star(hmodel, sym, alpha)
    assert np.array_equal(out.table(hmodel, out.margin), delta_star_reference(hmodel, sym, alpha))
