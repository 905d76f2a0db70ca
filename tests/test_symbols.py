import numpy as np
import pytest

from conftest import closed_form_rows, use_lanes
from nonharmonic.errors import ConfigurationError, WindowExhaustedError
from nonharmonic.model import ModelProblem, ModelSpec, build_model
from nonharmonic.symbols import (DEFAULT_MARGIN, Symbol, _q_power, _taylor_coefficients,
                                 apply_D, apply_Delta, apply_Delta_many, apply_Delta_star,
                                 d_operator_transform, estimate_order, make_symbol, seminorm)

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


@pytest.mark.parametrize("Q", [13, 64])
def test_family_invariants(Q):
    for star in (False, True):
        q = _q_power(Q, 1, star)
        assert np.max(np.abs(np.diag(q))) == 0.0
        # periodic in y: multiplication preserves both built-in boundary domains;
        # q[0, k] = e_k and q[Q - k, 0] = e_{k-Q} for k = 1..Q-1
        np.testing.assert_allclose(q[0, 1:], q[:0:-1, 0], atol=1e-15)
    conj_q = np.conj(_q_power(Q, 1, False))
    np.fill_diagonal(conj_q, 0.0)  # the power leaves +0 on the diagonal, where conj gives 0-0j
    assert _q_power(Q, 1, True).tobytes() == conj_q.tobytes()
    assert _taylor_coefficients(1)[1] == TWO_PI_I


def dense_q_power(Q, alpha, star):
    """q^alpha (q~^alpha) exponentiated entry by entry on the model grid."""
    x = np.arange(Q, dtype=float) / Q
    q = np.exp(2j * np.pi * (x[None, :] - x[:, None])) - 1.0
    return (np.conj(q) if star else q) ** alpha


@pytest.mark.parametrize("star", [False, True])
def test_q_power_closed_form_equals_the_dense_grid(star):
    for Q in (2 ** k for k in range(1, 11)):  # x_j - x_i is exact: every bit, signed zeros too
        for alpha in range(1, 5):
            q = _q_power(Q, alpha, star)
            assert q.shape == (Q, Q) and q.flags.c_contiguous
            assert q.tobytes() == dense_q_power(Q, alpha, star).tobytes(), (Q, alpha)
    for Q in (6, 10, 41, 63, 97, 129, 260):  # the angle is the rounded (j-i)/Q, not x_j - x_i
        for alpha in range(1, 4):
            q = _q_power(Q, alpha, star)
            assert q.flags.c_contiguous
            assert np.max(np.abs(q - dense_q_power(Q, alpha, star))) <= 2e-14, (Q, alpha)


def test_d_operator_transform_closed_form():
    tr = d_operator_transform(3)
    assert tr.T[1, 1] == pytest.approx(TWO_PI_I, rel=1e-14)
    assert tr.T[2, 1] == pytest.approx(TWO_PI_I**2, rel=1e-14)
    assert tr.T[2, 2] == pytest.approx(TWO_PI_I**2, rel=1e-14)
    # D^(1) = (2 pi i)^-1 d_x ;  D^(2) = (2 pi i)^-2 d_x^2 - D^(1)
    assert tr.Tinv[1, 1] == pytest.approx(1.0 / TWO_PI_I, rel=1e-14)
    assert tr.Tinv[2, 2] == pytest.approx(TWO_PI_I**-2, rel=1e-14)
    assert tr.Tinv[2, 1] == pytest.approx(-1.0 / TWO_PI_I, rel=1e-14)


def test_d_operator_transform_inverse_is_lower_triangular():
    for K in range(1, 9):
        tr = d_operator_transform(K)
        assert np.all(np.triu(tr.Tinv, 1) == 0)
        # forward substitution's componentwise residual bound; T grows like (2 pi)^K,
        # so the plain entries of T Tinv - I are only ~1e-6 small at K = 8
        residual = np.abs(tr.T @ tr.Tinv - np.eye(K + 1))
        assert np.all(residual <= 1e-13 * (np.abs(tr.T) @ np.abs(tr.Tinv))), K


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
    for xi in (torus.N + 2, -torus.N - 2):
        with pytest.raises(WindowExhaustedError, match="valid window"):
            narrow.values(torus, xi)
    with pytest.raises(ConfigurationError, match="shape"):
        Symbol.from_table(torus, tab, 2, order=1.0)


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


@pytest.mark.parametrize("Q", [64, 63])
def test_apply_D_sums_one_inverse_fft_per_order(Q):
    # a random table fills every mode, the Nyquist mode of an even Q included,
    # which an odd order zeroes
    model = build_model(ModelSpec(kind="h_derivative", N=8, Q=Q, h=2.0))
    rng = np.random.default_rng(24)
    shape = (2 * (model.N + 3) + 1, Q)
    tab = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = Symbol.from_table(model, tab, 3, order=1.0)
    k = np.fft.fftfreq(Q, d=1.0 / Q)
    for beta in range(1, 5):
        Tinv = d_operator_transform(beta).Tinv
        want = np.zeros_like(tab)
        for j in range(1, beta + 1):
            mult = (TWO_PI_I * k) ** j
            if Q % 2 == 0 and j % 2 == 1:
                mult[Q // 2] = 0.0
            if Tinv[beta, j] != 0:
                want += Tinv[beta, j] * np.fft.ifft(np.fft.fft(tab, axis=-1) * mult, axis=-1)
        assert np.array_equal(apply_D(model, sym, beta).table(model, 3), want)


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


@pytest.mark.parametrize("key", ["rho", "delta"])
def test_registry_rejects_type_parameters(key):
    # the type (rho, delta) is an argument of the seminorms, not a symbol field
    with pytest.raises(ConfigurationError, match=f"takes no parameter {key}"):
        make_symbol("bracket_power", **{key: 0.5})


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


def test_declared_margin_bounds_table_and_values(torus):
    sym = make_symbol("bracket_power", margin=2)
    with pytest.raises(WindowExhaustedError):
        sym.table(torus, 3)
    for xi in (torus.N + 3, -torus.N - 3):
        with pytest.raises(WindowExhaustedError):
            sym.values(torus, xi)


def timedep_generator(t):
    """A fresh x-modulated generator per time, as a time-stepping factory builds it."""
    scale = 1.0 + 5.0 * t
    return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                  * br**2 + 0.0j, order=2.0, name=f"K({t:g})")


def every_registry_symbol(model):
    return [make_symbol("bracket_power", power=1.5),
            make_symbol("lambda_multiplier", order=model.order),
            make_symbol("constant", value=2.0), make_symbol("x_modulated_bracket", power=1.0),
            make_symbol("exp_mode", mode=1, power=0.5), make_symbol("mode_indicator", mode=1),
            timedep_generator(0.3)]


@pytest.mark.parametrize("margin", [0, DEFAULT_MARGIN])
def test_table_equals_stacked_values(models, margin):
    for name in ("torus_derivative", "h_derivative_2", "torus_laplacian"):
        m = models[name]
        M = m.N + margin
        for sym in every_registry_symbol(m):
            stacked = np.stack([sym.values(m, xi) for xi in range(-M, M + 1)])
            assert np.array_equal(sym.table(m, margin), stacked), (name, sym.name)


def test_fresh_generators_share_one_window_of_eigenvalues(monkeypatch):
    calls = []
    lam = ModelProblem.lam
    monkeypatch.setattr(ModelProblem, "lam", lambda self, xi: calls.append(xi) or lam(self, xi))
    m = build_model(ModelSpec(kind="h_derivative", N=8, Q=64, h=2.0))
    for k in range(200):
        timedep_generator(k / 200).table(m, 0)
    assert 0 < len(calls) <= 2 * (2 * m.N + 1)


def test_unlimited_symbol_reports_default_margin(torus):
    sym = make_symbol("bracket_power", power=1.0)
    assert sym.margin is None
    assert sym.available_margin(torus) == DEFAULT_MARGIN
    assert make_symbol("bracket_power", power=1.0, margin=2).available_margin(torus) == 2


def delta_reference(model, sym, alpha, star=False):
    """The difference operator written out on its own: the u-basis coupled
    against conj(v) through q(x, y) = e^{2 pi i (y - x)} - 1, or for the
    adjoint the v-basis against conj(u) through q~ = conj(q), contracted as
    a batched product over the (x, xi, eta) tensor."""
    in_margin = sym.available_margin(model)
    out_margin = in_margin - alpha
    in_off, out_off = model.N + in_margin, model.N + out_margin
    tab = sym.table(model, in_margin)
    q = np.exp(2j * np.pi * (model.x[None, :] - model.x[:, None])) - 1.0
    q_pow = (np.conj(q) if star else q) ** alpha
    B_in = closed_form_rows(model, -in_off, in_off, dual=star)
    B_out = closed_form_rows(model, -out_off, out_off, dual=star)
    D_in = closed_form_rows(model, -in_off, in_off, dual=not star)
    C = np.einsum("xy,ey,gy,y->xge", q_pow, D_in.conj(), B_out, model.w, optimize=True)
    summed = np.einsum("xge,ex->gx", C, B_in * tab, optimize=True)
    return summed / B_out


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("backing", ["fn", "table"])
def test_delta_star_equals_written_out_adjoint(hmodel, alpha, backing):
    sym = make_symbol("x_modulated_bracket", power=1.0)
    if backing == "table":
        sym = Symbol.from_table(hmodel, sym.table(hmodel, 5), 5, order=1.0)
    out = apply_Delta_star(hmodel, sym, alpha)
    assert np.array_equal(out.table(hmodel, out.margin),
                          delta_reference(hmodel, sym, alpha, star=True))


@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("backing", ["fn", "table"])
def test_delta_equals_written_out_difference(models, name, alpha, backing):
    m = models[name]
    sym = make_symbol("x_modulated_bracket", power=1.0)
    if backing == "table":
        sym = Symbol.from_table(m, sym.table(m, 5), 5, order=1.0)
    out = apply_Delta(m, sym, alpha)
    assert np.array_equal(out.table(m, out.margin), delta_reference(m, sym, alpha))


def mixed_margin_symbols(model):
    """fn- and table-backed symbols over two input windows (margins 4 and 5)."""
    modulated = make_symbol("x_modulated_bracket", power=1.0)
    return [modulated,
            Symbol.from_table(model, make_symbol("exp_mode", mode=1, power=0.5).table(model, 5), 5,
                              order=0.5, name="wide"),
            make_symbol("bracket_power", power=2.0),
            Symbol.from_table(model, modulated.table(model, 4), 4, order=1.0, name="narrow")]


@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_apply_Delta_many_equals_one_call_per_symbol(models, name, alpha):
    m = models[name]
    syms = mixed_margin_symbols(m)
    many = apply_Delta_many(m, syms, alpha)
    assert len(many) == len(syms)
    for got, sym in zip(many, syms):
        one = apply_Delta(m, sym, alpha)
        assert (got.margin, got.order, got.name) == (one.margin, one.order, one.name)
        assert got.margin == sym.available_margin(m) - alpha
        assert np.array_equal(got.table(m, got.margin), one.table(m, one.margin)), sym.name


def test_apply_Delta_many_order_zero_and_empty(torus):
    syms = mixed_margin_symbols(torus)
    out = apply_Delta_many(torus, syms, 0)
    assert len(out) == len(syms) and all(a is b for a, b in zip(out, syms))
    assert apply_Delta_many(torus, [], 2) == []


@pytest.fixture
def tensor_builds(monkeypatch):
    """Every coupling tensor built while the test runs, as weak references to
    the arrays that own their memory (the tensor itself may be a view)."""
    import weakref

    import nonharmonic.symbols as symbols

    build, refs = symbols.coupling_tensor, []

    def counted(*args, **kwargs):
        # at most one tensor at a time: the previous one is gone before the next is built
        assert all(ref() is None for ref in refs)
        C = build(*args, **kwargs)
        refs.append(weakref.ref(C if C.base is None else C.base))
        return C

    monkeypatch.setattr(symbols, "coupling_tensor", counted)
    return refs


@pytest.fixture
def q_builds(monkeypatch):
    """(Q, alpha, star) of every q^alpha built while the test runs."""
    import nonharmonic.symbols as symbols

    build, calls = symbols._q_power, []

    def counted(Q, alpha, star):
        calls.append((Q, alpha, star))
        return build(Q, alpha, star)

    monkeypatch.setattr(symbols, "_q_power", counted)
    return calls


def test_q_power_is_built_once_per_window_and_order(torus, q_builds):
    zero = Symbol.from_table(torus, np.zeros((2 * (torus.N + 3) + 1, torus.Q), complex), 3,
                             name="zero")
    syms = mixed_margin_symbols(torus) + [zero]  # windows 4 and 5, and one of zeros alone
    modulated = make_symbol("x_modulated_bracket", power=1.0)
    built = []
    for alpha in (1, 2):
        apply_Delta_many(torus, syms, alpha)
        apply_Delta_star(torus, modulated, alpha)
        built += [(torus.Q, alpha, False)] * 2 + [(torus.Q, alpha, True)]
        assert q_builds == built
    for alpha in (1, 2):  # every symbol hits its cache
        apply_Delta_many(torus, syms, alpha)
        apply_Delta_star(torus, modulated, alpha)
    assert q_builds == built


def test_apply_Delta_many_names_the_exhausted_symbol(torus, tensor_builds):
    short = Symbol.from_table(torus, make_symbol("constant").table(torus, 1), 1, name="short")
    with pytest.raises(WindowExhaustedError, match="'short'"):
        apply_Delta_many(torus, [make_symbol("bracket_power", power=1.0), short], 2)
    assert tensor_builds == []


def test_apply_Delta_many_builds_one_tensor_per_window_and_keeps_none(torus, tensor_builds):
    out = apply_Delta_many(torus, mixed_margin_symbols(torus), 2)
    assert len(out) == 4 and len(tensor_builds) == 2  # margins 4 and 5
    assert all(ref() is None for ref in tensor_builds)


def test_estimate_order_builds_one_tensor_per_alpha(tensor_builds):
    m = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    estimate_order(m, make_symbol("x_modulated_bracket", power=1.0), 1.0, 0.0)
    assert len(tensor_builds) == 2
    assert all(ref() is None for ref in tensor_builds)


def truncated_expansions():
    from nonharmonic.calculus import parametrix
    from nonharmonic.quantize import adjoint_symbol, compose_symbols

    return {  # name -> (expansion of a at order k, a lower and the next order)
        "compose": (lambda m, a, k: compose_symbols(m, a, make_symbol("exp_mode", mode=1), k),
                    2, 3),
        "parametrix": (lambda m, a, k: parametrix(m, a, 2.0, 1.0, 0.0, k).symbol, 1, 2),
        "adjoint": (lambda m, a, k: adjoint_symbol(m, a, k), 2, 3),
    }


@pytest.mark.parametrize("name", ["compose", "parametrix", "adjoint"])
def test_next_truncation_order_builds_one_tensor(hmodel, tensor_builds, name):
    expand, lower, higher = truncated_expansions()[name]
    a = make_symbol("x_modulated_bracket", power=2.0)
    expand(hmodel, a, lower)
    built = len(tensor_builds)
    got = expand(hmodel, a, higher)
    assert len(tensor_builds) == built + 1
    assert all(ref() is None for ref in tensor_builds)
    fresh = expand(hmodel, make_symbol("x_modulated_bracket", power=2.0), higher)
    assert np.array_equal(got.table(hmodel, got.margin), fresh.table(hmodel, fresh.margin))


def test_second_estimate_order_builds_no_tensor(tensor_builds):
    m = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    sym = make_symbol("x_modulated_bracket", power=1.0)
    first = estimate_order(m, sym, 1.0, 0.0)
    built = len(tensor_builds)
    again = estimate_order(m, sym, 1.0, 0.0)
    assert len(tensor_builds) == built
    assert again.values == first.values and again.fitted_order == first.fitted_order


DERIVED = {
    "D": lambda m, s: apply_D(m, s, 2),
    "Delta": lambda m, s: apply_Delta(m, s, 2),
    "Delta_many": lambda m, s: apply_Delta_many(m, [s], 2)[0],
    "Delta_star": lambda m, s: apply_Delta_star(m, s, 2),
    "Delta_of_D": lambda m, s: apply_Delta(m, apply_D(m, s, 1), 1),
}


@pytest.mark.parametrize("derive", DERIVED.values(), ids=list(DERIVED))
def test_cached_difference_equals_a_fresh_symbols(hmodel, derive):
    sym = make_symbol("x_modulated_bracket", power=1.0)
    first = derive(hmodel, sym)
    again = derive(hmodel, sym)
    fresh = derive(hmodel, make_symbol("x_modulated_bracket", power=1.0))
    assert again is first
    assert np.array_equal(again.table(hmodel, again.margin), fresh.table(hmodel, fresh.margin))


def test_another_model_misses_the_cache(tensor_builds):
    spec = ModelSpec(kind="torus_derivative", N=8, Q=64)
    m, twin = build_model(spec), build_model(spec)
    sym = make_symbol("x_modulated_bracket", power=1.0)
    cached = apply_Delta(m, sym, 1)
    other_model = apply_Delta(twin, sym, 1)
    assert len(tensor_builds) == 2
    assert apply_D(twin, sym, 1) is not apply_D(m, sym, 1)
    assert other_model is not cached
    assert np.array_equal(other_model.table(twin, 0), cached.table(m, 0))


def test_cached_tables_are_read_only(hmodel):
    from nonharmonic.quantize import adjoint_symbol

    sym = make_symbol("x_modulated_bracket", power=1.0)
    adjoint_symbol(hmodel, sym, 2)
    derived = [v for v in sym._cache.values() if isinstance(v, Symbol)]  # conj(sym)
    derived += [apply_D(hmodel, sym, 1), apply_Delta(hmodel, apply_D(hmodel, sym, 1), 1),
                apply_Delta_star(hmodel, sym, 1)]
    assert len(derived) == 4
    for d in derived:
        tab = d.table(hmodel, 0)
        with pytest.raises(ValueError, match="read-only"):
            tab[0, 0] = 0.0


def test_sampled_tables_and_rows_are_read_only_views(torus):
    from nonharmonic.quantize import galerkin_matrix

    sym = make_symbol("x_modulated_bracket", power=1.0)
    galerkin = galerkin_matrix(torus, sym).matrix.copy()
    delta = apply_Delta(torus, sym, 1).table(torus, 0).copy()
    tab = sym.table(torus, 0)
    with pytest.raises(ValueError, match="read-only"):
        tab[0, 0] = 5.0
    assert sym.table(torus, 0)[0, 0] != 5.0
    assert np.array_equal(galerkin_matrix(torus, sym).matrix, galerkin)
    assert np.array_equal(apply_Delta(torus, sym, 1).table(torus, 0), delta)

    own = make_symbol("exp_mode", mode=1).table(torus, 2).copy()
    backed = Symbol.from_table(torus, own, 2)
    for got in (backed.table(torus, 2), backed.table(torus, 0), backed.values(torus, 3)):
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 5.0
    assert own.flags.writeable  # the caller's array keeps its own flags
    # an evaluator's row is a fresh array, the caller's to change
    assert sym.values(torus, 3).flags.writeable


class LiveBlocks(list):
    """Weak references to the arrays that hold the coupling-tensor blocks
    built, one per build, and the most bytes of them alive at once."""

    peak_bytes = 0

    def clear(self):
        super().clear()
        self.peak_bytes = 0


@pytest.fixture
def live_blocks(monkeypatch):
    """Every coupling-tensor block built while the test runs, as a
    `LiveBlocks`; after each build it checks that at most `lanes` distinct
    arrays hold the blocks alive, and adds up their bytes."""
    import threading
    import weakref

    import nonharmonic.symbols as symbols
    from nonharmonic.threads import lanes

    build, refs, lock = symbols.coupling_tensor, LiveBlocks(), threading.Lock()

    def counted(*args, **kwargs):
        C = build(*args, **kwargs)
        with lock:
            refs.append(weakref.ref(C if C.base is None else C.base))
            alive = {id(a): a for a in (ref() for ref in refs) if a is not None}
            assert len(alive) <= lanes()
            refs.peak_bytes = max(refs.peak_bytes, sum(a.nbytes for a in alive.values()))
        return C

    monkeypatch.setattr(symbols, "coupling_tensor", counted)
    return refs


BLOCKED_OPS = {"Delta": apply_Delta, "Delta~": apply_Delta_star}


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("op", BLOCKED_OPS.values(), ids=list(BLOCKED_OPS))
@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_row_blocks_equal_one_block_bitwise(models, monkeypatch, live_blocks, name, op, lanes):
    import nonharmonic.symbols as symbols

    m = models[name]
    use_lanes(monkeypatch, lanes)
    budget = symbols.BLOCK_BYTES
    row_bytes = m.Q * (2 * (m.N + DEFAULT_MARGIN) + 1) * 16
    for alpha in (1, 2, 3):
        n_out = 2 * (m.N + DEFAULT_MARGIN - alpha) + 1
        monkeypatch.setattr(symbols, "BLOCK_BYTES", budget)
        live_blocks.clear()
        whole = op(m, make_symbol("x_modulated_bracket", power=1.0), alpha)
        assert len(live_blocks) == 1  # an N = 16 window is one block
        for rows in (1, 5):  # one row per block, and blocks with a short last one
            monkeypatch.setattr(symbols, "BLOCK_BYTES", rows * row_bytes)
            live_blocks.clear()
            got = op(m, make_symbol("x_modulated_bracket", power=1.0), alpha)
            # a window of several blocks is cut into blocks of the budget over the lanes
            assert len(live_blocks) == -(-n_out // max(1, rows // lanes))
            assert all(ref() is None for ref in live_blocks)
            assert np.array_equal(got.table(m, got.margin), whole.table(m, whole.margin))


@pytest.mark.parametrize("lanes", [2, 4])  # 4: more lanes than the cores of a small host
def test_row_blocks_serve_every_symbol_of_a_window(torus, monkeypatch, live_blocks, lanes):
    import sys

    import nonharmonic.symbols as symbols

    use_lanes(monkeypatch, lanes)
    whole = apply_Delta_many(torus, mixed_margin_symbols(torus), 2)
    monkeypatch.setattr(symbols, "BLOCK_BYTES", 1)
    live_blocks.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # lanes switch often while they write their rows
    try:
        blocked = apply_Delta_many(torus, mixed_margin_symbols(torus), 2)
    finally:
        sys.setswitchinterval(interval)
    # one block per output row of each window: margins 4 and 5 read out to 2 and 3
    assert len(live_blocks) == (2 * 18 + 1) + (2 * 19 + 1)
    for got, ref in zip(blocked, whole):
        assert np.array_equal(got.table(torus, got.margin), ref.table(torus, ref.margin))


@pytest.mark.parametrize("op", BLOCKED_OPS.values(), ids=list(BLOCKED_OPS))
def test_two_lanes_share_one_block_budget(models, monkeypatch, live_blocks, op):
    import itertools
    import threading

    import nonharmonic.symbols as symbols

    m = models["h_derivative_2"]
    use_lanes(monkeypatch, 2)
    row_bytes = m.Q * (2 * (m.N + DEFAULT_MARGIN) + 1) * 16
    monkeypatch.setattr(symbols, "BLOCK_BYTES", 8 * row_bytes)
    build, builds, met = symbols.coupling_tensor, itertools.count(), threading.Barrier(2)

    def together(*args, **kwargs):
        C = build(*args, **kwargs)
        if next(builds) < 2:  # each lane's first block waits until the other's is built
            met.wait(timeout=30)
        return C

    monkeypatch.setattr(symbols, "coupling_tensor", together)
    op(m, make_symbol("x_modulated_bracket", power=1.0), 1)
    assert 0 < live_blocks.peak_bytes <= symbols.BLOCK_BYTES
    assert len(live_blocks) == -(-(2 * (m.N + DEFAULT_MARGIN) - 1) // 4)  # 4 rows a block


@pytest.mark.parametrize("threads", [{"OPENBLAS_NUM_THREADS": "1", "NONHARMONIC_THREADS": "2"},
                                     {"NONHARMONIC_THREADS": "2"}],
                         ids=["two_lanes", "blas_threads"])
def test_delta_memory_stays_bounded_at_N64(threads):
    # the whole N = 64 window would be a 154 MB tensor; its row blocks are a few MB each
    import os
    import subprocess
    import sys

    from nonharmonic.threads import BLAS_VARIABLES, VARIABLE

    script = "\n".join([
        "import resource",
        "from nonharmonic.model import ModelSpec, build_model",
        "from nonharmonic.symbols import apply_Delta, make_symbol",
        "def peak_mb():",
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0",
        "small = build_model(ModelSpec(kind='torus_derivative', N=8, Q=64))",
        "apply_Delta(small, make_symbol('x_modulated_bracket', power=1.0), 1)",
        "model = build_model(ModelSpec(kind='torus_derivative', N=64, Q=512))",
        "before = peak_mb()",
        "apply_Delta(model, make_symbol('x_modulated_bracket', power=1.0), 1)",
        "print(peak_mb() - before)",
    ])
    env = {k: v for k, v in os.environ.items() if k not in (VARIABLE, *BLAS_VARIABLES)}
    env.update(threads)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) < 50.0


@pytest.mark.parametrize("lanes", [1, 2])
def test_row_blocks_keep_the_window_contraction_path(monkeypatch, lanes):
    # at Q = 8 einsum's optimizer contracts a whole window and a single row
    # along different paths, which need not give the same bits
    import nonharmonic.symbols as symbols

    m = build_model(ModelSpec(kind="h_derivative", N=1, Q=8, h=2.0))
    n_in = 2 * (m.N + DEFAULT_MARGIN) + 1
    q_pow, dual = np.ones((m.Q, m.Q)), np.ones((n_in, m.Q))
    paths = [np.einsum_path("xy,ey,gy,y->xge", q_pow, dual, np.ones((rows, m.Q)), m.w,
                            optimize=True)[0] for rows in (n_in - 2, 1)]
    assert paths[0] != paths[1]
    use_lanes(monkeypatch, lanes)
    budget = symbols.BLOCK_BYTES
    for op in (apply_Delta, apply_Delta_star):
        monkeypatch.setattr(symbols, "BLOCK_BYTES", budget)
        whole = op(m, make_symbol("x_modulated_bracket", power=1.0), 1)
        monkeypatch.setattr(symbols, "BLOCK_BYTES", 1)  # one row per block
        got = op(m, make_symbol("x_modulated_bracket", power=1.0), 1)
        assert np.array_equal(got.table(m, got.margin), whole.table(m, whole.margin))


ZERO_TABLES = {  # identically zero symbols: a constant 0, and D^1 of an x-independent one
    "constant_0": lambda m: make_symbol("constant", value=0.0),
    "D1_bracket": lambda m: apply_D(m, make_symbol("bracket_power", power=1.0), 1),
}


@pytest.mark.parametrize("label,apply", BLOCKED_OPS.items(), ids=list(BLOCKED_OPS))
@pytest.mark.parametrize("zero", ZERO_TABLES.values(), ids=list(ZERO_TABLES))
@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_difference_of_a_zero_table_builds_no_tensor(models, tensor_builds, q_builds, name, zero,
                                                     label, apply):
    m = models[name]
    sym = zero(m)
    assert not sym.table(m, sym.available_margin(m)).any()
    for alpha in (1, 2):
        got = apply(m, sym, alpha)
        margin = sym.available_margin(m) - alpha
        assert (got.margin, got.order, got.name) == (
            margin, sym.order - alpha, f"{label}^{alpha}[{sym.name}]")
        tab = got.table(m, margin)
        assert tab.shape == (2 * (m.N + margin) + 1, m.Q) and not tab.any()
        assert apply(m, sym, alpha) is got
    assert tensor_builds == [] and q_builds == []


@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_derivative_keeps_the_order(models, name):
    # derived orders follow the (1, 0) class: D^(beta) keeps the order
    m = models[name]
    for sym in every_registry_symbol(m):
        for beta in (1, 2):
            got = apply_D(m, sym, beta)
            assert (got.order, got.name) == (sym.order, f"D^{beta}[{sym.name}]")


def test_mixed_window_contracts_only_the_nonzero_symbol(hmodel, tensor_builds):
    syms = [make_symbol("constant", value=0.0), make_symbol("x_modulated_bracket", power=1.0),
            apply_D(hmodel, make_symbol("bracket_power", power=1.0), 1)]
    out = apply_Delta_many(hmodel, syms, 2)
    assert len(tensor_builds) == 1
    lone = apply_Delta(hmodel, make_symbol("x_modulated_bracket", power=1.0), 2)
    assert np.array_equal(out[1].table(hmodel, out[1].margin), lone.table(hmodel, lone.margin))
    for zero in (out[0], out[2]):  # +0 throughout: the tensor route's C·0 sums give some -0
        tab = zero.table(hmodel, 0)
        assert not tab.any() and not np.signbit(tab.view(float)).any()


@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_adjoint_of_a_multiplier_builds_no_tensor(models, tensor_builds, name):
    from nonharmonic.quantize import adjoint_symbol

    m = models[name]
    lam = make_symbol("lambda_multiplier", order=m.order)
    tau = adjoint_symbol(m, lam, 3)
    assert tensor_builds == []
    # the alpha >= 1 terms add zeros: the expansion is conj(lambda), bit for bit
    assert np.array_equal(tau.table(m, tau.margin), np.conj(lam.table(m, tau.margin)))
