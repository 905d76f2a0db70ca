import numpy as np
import pytest

from nonharmonic.errors import WindowExhaustedError, WZViolationError
from nonharmonic.model import ModelSpec, build_model
from nonharmonic.quantize import (adjoint_galerkin, adjoint_oracle, adjoint_symbol,
                                  band_limited, compose_symbols, composition_oracle,
                                  extract_symbol, galerkin_matrix, inner_window, kernel,
                                  kernel_apply, op_apply, symbol_of_matrix)
from nonharmonic.symbols import Symbol, make_symbol
from nonharmonic.transform import fourier, fourier_star

FIVE_SYMBOLS = [
    ("bracket_power", {"power": 1.0}),
    ("bracket_power", {"power": 2.0}),
    ("lambda_multiplier", {}),
    ("x_modulated_bracket", {"power": 1.0}),
    ("exp_mode", {"mode": 1}),
]


def registry_symbols(model):
    out = []
    for name, kw in FIVE_SYMBOLS:
        kw = dict(kw)
        if name == "lambda_multiplier":
            kw["order"] = model.order
        out.append(make_symbol(name, **kw))
    return out


def test_op_apply_identity_and_eigenrelation(torus):
    rng = np.random.default_rng(0)
    f = band_limited(torus, rng)
    one = make_symbol("constant", value=1.0)
    np.testing.assert_allclose(op_apply(torus, one, f), f, atol=1e-12)
    lam = make_symbol("lambda_multiplier", order=1.0)
    got = op_apply(torus, lam, torus.u_row(1))
    np.testing.assert_allclose(got, 2 * np.pi * torus.u_row(1), atol=1e-11)


def test_multiplication_operator_shifts_modes(torus, hmodel):
    shift = make_symbol("exp_mode", mode=1)
    for m in (torus, hmodel):
        got = op_apply(m, shift, m.u_row(1))
        np.testing.assert_allclose(got, m.u_row(2), atol=1e-12)


def test_extraction_roundtrip_five_symbols(models):
    for name, m in models.items():
        for sym in registry_symbols(m):
            ext = extract_symbol(m, lambda g, s=sym: op_apply(m, s, g))
            scale = max(1.0, float(np.max(np.abs(sym.table(m, 0)))))
            err = np.max(np.abs(ext.table(m, 0) - sym.table(m, 0))) / scale
            assert err <= 1e-11, (name, sym.name)


def test_extraction_of_identity_and_generator(torus):
    ident = extract_symbol(torus, lambda g: g.copy())
    np.testing.assert_allclose(ident.table(torus, 0), 1.0, atol=1e-12)

    def apply_L(g):
        c = fourier(torus, g)
        return (c.values * torus.eigenvalues) @ torus.u

    sigma = extract_symbol(torus, apply_L)
    expected = np.broadcast_to(torus.eigenvalues[:, None], (33, torus.Q))
    assert np.max(np.abs(sigma.table(torus, 0) - expected)) <= 1e-10


def test_extraction_rejects_wz_violation():
    tiny = build_model(ModelSpec(kind="h_derivative", N=1, Q=8, h=1e-16))
    with pytest.raises(WZViolationError):
        extract_symbol(tiny, lambda g: g.copy())


def test_kernel_reproducing_property(models):
    rng = np.random.default_rng(1)
    one = make_symbol("constant", value=1.0)
    for name, m in models.items():
        K = kernel(m, one)
        f = band_limited(m, rng)
        np.testing.assert_allclose(kernel_apply(m, K, f), f, atol=1e-8, err_msg=name)


def test_kernel_rank_one_and_h_factorization(torus, hmodel):
    ind = make_symbol("mode_indicator", mode=1)
    K = kernel(torus, ind).values
    expected = np.outer(torus.u_row(1), torus.v_row(1).conj())
    np.testing.assert_allclose(K, expected, atol=1e-13)

    one = make_symbol("constant", value=1.0)
    Kh = kernel(hmodel, one).values
    Kt = kernel(torus, one).values
    x, y = hmodel.x[:, None], hmodel.x[None, :]
    np.testing.assert_allclose(Kh, 2.0 ** (x - y) * Kt, atol=1e-9)


def test_galerkin_structures(torus):
    br2 = make_symbol("bracket_power", power=2.0)
    M = galerkin_matrix(torus, br2).matrix
    np.testing.assert_allclose(M, np.diag(torus.bracket_val(torus.indices) ** 2), atol=1e-10)
    shift = galerkin_matrix(torus, make_symbol("exp_mode", mode=1)).matrix
    np.testing.assert_allclose(np.diag(shift, k=-1), 1.0, atol=1e-13)
    assert np.max(np.abs(shift - np.diag(np.diag(shift, k=-1), k=-1))) <= 1e-13
    ident = galerkin_matrix(torus, make_symbol("constant", value=1.0)).matrix
    np.testing.assert_allclose(ident, np.eye(33), atol=1e-13)


def test_galerkin_and_kernel_routes_match_direct(models):
    rng = np.random.default_rng(9)
    for name, m in models.items():
        f = band_limited(m, rng)
        for sym in registry_symbols(m):
            direct = op_apply(m, sym, f)
            cd = fourier(m, direct).values
            cm = galerkin_matrix(m, sym).apply(fourier(m, f)).values
            ck = fourier(m, kernel_apply(m, kernel(m, sym), f)).values
            scale = max(1.0, float(np.max(np.abs(cd))))
            assert np.max(np.abs(cm - cd)) / scale <= 1e-10, (name, sym.name)
            assert np.max(np.abs(ck - cd)) / scale <= 1e-8, (name, sym.name)


def test_compose_multipliers_exact(torus):
    a = make_symbol("bracket_power", power=1.0)
    b = make_symbol("bracket_power", power=2.0)
    for terms in (1, 2, 3):
        got = compose_symbols(torus, a, b, terms).table(torus, 0)
        expected = a.table(torus, 0) * b.table(torus, 0)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(got - expected)) / scale <= 1e-12


def test_compose_first_correction_closed_form(torus):
    a = make_symbol("bracket_power", power=1.0)
    b = make_symbol("exp_mode", mode=1)
    s1 = compose_symbols(torus, a, b, 1).table(torus, 0)
    s2 = compose_symbols(torus, a, b, 2).table(torus, 0)
    br = torus.bracket_val(torus.indices)
    br_next = torus.bracket_val(torus.indices + 1)
    correction = (br_next - br)[:, None] * np.exp(2j * np.pi * torus.x)[None, :]
    np.testing.assert_allclose(s2 - s1, correction, atol=1e-10)


def test_compose_matches_shift_closed_form_inside(torus):
    # exact symbol of Op(<xi>) Op(e^{2 pi i x}) is e^{2 pi i x} <xi + 1>
    a = make_symbol("bracket_power", power=1.0)
    b = make_symbol("exp_mode", mode=1)
    s2 = compose_symbols(torus, a, b, 2).table(torus, 0)
    br_next = torus.bracket_val(torus.indices + 1)
    exact = br_next[:, None] * np.exp(2j * np.pi * torus.x)[None, :]
    np.testing.assert_allclose(s2, exact, atol=1e-10)
    oracle = composition_oracle(torus, a, b).table(torus, 0)
    mask = inner_window(torus, 0.5)
    assert np.max(np.abs((oracle - exact)[mask])) <= 1e-10


def test_compose_window_exhaustion(torus):
    tab = make_symbol("bracket_power", power=1.0).table(torus, 1)
    narrow = Symbol.from_table(torus, tab, 1, order=1.0)
    with pytest.raises(WindowExhaustedError):
        compose_symbols(torus, narrow, make_symbol("exp_mode", mode=1), 3)


def test_adjoint_real_multiplier_self_adjoint(torus):
    a = make_symbol("bracket_power", power=2.0)
    tau = adjoint_symbol(torus, a, 2).table(torus, 0)
    scale = float(np.max(np.abs(a.table(torus, 0))))
    assert np.max(np.abs(tau - a.table(torus, 0))) / scale <= 1e-12


def test_adjoint_oracle_conjugates_eigenvalues(hmodel):
    lam = make_symbol("lambda_multiplier", order=1.0)
    tau = adjoint_oracle(hmodel, lam).table(hmodel, 0)
    expected = np.conj(hmodel.eigenvalues)[:, None] * np.ones(hmodel.Q)[None, :]
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(tau - expected)) / scale <= 1e-11


def test_adjoint_shift_leading_term(torus):
    a = make_symbol("exp_mode", mode=1)
    tau1 = adjoint_symbol(torus, a, 1).table(torus, 0)
    expected = np.exp(-2j * np.pi * torus.x)[None, :] * np.ones((33, 1))
    np.testing.assert_allclose(tau1, expected, atol=1e-12)
    exact = adjoint_oracle(torus, a).table(torus, 0)
    mask = inner_window(torus, 0.5)
    assert np.max(np.abs((exact - tau1)[mask])) <= 1e-11


def test_adjoint_duality_relation(hmodel):
    # (A f, g) = (f, A* g) under the grid quadrature for f in span{u} and
    # g in span{v}, with A* the conjugate-transpose oracle in the v-basis
    rng = np.random.default_rng(23)
    a = make_symbol("x_modulated_bracket", power=1.0)
    M_star = adjoint_galerkin(hmodel, galerkin_matrix(hmodel, a))
    f = band_limited(hmodel, rng)
    d = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    g = d @ hmodel.v
    Af = op_apply(hmodel, a, f)
    Astar_g = (M_star @ d) @ hmodel.v
    lhs = complex(hmodel.quad(Af * np.conj(g)))
    rhs = complex(hmodel.quad(f * np.conj(Astar_g)))
    assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-11
    # fourier_star reads off v-basis coefficients of span{v} functions exactly
    np.testing.assert_allclose(fourier_star(hmodel, g).values, d, atol=1e-12)


def test_symbol_of_matrix_inverts_galerkin(torus):
    # the finite section corrupts the outermost modes (the x-factor couples
    # mode N to the truncated mode N+1), so compare on the inner window
    sym = make_symbol("x_modulated_bracket", power=1.0)
    M = galerkin_matrix(torus, sym).matrix
    back = symbol_of_matrix(torus, M).table(torus, 0)
    mask = inner_window(torus, 0.5)
    scale = float(np.max(np.abs(sym.table(torus, 0))))
    assert np.max(np.abs((back - sym.table(torus, 0))[mask])) / scale <= 1e-11


def test_galerkin_matrix_cached_read_only(torus, hmodel):
    sym = make_symbol("x_modulated_bracket", power=1.0)
    M = galerkin_matrix(torus, sym).matrix
    assert galerkin_matrix(torus, sym).matrix is M
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert galerkin_matrix(hmodel, sym).matrix is not M  # cached per model
    fresh = galerkin_matrix(torus, make_symbol("x_modulated_bracket", power=1.0)).matrix
    assert fresh is not M
    assert np.array_equal(fresh, M)


def test_galerkin_spectrum_cached_read_only(torus):
    sym = make_symbol("x_modulated_bracket", power=1.0)
    G = galerkin_matrix(torus, sym)
    assert galerkin_matrix(torus, sym) is G
    spec = G.eigenvalues
    assert G.eigenvalues is spec and not spec.flags.writeable
    np.testing.assert_array_equal(spec, np.linalg.eigvals(G.matrix))
