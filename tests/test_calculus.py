import numpy as np
import pytest

from nonharmonic.calculus import (Contour, EllipticityCertificate, certify_parameter_ellipticity,
                                  dunford_riesz, fractional_power_symbol, make_scalar_function,
                                  negative_real_ray, parametrix, resolvent_symbol)
from nonharmonic.errors import (BranchCutError, ConfigurationError, EllipticityError,
                                SpectrumProximityError)
from nonharmonic.model import ModelSpec, build_model
from nonharmonic.quantize import composition_oracle, galerkin_matrix
from nonharmonic.symbols import Symbol, make_symbol


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

def test_keyhole_is_closed_and_winds_once():
    c = Contour.keyhole_negative_axis(R=100.0)
    # closed curve: integral of any entire function vanishes
    assert abs(np.sum(c.weights)) <= 1e-9
    assert abs(np.sum(c.weights * c.nodes)) <= 1e-7
    # winding around a point between the keyhole and the outer arc
    w = np.sum(c.weights / (c.nodes - 5.0)) / (2j * np.pi)
    assert abs(w - 1.0) <= 1e-10


def test_circle_and_polyline_cauchy_integral():
    for c in (Contour.circle(center=2.0 + 1.0j, radius=1.5, n=64),
              Contour.polyline([0.0, 4.0, 4.0 + 4.0j, 4.0j], n_per_edge=60)):
        val = np.sum(c.weights / (c.nodes - (2.0 + 1.0j))) / (2j * np.pi)
        assert abs(val - 1.0) <= 1e-8


def test_contour_spectrum_collision_guard():
    c = Contour.circle(center=0.0, radius=1.0, n=32)
    with pytest.raises(SpectrumProximityError):
        c.check_clear_of(np.array([c.nodes[3]]))


def test_winding_number_is_shared_orientation():
    c = Contour.circle(center=0.0, radius=2.0, n=64)
    assert c.check_clear_of(np.array([0.5, -1.0 + 1.0j])) == 1
    with pytest.raises(SpectrumProximityError):  # one value outside the circle
        c.check_clear_of(np.array([0.5, 3.0]))


def test_bad_contour_parameters():
    with pytest.raises(ConfigurationError):
        Contour.keyhole_negative_axis(R=0.05, eps=0.1)
    with pytest.raises(ConfigurationError):
        Contour.polyline([0.0, 1.0])


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------

def test_parametrix_multiplier_exact(torus):
    a = make_symbol("bracket_power", power=2.0)
    tab = a.table(torus, 0)
    scale = float(np.max(np.abs(tab)) * np.max(np.abs(1.0 / tab)))
    for n_terms in (0, 1, 2):
        res = parametrix(torus, a, 2.0, 1.0, 0.0, n_terms)
        # higher corrections vanish identically for multipliers
        for term in res.terms[1:]:
            assert np.max(np.abs(term.table(torus, 0))) <= 1e-12
        prod = composition_oracle(torus, a, res.symbol)
        rem = np.max(np.abs(prod.table(torus, 0) - 1.0))
        assert rem / scale <= 1e-12


def test_parametrix_variable_coefficient_improves(torus):
    a = make_symbol("x_modulated_bracket", power=2.0)
    band = (np.abs(torus.indices) >= (3 * torus.N) // 8) & (np.abs(torus.indices) <= torus.N // 2)
    sups = []
    for n_terms in (0, 1, 2):
        res = parametrix(torus, a, 2.0, 1.0, 0.0, n_terms)
        prod = composition_oracle(torus, a, res.symbol)
        sups.append(float(np.max(np.max(np.abs(prod.table(torus, 0) - 1.0), axis=1)[band])))
    assert sups[2] < sups[1] < sups[0]
    assert sups[0] / sups[2] >= 2.0


def test_parametrix_order_gain_bounded_in_truncation():
    # numerical rendering of the smoothing property: the remainder weighted
    # by <xi>^(n_terms+1) stays bounded as N grows
    worst = {}
    for N in (16, 32):
        m = build_model(ModelSpec(kind="torus_derivative", N=N, Q=8 * N))
        a = make_symbol("x_modulated_bracket", power=2.0)
        res = parametrix(m, a, 2.0, 1.0, 0.0, 2)
        prod = composition_oracle(m, a, res.symbol)
        band = (np.abs(m.indices) >= (3 * m.N) // 8) & (np.abs(m.indices) <= m.N // 2)
        rem = np.max(np.abs(prod.table(m, 0) - 1.0), axis=1)
        w = m.bracket_val(m.indices) ** 3.0
        worst[N] = float(np.max((rem * w)[band]))
    assert worst[32] <= 2.0 * worst[16]


def test_parametrix_zero_symbol_guard(torus):
    # cos(2 pi x) vanishes on the grid (Q divisible by 4), tripping the guard
    bad = Symbol(fn=lambda x, xi, lam, br: np.cos(2 * np.pi * x) * br**2 + 0.0j, order=2.0)
    with pytest.raises(EllipticityError):
        parametrix(torus, bad, 2.0, 1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# parameter ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_bracket_squared_on_negative_ray(torus):
    a = make_symbol("bracket_power", power=2.0)
    cert = certify_parameter_ellipticity(torus, a, 2.0, negative_real_ray(), bound=2.0)
    assert isinstance(cert, EllipticityCertificate)
    assert cert.passed
    # lambda = 0 contributes exactly 1, so the sup sits in [1, 2]
    assert 1.0 <= cert.sup_value <= 2.0
    assert cert.derivative_check is not None and cert.derivative_check <= 1e-6


def test_ellipticity_jitters_off_symbol_values(torus):
    a = make_symbol("bracket_power", power=2.0)
    lam_on_value = np.array([complex(torus.bracket_val(0) ** 2)])  # hits a(0) exactly
    cert = certify_parameter_ellipticity(torus, a, 2.0, lam_on_value, bound=np.inf)
    assert np.isfinite(cert.sup_value)


def test_ellipticity_spectrum_on_real_line_vs_imaginary_ray(torus):
    lam_mult = make_symbol("lambda_multiplier", order=1.0)
    lambdas = -1j * np.logspace(-2, 3, 40)
    cert = certify_parameter_ellipticity(torus, lam_mult, 1.0, lambdas, bound=np.inf,
                                         check_derivative=False)
    assert np.isfinite(cert.sup_value)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_multiplier_diagonal_oracle(torus):
    a = make_symbol("bracket_power", power=2.0)
    z = -1.0 + 0.5j
    rs = resolvent_symbol(torus, a, z)
    br = torus.bracket_val(torus.indices)
    got = rs.table(torus, 0)[:, 0]
    np.testing.assert_allclose(got, 1.0 / (br**2 - z), atol=1e-12)


def test_resolvent_at_eigenvalue_rejected(torus):
    a = make_symbol("bracket_power", power=2.0)
    z = complex(torus.bracket_val(3) ** 2)
    with pytest.raises(SpectrumProximityError):
        resolvent_symbol(torus, a, z)


def test_resolvent_rejects_system_of_roundoff():
    # M - zI is roundoff noise: singular values 1e-12 down to 7e-15, yet its
    # condition number is only ~200
    m = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    with pytest.raises(SpectrumProximityError):
        resolvent_symbol(m, make_symbol("constant", value=1000.0), 1000.0)


def test_resolvent_identity_matrix_level(torus):
    a = make_symbol("x_modulated_bracket", power=2.0)
    M = galerkin_matrix(torus, a).matrix
    eye = np.eye(M.shape[0])
    z, w = -1.0 + 0.3j, -2.5 - 0.4j
    Rz = np.linalg.inv(M - z * eye)
    Rw = np.linalg.inv(M - w * eye)
    lhs = Rz - Rw
    rhs = (z - w) * (Rz @ Rw)
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) <= 1e-10


def test_resolvent_agrees_with_parametrix_of_shifted_symbol():
    # two independent constructions agree to O(<xi>^(-2-(rho-delta))): the
    # gap weighted by <xi>^3 stays bounded (and shrinks) as N grows
    sups = {}
    for N in (16, 32):
        m = build_model(ModelSpec(kind="torus_derivative", N=N, Q=8 * N))
        a = make_symbol("x_modulated_bracket", power=2.0)
        z = -1.0 + 0.0j
        rs = resolvent_symbol(m, a, z).table(m, 0)
        shifted = Symbol(fn=lambda x, xi, lam, br: (1 + 0.5 * np.sin(2 * np.pi * x)) * br**2 - z,
                         order=2.0, name="a-z")
        par = parametrix(m, shifted, 2.0, 1.0, 0.0, 1).symbol.table(m, 0)
        band = (np.abs(m.indices) >= (3 * N) // 8) & (np.abs(m.indices) <= N // 2)
        w = m.bracket_val(m.indices) ** 3.0
        sups[N] = float(np.max((np.max(np.abs(rs - par), axis=1) * w)[band]))
    assert sups[16] <= 25.0
    assert sups[32] <= sups[16]


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def test_dunford_riesz_multiplier_oracle_and_monotone(torus):
    a = make_symbol("bracket_power", power=2.0)
    br = torus.bracket_val(torus.indices)
    for fname, s in [("inverse", -1.0), ("inverse_sqrt", -0.5), ("power", -0.25)]:
        F, s_decl = make_scalar_function(fname, exponent=-0.25)
        oracle = br ** (2.0 * s_decl)
        errs = []
        for nps in (25, 50, 100):
            contour = Contour.default_keyhole(torus, a, nodes_per_segment=nps)
            res = dunford_riesz(torus, a, F, contour, decay_exponent=s_decl)
            got = res.symbol.table(torus, 0)[:, 0]
            errs.append(float(np.max(np.abs(got - oracle) / np.abs(oracle))))
        assert errs[-1] <= 1e-6, fname
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-13, fname


def test_dunford_riesz_leading_term_matches_for_multiplier(torus):
    a = make_symbol("bracket_power", power=2.0)
    F, s = make_scalar_function("inverse")
    res = dunford_riesz(torus, a, F, Contour.default_keyhole(torus, a), decay_exponent=s)
    diff = np.max(np.abs(res.symbol.table(torus, 0) - res.leading_term.table(torus, 0)))
    assert diff <= 1e-10


def test_dunford_riesz_leading_term_matches_einsum_form(hmodel):
    # the leading term is accumulated node by node; the (nodes, 2N+1, Q)
    # einsum it replaces is the oracle
    a = make_symbol("x_modulated_bracket", power=2.0)
    contour = Contour.default_keyhole(hmodel, a, nodes_per_segment=25)
    tab = a.table(hmodel, 0)
    for name in ("inverse", "inverse_sqrt"):
        F, s = make_scalar_function(name)
        res = dunford_riesz(hmodel, a, F, contour, decay_exponent=s)
        Fz = np.asarray(F(contour.nodes), dtype=complex)
        oracle = -res.orientation / (2j * np.pi) * np.einsum(
            "k,kij->ij", contour.weights * Fz,
            1.0 / (tab[None, :, :] - contour.nodes[:, None, None]), optimize=True)
        got = res.leading_term.table(hmodel, 0)
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_dunford_riesz_zero_function(torus):
    a = make_symbol("bracket_power", power=2.0)
    F, s = make_scalar_function("zero")
    res = dunford_riesz(torus, a, F, Contour.default_keyhole(torus, a), decay_exponent=s)
    assert np.max(np.abs(res.symbol.table(torus, 0))) <= 1e-12


def test_dunford_riesz_iterated_square_root(torus):
    # z^-1 realized as the square of z^-1/2 through the finite sections
    a = make_symbol("bracket_power", power=2.0)
    contour = Contour.default_keyhole(torus, a)
    Fh, sh = make_scalar_function("inverse_sqrt")
    Fi, si = make_scalar_function("inverse")
    half = dunford_riesz(torus, a, Fh, contour, decay_exponent=sh).symbol
    full = dunford_riesz(torus, a, Fi, contour, decay_exponent=si).symbol
    Mh = galerkin_matrix(torus, half).matrix
    from nonharmonic.quantize import symbol_of_matrix
    squared = symbol_of_matrix(torus, Mh @ Mh).table(torus, 0)
    assert np.max(np.abs(squared - full.table(torus, 0))) <= 1e-8


def test_dunford_riesz_rejects_spectrum_outside_contour(torus):
    # half the spectrum lies on the negative axis, outside the keyhole
    a = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, br**2 if xi >= 0 else -br**2,
                                                      dtype=complex), order=2.0)
    F, s = make_scalar_function("inverse")
    with pytest.raises(SpectrumProximityError):
        dunford_riesz(torus, a, F, Contour.default_keyhole(torus, a), decay_exponent=s)


def test_dunford_riesz_clockwise_polyline(torus):
    # the sign comes from the winding number: a clockwise curve gets -1 and
    # the same symbol as the counterclockwise one
    a = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, 10.0 + br, dtype=complex), order=1.0)
    F, s = make_scalar_function("inverse")
    vertices = [5 - 60j, 150 - 60j, 150 + 60j, 5 + 60j]
    ccw = dunford_riesz(torus, a, F, Contour.polyline(vertices, n_per_edge=100), decay_exponent=s)
    cw = dunford_riesz(torus, a, F, Contour.polyline(vertices[::-1], n_per_edge=100),
                       decay_exponent=s)
    assert (ccw.orientation, cw.orientation) == (1, -1)
    got = cw.symbol.table(torus, 0)
    assert np.max(np.abs(got - ccw.symbol.table(torus, 0))) <= 1e-14 * np.max(np.abs(got))
    br = torus.bracket_val(torus.indices)
    assert np.max(np.abs(got[:, 0] * (10.0 + br) - 1.0)) <= 1e-6


def test_fractional_powers_pointwise(torus):
    a = make_symbol("bracket_power", power=2.0)
    br = torus.bracket_val(torus.indices)
    half = fractional_power_symbol(torus, a, 0.5)
    np.testing.assert_allclose(half.table(torus, 0)[:, 0], br, rtol=1e-12)
    zero = fractional_power_symbol(torus, a, 0.0)
    np.testing.assert_allclose(zero.table(torus, 0), 1.0, atol=1e-14)
    assert half.order == pytest.approx(1.0)


def test_fractional_power_semigroup(torus):
    a = make_symbol("x_modulated_bracket", power=2.0)
    s1, s2 = 0.3 - 0.2j, -0.8 + 0.5j
    lhs = fractional_power_symbol(torus, a, s1 + s2).table(torus, 0)
    rhs = (fractional_power_symbol(torus, a, s1).table(torus, 0)
           * fractional_power_symbol(torus, a, s2).table(torus, 0))
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-12


def test_fractional_power_branch_guard(torus):
    neg = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, -(br**2), dtype=complex), order=2.0)
    with pytest.raises(BranchCutError):
        fractional_power_symbol(torus, neg, 0.5)


def test_fractional_power_cross_check_contour(torus):
    a = make_symbol("bracket_power", power=2.0)
    F, s = make_scalar_function("inverse_sqrt")
    res = dunford_riesz(torus, a, F, Contour.default_keyhole(torus, a), decay_exponent=s)
    frac = fractional_power_symbol(torus, a, -0.5)
    rel = np.abs(res.symbol.table(torus, 0) - frac.table(torus, 0)) / np.abs(frac.table(torus, 0))
    assert np.max(rel) <= 1e-6


def test_scalar_function_registry_guards():
    with pytest.raises(ConfigurationError):
        make_scalar_function("power", exponent=0.5)
    with pytest.raises(ConfigurationError):
        make_scalar_function("gaussian")
