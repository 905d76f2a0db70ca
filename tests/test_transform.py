import numpy as np
import pytest

from conftest import geometric_star_coefficient
from nonharmonic.errors import NumericalConsistencyError, ShapeError, WindowExhaustedError
from nonharmonic.transform import (CoeffVector, band_limited, coefficient_gram, fourier, inverse,
                                   l2L_norm, l2_grid_norm, l_convolution, sobolev_norm)
from nonharmonic import transform


def indicator(model, xi):
    c = np.zeros(len(model.indices), dtype=complex)
    c[xi + model.N] = 1.0
    return c


def test_fourier_of_eigenfunction_is_indicator(models):
    for name, m in models.items():
        c = fourier(m, m.u_row(1))
        np.testing.assert_allclose(c.values, indicator(m, 1), atol=1e-13, err_msg=name)


def test_fourier_of_constant_is_mode_zero(torus):
    c = fourier(torus, np.ones(torus.Q, dtype=complex))
    np.testing.assert_allclose(c.values, indicator(torus, 0), atol=1e-14)


def u_pairing(model, f):
    """quad(f * conj(u_xi)) over the window, the pairing the norms read."""
    return model.conj_u @ (model.w * f)


def test_u_pairing_of_v_is_indicator(models):
    for name, m in models.items():
        np.testing.assert_allclose(u_pairing(m, m.v[1 + m.N]), indicator(m, 1), atol=1e-13,
                                   err_msg=name)


def test_u_pairing_equals_fourier_on_torus(torus):
    rng = np.random.default_rng(0)
    f = band_limited(torus, rng)
    np.testing.assert_allclose(fourier(torus, f).values, u_pairing(torus, f), atol=1e-12)


def test_u_pairing_h_model_geometric_closed_form(hmodel):
    got = u_pairing(hmodel, hmodel.u_row(0))
    for xi in range(-3, 4):
        expected = geometric_star_coefficient(2.0, hmodel.Q, xi)
        assert got[xi + hmodel.N] == pytest.approx(expected, abs=1e-13)
    # several coefficients are genuinely nonzero, unlike the biorthogonal pairing
    assert abs(got[hmodel.N + 1]) > 1e-3


def test_roundtrip_band_limited(models):
    rng = np.random.default_rng(42)
    for name, m in models.items():
        c = CoeffVector(rng.standard_normal(2 * m.N + 1)
                        + 1j * rng.standard_normal(2 * m.N + 1))
        f = inverse(m, c)
        np.testing.assert_allclose(fourier(m, f).values, c.values, atol=1e-12, err_msg=name)
        f2 = inverse(m, fourier(m, f))
        np.testing.assert_allclose(f2, f, atol=1e-12, err_msg=name)


def test_inverse_of_indicator_and_zero(torus):
    f = inverse(torus, CoeffVector(indicator(torus, 1)))
    np.testing.assert_allclose(f, torus.u_row(1), atol=1e-14)
    z = inverse(torus, CoeffVector(np.zeros(33)))
    assert np.all(z == 0)


def test_shape_errors(torus):
    with pytest.raises(ShapeError):
        fourier(torus, np.zeros(7))
    with pytest.raises(ShapeError):
        inverse(torus, CoeffVector(np.zeros(5)))


def test_l2L_norm_orthonormal_case(torus):
    assert l2L_norm(torus, CoeffVector(indicator(torus, 1))) == pytest.approx(1.0, abs=1e-13)


def test_l2L_norm_h_model_single_mode(hmodel):
    # equals the quadrature L2 norm of u_0, whose closed form is the
    # geometric sum; the continuum limit is (3 / (2 ln 2))^(1/2)
    n = l2L_norm(hmodel, CoeffVector(indicator(hmodel, 0)))
    geom = np.sqrt(geometric_star_coefficient(2.0, hmodel.Q, 0).real)
    assert n == pytest.approx(geom, abs=1e-12)
    assert n == pytest.approx(np.sqrt(3 / (2 * np.log(2))), abs=2e-2)


def test_parseval_identity(models):
    rng = np.random.default_rng(3)
    for name, m in models.items():
        for _ in range(20):
            f = band_limited(m, rng)
            c = fourier(m, f)
            assert l2L_norm(m, c) == pytest.approx(l2_grid_norm(m, f), abs=1e-10), name


def test_sobolev_norm_collapses_at_zero(models):
    rng = np.random.default_rng(5)
    for name, m in models.items():
        c = fourier(m, band_limited(m, rng))
        assert sobolev_norm(m, c, 0.0) == pytest.approx(l2L_norm(m, c), rel=1e-12), name


def test_sobolev_norm_single_modes(torus):
    c1 = CoeffVector(indicator(torus, 1))
    assert sobolev_norm(torus, c1, 1.0) == pytest.approx(float(torus.bracket_val(1)), rel=1e-13)
    c0 = CoeffVector(indicator(torus, 0))
    for s in (-2.0, 0.5, 3.0):
        assert sobolev_norm(torus, c0, s) == pytest.approx(1.0, rel=1e-13)


def test_sobolev_positivity_assertion_trips_off_selfadjoint(hmodel):
    # For h != 1 and s != 0 the weighted biorthogonal pairing is genuinely
    # non-real; the norm must surface this instead of clamping.
    c = CoeffVector(indicator(hmodel, 0) + indicator(hmodel, 1))
    with pytest.raises(NumericalConsistencyError):
        sobolev_norm(hmodel, c, 1.0)


def test_convolution_disjoint_and_matching_modes(torus):
    zero = l_convolution(torus, torus.u_row(1), torus.u_row(2))
    assert np.max(np.abs(zero)) <= 1e-13
    same = l_convolution(torus, torus.u_row(1), torus.u_row(1))
    np.testing.assert_allclose(same, torus.u_row(1), atol=1e-13)


def test_convolution_commutative_and_hat_identity(models):
    rng = np.random.default_rng(11)
    for name, m in models.items():
        f, g = band_limited(m, rng), band_limited(m, rng)
        fg = l_convolution(m, f, g)
        gf = l_convolution(m, g, f)
        assert np.max(np.abs(fg - gf)) <= 1e-12, name
        hat = fourier(m, fg).values
        expected = fourier(m, f).values * fourier(m, g).values
        np.testing.assert_allclose(hat, expected, atol=1e-12, err_msg=name)


def test_convolution_associative(torus):
    rng = np.random.default_rng(13)
    f, g, h = (band_limited(torus, rng) for _ in range(3))
    lhs = l_convolution(torus, l_convolution(torus, f, g), h)
    rhs = l_convolution(torus, f, l_convolution(torus, g, h))
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_frame_bounds_two_sided(hmodel, torus):
    # discrete rendering of the Riesz-basis bounds: constants from the Gram
    # spectrum, then no random trial may escape them
    rng = np.random.default_rng(17)
    for m in (torus, hmodel):
        G = coefficient_gram(m)
        eigs = np.linalg.eigvalsh(G)
        lo, hi = 1.0 / eigs.max(), 1.0 / eigs.min()
        for _ in range(25):
            f = band_limited(m, rng)
            ratio = np.sum(np.abs(fourier(m, f).values) ** 2) / l2_grid_norm(m, f) ** 2
            assert lo - 1e-10 <= ratio <= hi + 1e-10
        if m is torus:
            assert lo == pytest.approx(1.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model_name", ["torus_derivative", "h_derivative_2", "torus_laplacian"])
def test_transforms_read_cached_conjugate_bases(models, model_name):
    model = models[model_name]
    f = np.random.default_rng(9).standard_normal(model.Q) + 0.5j
    c = fourier(model, f)
    assert np.array_equal(c.values, model.v.conj() @ (model.w * f))
    assert np.array_equal(transform._u_pairing(model, c),
                          model.u.conj() @ (model.w * inverse(model, c)))
    assert np.array_equal(coefficient_gram(model), (model.u.conj() * model.w) @ model.u.T)
    assert coefficient_gram(model) is model.gram
    for name in ("conj_u", "conj_v", "gram"):
        cached = getattr(model, name)
        assert getattr(model, name) is cached and not cached.flags.writeable


def test_coeff_vector_index_checked_at_both_edges(models):
    for name, m in models.items():
        c = fourier(m, m.u_row(m.N))
        assert c[m.N] == pytest.approx(1.0, abs=1e-13) and abs(c[-m.N]) <= 1e-13, name
        for xi in (m.N + 1, -m.N - 1, -2 * m.N - 1):
            with pytest.raises(WindowExhaustedError):
                c[xi]
