import math

import numpy as np
import pytest

from conftest import closed_form_rows
from nonharmonic.errors import ConfigurationError, WindowExhaustedError
from nonharmonic.model import (ModelSpec, bracket, build_model, check_biorthogonality,
                               check_wz, s0_tail)


def test_h_derivative_eigenvalue_closed_form():
    m = build_model(ModelSpec(kind="h_derivative", N=1, Q=32, h=2.0))
    # solving e^{i lambda} = h gives lambda_0 = -i ln 2
    assert m.eigenvalues[1] == pytest.approx(-0.6931471805599453j, abs=1e-15)
    assert m.eigenvalues[2] == pytest.approx(2 * np.pi - 0.6931471805599453j, abs=1e-14)


def test_torus_derivative_eigendata():
    m = build_model(ModelSpec(kind="torus_derivative", N=1, Q=32))
    assert m.eigenvalues[2] == pytest.approx(2 * np.pi, abs=1e-14)
    np.testing.assert_allclose(m.u[2], np.exp(2j * np.pi * m.x), atol=1e-15)


def test_laplacian_constant_mode():
    m = build_model(ModelSpec(kind="torus_laplacian", N=0, Q=8))
    assert m.eigenvalues[0] == 0
    np.testing.assert_array_equal(m.u[0], np.ones(8, dtype=complex))


@pytest.mark.parametrize("bad", [
    ModelSpec(kind="beam", N=4, Q=64),
    ModelSpec(kind="h_derivative", N=4, Q=64),          # missing h
    ModelSpec(kind="h_derivative", N=4, Q=64, h=-1.0),
    ModelSpec(kind="torus_derivative", N=4, Q=64, h=2.0),  # stray h
    ModelSpec(kind="torus_derivative", N=4, Q=8),       # Q too small
    ModelSpec(kind="torus_derivative", N=-1, Q=64),
    ModelSpec(kind="torus_derivative", N=4, Q=64, m=-2.0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        build_model(bad)


def test_biorthogonality_all_models(models):
    for name, m in models.items():
        dev = check_biorthogonality(m)
        assert dev <= 1e-13, name


def test_biorthogonality_aliasing_reported_not_masked(monkeypatch):
    spec = ModelSpec(kind="torus_derivative", N=8, Q=16)  # Q = 2N violates Q >= 2(2N+1)
    monkeypatch.setattr(ModelSpec, "validate", lambda self: None)
    m = build_model(spec)
    assert check_biorthogonality(m) > 0.1


def test_wz_torus_unit_modulus(torus):
    rep = check_wz(torus)
    np.testing.assert_allclose(rep.inf_u, 1.0, atol=1e-14)
    np.testing.assert_allclose(rep.inf_v, 1.0, atol=1e-14)
    assert rep.passed


@pytest.mark.parametrize("h", [2.0, 0.5])
def test_wz_h_model_closed_form_infima(h):
    m = build_model(ModelSpec(kind="h_derivative", N=16, Q=128, h=h))
    rep = check_wz(m)
    # min over [0, 1] of h^x and h^-x
    assert abs(rep.inf_u.min() - min(1.0, h)) <= 1e-14
    assert abs(rep.inf_v.min() - min(1.0, 1.0 / h)) <= 1e-14
    assert rep.passed


def test_wz_infima_equal_the_written_out_loops(models):
    for name, m in models.items():
        xs = np.concatenate([m.x, [1.0]])
        infima = []
        for sign in (1.0, -1.0):  # u, then v
            inf = []
            for xi in m.indices:
                phase = np.exp(2j * np.pi * xi * xs)
                if m.spec.kind == "h_derivative":
                    phase = m.spec.h ** (sign * xs) * phase
                inf.append(np.min(np.abs(phase)))
            infima.append(np.array(inf))
        rep = check_wz(m)
        assert np.array_equal(rep.inf_u, infima[0]) and np.array_equal(rep.inf_v, infima[1]), name


@pytest.mark.parametrize("dual", [False, True], ids=["u", "v"])
def test_basis_rows_equal_the_closed_form(models, dual):
    for name, m in models.items():
        for reach in (0, 1, 4):
            lo, hi = -m.N - reach, m.N + reach
            assert np.array_equal(m.basis_rows(lo, hi, dual),
                                  closed_form_rows(m, lo, hi, dual)), (name, reach)
        assert np.array_equal(m.basis_rows(m.N - 1, m.N + 3, dual),
                              closed_form_rows(m, m.N - 1, m.N + 3, dual)), name


def test_u_row_equals_the_closed_form(models):
    for name, m in models.items():
        for xi in (-m.N - 4, -m.N - 1, -m.N, 0, 3, m.N, m.N + 1, m.N + 4):
            assert np.array_equal(m.u_row(xi), closed_form_rows(m, xi, xi)[0]), (name, xi)


def test_wz_fitted_exponent_near_zero(models):
    for name, m in models.items():
        rep = check_wz(m)
        assert abs(rep.fitted_exponent) < 1e-6, name


def test_bracket_closed_forms(torus, hmodel):
    bt = bracket(torus)
    assert bt[0] == pytest.approx(1.0, abs=1e-15)
    assert bt[1] == pytest.approx(math.sqrt(1 + 4 * math.pi**2), rel=1e-14)
    bh = bracket(hmodel)
    assert bh[0] == pytest.approx(math.sqrt(1 + math.log(2) ** 2), rel=1e-14)


def test_bracket_nondecreasing_in_abs_index(models):
    for name, m in models.items():
        vals = bracket(m).values
        N = m.N
        assert np.all(np.diff(vals[N:]) >= -1e-14), name
        assert np.all(vals >= 1.0 - 1e-15), name


def test_bracket_index_checked_at_both_edges(models):
    for name, m in models.items():
        bt = bracket(m)
        assert bt[-m.N] == bt.values[0] and bt[m.N] == bt.values[-1], name
        for xi in (m.N + 1, -m.N - 1, -2 * m.N - 1):
            with pytest.raises(WindowExhaustedError):
                bt[xi]


def test_laplacian_bracket_uses_order_two(laplacian):
    # <xi> = (1 + (4 pi^2 xi^2)^2)^(1/4) ~ 2 pi |xi|
    vals = bracket(laplacian).values
    xi = 8
    expected = (1 + (4 * np.pi**2 * xi**2) ** 2) ** 0.25
    assert vals[laplacian.N + xi] == pytest.approx(expected, rel=1e-14)


def test_h_equal_one_degenerates_to_torus():
    mt = build_model(ModelSpec(kind="torus_derivative", N=8, Q=64))
    mh = build_model(ModelSpec(kind="h_derivative", N=8, Q=64, h=1.0))
    np.testing.assert_array_equal(mt.u, mh.u)
    np.testing.assert_array_equal(mt.v, mh.v)
    assert np.all(mt.eigenvalues == mh.eigenvalues)


def test_s0_tail_counting_case(torus):
    rep = s0_tail(torus, 0.0)
    np.testing.assert_allclose(rep.partial_sums, 2 * rep.ks + 1.0, atol=1e-12)
    assert not rep.convergent_looking


def test_s0_tail_adds_its_partial_sums_in_sequence(hmodel):
    rep = s0_tail(hmodel, 1.5)
    terms = hmodel.bracket_val(hmodel.indices) ** -1.5
    total, sums = terms[hmodel.N], []
    for k in rep.ks:
        total += terms[hmodel.N + k] + terms[hmodel.N - k]
        sums.append(total)
    assert np.array_equal(rep.partial_sums, sums)


def test_s0_tail_convergent_case(torus):
    rep = s0_tail(torus, 2.0)
    # partial sums approach 1 + 2 sum_k (1 + 4 pi^2 k^2)^-1; the missing tail
    # is below the integral bound 2 * int_N^inf dk/(4 pi^2 k^2)
    direct = 1.0 + 2.0 * sum(1.0 / (1 + 4 * np.pi**2 * k**2) for k in range(1, 100001))
    tail_bound = 2.0 / (4 * np.pi**2 * torus.N)
    assert rep.partial_sums[-1] <= direct <= rep.partial_sums[-1] + tail_bound
    assert rep.convergent_looking
    assert rep.fitted_decay == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("s,decay", [(2.0, 2.0), (-1.0, 0.0)])
def test_s0_tail_too_short_to_fit_reads_the_exponent(s, decay):
    # N = 2 gives two increments, too few for a slope: the decay is s itself, floored at 0
    rep = s0_tail(build_model(ModelSpec(kind="torus_derivative", N=2, Q=64)), s)
    assert rep.fitted_decay == decay and rep.convergent_looking == (decay > 1.05)


def test_s0_tail_underflowing_increments_fit_no_slope(torus):
    # <xi>^-1e6 underflows to 0 off xi = 0, so the log fit has no finite data
    rep = s0_tail(torus, 1e6)
    assert np.all(rep.increments == 0.0)
    assert rep.fitted_decay == 0.0 and not rep.convergent_looking


def test_s0_tail_laplacian_same_scale(laplacian):
    rep = s0_tail(laplacian, 2.0)
    # <xi> ~ 2 pi |xi| for the laplacian kind too, so increments ~ (2 pi k)^-2
    assert rep.fitted_decay == pytest.approx(2.0, abs=0.1)
    assert rep.convergent_looking


def test_order_override_changes_bracket():
    m = build_model(ModelSpec(kind="torus_derivative", N=4, Q=64, m=2.0))
    assert m.order == 2.0
    assert m.bracket_val(1) == pytest.approx((1 + 4 * np.pi**2) ** 0.25, rel=1e-14)


#: the closed forms lambda_j of each kind, written out over the window
_EIGENVALUE_FORMS = {
    "torus_derivative": lambda j, h: 2.0 * np.pi * j + 0.0j,
    "h_derivative": lambda j, h: 2.0 * np.pi * j - 1.0j * math.log(h),
    "torus_laplacian": lambda j, h: 4.0 * np.pi**2 * j.astype(float) ** 2 + 0.0j,
}


@pytest.mark.parametrize("N", [0, 16, 32])
@pytest.mark.parametrize("kind,h", [("torus_derivative", None), ("h_derivative", 2.0),
                                    ("h_derivative", 0.5), ("torus_laplacian", None)])
def test_eigenvalues_equal_the_closed_forms(kind, h, N):
    m = build_model(ModelSpec(kind=kind, N=N, Q=4 * (2 * N + 1), h=h))
    expected = _EIGENVALUE_FORMS[kind](np.arange(-N, N + 1), h)
    assert m.eigenvalues.dtype == np.complex128
    assert np.array_equal(m.eigenvalues, expected)
    assert m.eigenvalues is m.eigenvalues
