import numpy as np
import pytest

from conftest import use_lanes
from nonharmonic.calculus import (Contour, EllipticityCertificate, certify_parameter_ellipticity,
                                  dunford_riesz, dunford_riesz_many, fractional_power_symbol,
                                  make_scalar_function, negative_real_ray, parametrix,
                                  resolvent_symbol)
from nonharmonic.errors import (BranchCutError, ConfigurationError, EllipticityError,
                                SpectrumProximityError, WindowExhaustedError)
from nonharmonic.model import ModelSpec, build_model
from nonharmonic.quantize import composition_oracle, galerkin_matrix, symbol_of_matrix
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


def test_gauss_rules_are_computed_once_per_size_and_read_only(monkeypatch):
    from nonharmonic import calculus

    calculus._gauss_legendre.cache_clear()
    leggauss, sizes = np.polynomial.legendre.leggauss, []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: sizes.append(n) or leggauss(n))
    first = Contour.keyhole_negative_axis(R=50.0, nodes_per_segment=100)
    again = Contour.keyhole_negative_axis(R=50.0, nodes_per_segment=100)
    assert sizes == [13, 12]  # 100 nodes on 8 panels: sizes 13 and 12, each computed once
    assert np.array_equal(first.nodes, again.nodes) and np.array_equal(first.weights, again.weights)
    for size in (12, 13):
        t, w = calculus._gauss_legendre(size)
        ref_t, ref_w = leggauss(size)
        assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.0


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
        Contour.keyhole_negative_axis(R=0.05)
    with pytest.raises(ConfigurationError):
        Contour.polyline([0.0, 1.0])
    with pytest.raises(ConfigurationError, match="radius"):
        Contour.circle(center=0.0, radius=0.0)


@pytest.mark.parametrize("count", [0, -2])
def test_contour_node_counts_below_one_are_configuration_errors(torus, count):
    a = make_symbol("bracket_power", power=1.0)
    for build in (lambda: Contour.keyhole_negative_axis(R=10.0, nodes_per_segment=count),
                  lambda: Contour.default_keyhole(torus, a, nodes_per_segment=count),
                  lambda: Contour.circle(center=0.0, radius=1.0, n=count),
                  lambda: Contour.polyline([0.0, 1.0, 1.0j], n_per_edge=count)):
        with pytest.raises(ConfigurationError, match="at least one node"):
            build()


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


def test_parametrix_exhausted_margin_raises_window_error(torus):
    a = make_symbol("bracket_power", power=2.0, margin=1)
    with pytest.raises(WindowExhaustedError):
        parametrix(torus, a, 2.0, 1.0, 0.0, 2)


def test_parametrix_zero_symbol_guard(torus):
    # cos(2 pi x) vanishes on the grid (Q divisible by 4), tripping the guard
    bad = Symbol(fn=lambda x, xi, lam, br: np.cos(2 * np.pi * x) * br**2 + 0.0j, order=2.0)
    with pytest.raises(EllipticityError):
        parametrix(torus, bad, 2.0, 1.0, 0.0, 1)


def test_parametrix_overflowing_ellipticity_sup_raises(torus):
    # <xi>^1e6 overflows off xi = 0, so the sup |a^-1| <xi>^m is not finite
    with np.errstate(over="ignore"), pytest.raises(EllipticityError, match="not finite"):
        parametrix(torus, make_symbol("bracket_power", power=2.0), 1e6, 1.0, 0.0, 1)


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


class ScriptedNormals:
    """A generator stand-in whose standard_normal returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self):
        return self.values.pop(0)


def test_ellipticity_checks_every_redraw(torus):
    # a draw of -1 leaves lambda where it is, so only the third re-draw moves it
    a = make_symbol("bracket_power", power=2.0)
    lam_on_value = np.array([complex(torus.bracket_val(0) ** 2)])
    rng = ScriptedNormals([-1.0, -1.0, 0.0])
    cert = certify_parameter_ellipticity(torus, a, 2.0, lam_on_value, bound=np.inf, rng=rng,
                                         check_derivative=False)
    assert np.isfinite(cert.sup_value) and rng.values == []
    with pytest.raises(SpectrumProximityError, match="keeps hitting"):
        certify_parameter_ellipticity(torus, a, 2.0, lam_on_value, bound=np.inf,
                                      rng=ScriptedNormals([-1.0] * 3), check_derivative=False)


def test_ellipticity_spectrum_on_real_line_vs_imaginary_ray(torus):
    lam_mult = make_symbol("lambda_multiplier", order=1.0)
    lambdas = -1j * np.logspace(-2, 3, 40)
    cert = certify_parameter_ellipticity(torus, lam_mult, 1.0, lambdas, bound=np.inf,
                                         check_derivative=False)
    assert np.isfinite(cert.sup_value)


@pytest.mark.parametrize("lambdas,m,message", [
    (np.array([], dtype=complex), 2.0, "got 0 samples and m = 2.0"),
    (negative_real_ray(), 0.0, "got 60 samples and m = 0.0"),
    # m < 0 with lambda = 0 among the samples would divide by zero in |l|^(1/m)
    (negative_real_ray(), -1.0, "got 60 samples and m = -1.0"),
])
def test_ellipticity_rejects_empty_samples_and_nonpositive_order(torus, lambdas, m, message):
    a = make_symbol("bracket_power", power=2.0)
    with pytest.raises(ConfigurationError, match=message):
        certify_parameter_ellipticity(torus, a, m, lambdas, bound=np.inf)


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
    for fname, kw in [("inverse", {}), ("inverse_sqrt", {}), ("power", {"exponent": -0.25})]:
        F, s_decl = make_scalar_function(fname, **kw)
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


def test_leading_term_computed_on_first_read_and_equal_to_eager_loop(hmodel):
    a = make_symbol("x_modulated_bracket", power=2.0)
    contour = Contour.default_keyhole(hmodel, a, nodes_per_segment=25)
    F, s = make_scalar_function("inverse_sqrt")
    res = dunford_riesz(hmodel, a, F, contour, decay_exponent=s)
    assert "leading_term" not in vars(res)
    # the loop dunford_riesz ran before every return
    tab = a.table(hmodel, 0)
    eager = np.zeros_like(tab)
    for z, wf in zip(contour.nodes, contour.weights * np.asarray(F(contour.nodes), dtype=complex)):
        eager += wf / (tab - z)
    eager *= -res.orientation / (2j * np.pi)
    assert np.array_equal(res.leading_term.table(hmodel, 0), eager)
    assert res.leading_term is res.leading_term


def per_function_reference(model, a, F, contour):
    """sigma_{F(A)} with its own inversion at every node: the loop that
    dunford_riesz_many shares between functions."""
    Fz = np.asarray(F(contour.nodes), dtype=complex)
    G = galerkin_matrix(model, a)
    sign = contour.check_clear_of(G.eigenvalues)
    eye = np.eye(G.matrix.shape[0])
    acc = np.zeros_like(eye, dtype=complex)
    for z, w, fz in zip(contour.nodes, contour.weights, Fz):
        acc += (w * fz) * np.linalg.inv(G.matrix - z * eye)
    return symbol_of_matrix(model, -sign / (2j * np.pi) * acc).table(model, 0)


@pytest.mark.parametrize("symbol", ["bracket_power", "x_modulated_bracket"])
def test_dunford_riesz_many_is_bitwise_one_call_per_function(hmodel, symbol):
    a = make_symbol(symbol, power=2.0)
    contour = Contour.default_keyhole(hmodel, a, nodes_per_segment=25)
    functions = [make_scalar_function("inverse"), make_scalar_function("inverse_sqrt"),
                 make_scalar_function("power", exponent=-0.25)]
    results = dunford_riesz_many(hmodel, a, functions, contour)
    for (F, s), res in zip(functions, results):
        assert np.array_equal(res.symbol.table(hmodel, 0),
                              per_function_reference(hmodel, a, F, contour))
        assert res.symbol.order == a.order * s


LANE_CONTOURS = {"circle_7": Contour.circle(center=65.0, radius=150.0, n=7),
                 "polyline_15": Contour.polyline([-100 - 150j, 300.0, -100 + 150j], n_per_edge=5)}


def set_nodes_per_block(monkeypatch, model, nodes):
    """Lower the node budget of dunford_riesz_many to `nodes` inverses per block."""
    from nonharmonic import calculus

    n = 2 * model.N + 1
    monkeypatch.setattr(calculus, "NODE_BLOCK_BYTES", nodes * n * n * 16)


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("nodes_per_block", [1, 3])
@pytest.mark.parametrize("contour", LANE_CONTOURS.values(), ids=list(LANE_CONTOURS))
@pytest.mark.parametrize("symbol", ["bracket_power", "x_modulated_bracket"])
@pytest.mark.parametrize("name", ["torus_derivative", "h_derivative_2"])
def test_node_blocks_on_every_lane_equal_the_per_function_loop(models, monkeypatch, name, symbol,
                                                               contour, nodes_per_block, lanes):
    import threading

    model, a = models[name], make_symbol(symbol, power=1.0)
    use_lanes(monkeypatch, lanes)
    set_nodes_per_block(monkeypatch, model, nodes_per_block)
    inv, callers = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv",
                        lambda A: callers.append(threading.get_ident()) or inv(A))
    functions = [make_scalar_function("inverse"), make_scalar_function("inverse_sqrt")]
    results = dunford_riesz_many(model, a, functions, contour)
    assert len(callers) == len(contour.nodes)  # one inversion per node
    assert len(set(callers)) == lanes
    monkeypatch.setattr(np.linalg, "inv", inv)
    for (F, _), res in zip(functions, results):
        assert np.array_equal(res.symbol.table(model, 0),
                              per_function_reference(model, a, F, contour))


@pytest.fixture
def live_inverses(monkeypatch):
    """Every inverse computed while the test runs, as weak references; each
    inversion first checks that fewer than `lanes` blocks of inverses are
    alive, so at most `lanes` blocks ever are."""
    import threading
    import weakref

    from nonharmonic import calculus
    from nonharmonic.threads import lanes

    inv, refs, lock = np.linalg.inv, [], threading.Lock()

    def counted(A):
        with lock:
            per_block = max(1, calculus.NODE_BLOCK_BYTES // A.nbytes)
            assert sum(ref() is not None for ref in refs) < lanes() * per_block
        X = inv(A)
        with lock:
            refs.append(weakref.ref(X if X.base is None else X.base))
        return X

    monkeypatch.setattr(np.linalg, "inv", counted)
    return refs


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("nodes_per_block", [1, 3])
def test_at_most_one_node_block_per_lane_is_alive(hmodel, monkeypatch, live_inverses,
                                                  nodes_per_block, lanes):
    use_lanes(monkeypatch, lanes)
    set_nodes_per_block(monkeypatch, hmodel, nodes_per_block)
    a = make_symbol("x_modulated_bracket", power=2.0)
    contour = Contour.default_keyhole(hmodel, a, nodes_per_segment=25)
    dunford_riesz_many(hmodel, a, [make_scalar_function("inverse")], contour)
    assert len(live_inverses) == len(contour.nodes)
    assert all(ref() is None for ref in live_inverses)


@pytest.mark.parametrize("lanes", [1, 2])
def test_an_inversion_failing_on_a_helper_lane_reaches_the_caller(hmodel, monkeypatch, lanes):
    import threading

    use_lanes(monkeypatch, lanes)
    set_nodes_per_block(monkeypatch, hmodel, 1)
    a = make_symbol("bracket_power", power=2.0)
    contour = Contour.default_keyhole(hmodel, a, nodes_per_segment=25)
    # with one node per block, node 5 is the second block of the third round
    bad = galerkin_matrix(hmodel, a).matrix - contour.nodes[5] * np.eye(2 * hmodel.N + 1)
    inv, failed_on = np.linalg.inv, []

    def failing(A):
        if np.array_equal(A, bad):
            failed_on.append(threading.current_thread())
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(A)

    monkeypatch.setattr(np.linalg, "inv", failing)
    before = set(threading.enumerate())
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        dunford_riesz_many(hmodel, a, [make_scalar_function("inverse")], contour)
    assert (failed_on[0] is threading.main_thread()) == (lanes == 1)
    assert set(threading.enumerate()) == before  # the pool's threads have ended


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


@pytest.mark.parametrize("F,s,message", [
    (lambda z: 1.0 / z, 0.0, "decay exponent must be negative"),
    (lambda z: np.where(np.arange(len(z)) == 3, np.inf, 1.0 / z), -1.0, "not finite"),
])
def test_dunford_riesz_rejects_bad_functions(torus, F, s, message):
    a = make_symbol("bracket_power", power=1.0)
    contour = Contour.circle(center=0.0, radius=1.0, n=16)
    with pytest.raises(ConfigurationError, match=message):
        dunford_riesz(torus, a, F, contour, decay_exponent=s)


def test_dunford_riesz_many_without_functions_inverts_nothing(torus, monkeypatch):
    def no_inversion(A):
        raise AssertionError("inverted a contour node")

    monkeypatch.setattr(np.linalg, "inv", no_inversion)
    a = make_symbol("bracket_power", power=1.0)
    with pytest.raises(ConfigurationError, match="at least one function"):
        dunford_riesz_many(torus, a, [], Contour.circle(center=0.0, radius=1.0, n=16))


def test_scalar_function_registry_guards():
    with pytest.raises(ConfigurationError):
        make_scalar_function("power", exponent=0.5)
    with pytest.raises(ConfigurationError):
        make_scalar_function("gaussian")
