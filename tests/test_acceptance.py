"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion as it executes.  Desk-scale defaults: N = 16, Q = 128.
"""

import contextlib
import json
import math

import numpy as np

from conftest import geometric_star_coefficient
from nonharmonic.analysis import (garding_estimate, hilbert_schmidt_norm,
                                  interpolation_constant, l2_operator_norm)
from nonharmonic.calculus import (Contour, certify_parameter_ellipticity, dunford_riesz,
                                  fractional_power_symbol, make_scalar_function,
                                  negative_real_ray, parametrix)
from nonharmonic.evolve import EvolutionProblem, energy_check, solve_ivp, uniqueness_probe
from nonharmonic.model import ModelSpec, build_model, check_biorthogonality, check_wz
from nonharmonic.quantize import (compose_symbols, composition_oracle, extract_symbol,
                                  galerkin_matrix, inner_window, kernel, kernel_apply, op_apply)
from nonharmonic.symbols import Symbol, apply_Delta, make_symbol
from nonharmonic.transform import (CoeffVector, band_limited, fourier, inverse, l2L_norm,
                                   l2_grid_norm)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def acceptance_models():
    return [
        build_model(ModelSpec(kind="torus_derivative", N=16, Q=128)),
        build_model(ModelSpec(kind="h_derivative", N=16, Q=128, h=0.5)),
        build_model(ModelSpec(kind="h_derivative", N=16, Q=128, h=2.0)),
        build_model(ModelSpec(kind="torus_laplacian", N=16, Q=128)),
    ]


def test_criterion_01_biorthogonality_and_wz():
    with criterion(1, "biorthogonality <= 1e-12 and WZ infima match closed forms"):
        for m in acceptance_models():
            assert check_biorthogonality(m) <= 1e-12
            rep = check_wz(m)
            h = m.spec.h if m.spec.h is not None else 1.0
            assert np.max(np.abs(rep.inf_u - min(1.0, h))) <= 1e-14
            assert np.max(np.abs(rep.inf_v - min(1.0, 1.0 / h))) <= 1e-14
            assert rep.passed


def test_criterion_02_transform_roundtrips_and_parseval():
    with criterion(2, "transform roundtrips 1e-12, Parseval 1e-10, h=2 norm anchor 1e-10"):
        for m in acceptance_models():
            rng = np.random.default_rng(20)
            for _ in range(20):
                f = band_limited(m, rng)
                c = fourier(m, f)
                assert np.max(np.abs(inverse(m, c) - f)) <= 1e-12
                assert abs(l2L_norm(m, c) - l2_grid_norm(m, f)) <= 1e-10

        # h = 2 single-mode norm: the discrete norm equals the closed-form
        # geometric sum at the working resolution ...
        m2 = build_model(ModelSpec(kind="h_derivative", N=16, Q=128, h=2.0))
        ind = np.zeros(33)
        ind[16] = 1.0
        got = l2L_norm(m2, CoeffVector(ind))
        geom = math.sqrt(geometric_star_coefficient(2.0, 128, 0).real)
        assert abs(got - geom) <= 1e-10
        # ... and Richardson extrapolation over Q recovers the continuum
        # value (3 / (2 ln 2))^(1/2) to the stated tolerance
        sq = []
        for j in range(6):
            mq = build_model(ModelSpec(kind="h_derivative", N=1, Q=256 * 2**j, h=2.0))
            e0 = np.zeros(3)
            e0[1] = 1.0
            sq.append(l2L_norm(mq, CoeffVector(e0)) ** 2)
        row = sq
        for k in range(1, 6):
            row = [(2**k * row[j + 1] - row[j]) / (2**k - 1) for j in range(len(row) - 1)]
        assert abs(math.sqrt(row[0]) - math.sqrt(3.0 / (2.0 * math.log(2.0)))) <= 1e-10


def test_criterion_03_difference_operator_oracle():
    with criterion(3, "coupling-tensor Delta equals the forward difference (1e-12, scaled)"):
        for m in acceptance_models():
            syms = [make_symbol("bracket_power", power=1.0),
                    make_symbol("lambda_multiplier", order=m.order),
                    make_symbol("x_modulated_bracket", power=1.0)]
            for sym in syms:
                got = apply_Delta(m, sym, 1).table(m, 0)
                oracle = np.stack([sym.values(m, xi + 1) - sym.values(m, xi)
                                   for xi in m.indices])
                scale = max(1.0, float(np.max(np.abs(sym.table(m, 1)))))
                assert np.max(np.abs(got - oracle)) / scale <= 1e-12, (m.spec.kind, sym.name)


def test_criterion_04_quantization_roundtrip_and_routes():
    with criterion(4, "extract(Op(a)) = a (1e-11); Galerkin/kernel/direct routes agree (1e-8)"):
        for m in acceptance_models():
            rng = np.random.default_rng(4)
            f = band_limited(m, rng)
            syms = [make_symbol("bracket_power", power=1.0),
                    make_symbol("bracket_power", power=2.0),
                    make_symbol("lambda_multiplier", order=m.order),
                    make_symbol("x_modulated_bracket", power=1.0),
                    make_symbol("exp_mode", mode=1)]
            for sym in syms:
                scale = max(1.0, float(np.max(np.abs(sym.table(m, 0)))))
                ext = extract_symbol(m, lambda g, s=sym: op_apply(m, s, g))
                assert np.max(np.abs(ext.table(m, 0) - sym.table(m, 0))) / scale <= 1e-11
                direct = op_apply(m, sym, f)
                cd = fourier(m, direct).values
                cm = galerkin_matrix(m, sym).apply(fourier(m, f)).values
                ck = fourier(m, kernel_apply(m, kernel(m, sym), f)).values
                fscale = max(1.0, float(np.max(np.abs(cd))))
                assert np.max(np.abs(cm - cd)) / fscale <= 1e-8
                assert np.max(np.abs(ck - cd)) / fscale <= 1e-8


def test_criterion_05_composition_expansion_contract():
    with criterion(5, "weighted composition remainder nonincreasing for terms = 1, 2, 3"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        a = make_symbol("bracket_power", power=1.0)
        b = make_symbol("exp_mode", mode=1)
        oracle = composition_oracle(m, a, b).table(m, 0)
        mask = inner_window(m, 0.5)
        br = m.bracket_val(m.indices)
        sups = []
        for terms in (1, 2, 3):
            approx = compose_symbols(m, a, b, terms).table(m, 0)
            rem = np.max(np.abs(oracle - approx), axis=1)
            sups.append(float(np.max((rem * br ** (-1.0 + terms))[mask])))
        floor = 1e-8  # roundoff floor once the expansion terminates exactly
        for s0, s1 in zip(sups, sups[1:]):
            assert s1 <= s0 or s1 <= floor, sups


def test_criterion_06_parametrix():
    with criterion(6, "parametrix: multiplier exact (1e-12, scaled); variable case >= 2x decrease"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        mult = make_symbol("bracket_power", power=2.0)
        tab = mult.table(m, 0)
        scale = float(np.max(np.abs(tab)) * np.max(np.abs(1.0 / tab)))
        res = parametrix(m, mult, 2.0, 1.0, 0.0, 2)
        rem = np.max(np.abs(composition_oracle(m, mult, res.symbol).table(m, 0) - 1.0))
        assert rem / scale <= 1e-12

        var = make_symbol("x_modulated_bracket", power=2.0)
        band = (np.abs(m.indices) >= (3 * m.N) // 8) & (np.abs(m.indices) <= m.N // 2)
        sups = []
        for n_terms in (0, 2):
            res = parametrix(m, var, 2.0, 1.0, 0.0, n_terms)
            prod = composition_oracle(m, var, res.symbol)
            sups.append(float(np.max(np.max(np.abs(prod.table(m, 0) - 1.0), axis=1)[band])))
        assert sups[0] / sups[1] >= 2.0, sups


def test_criterion_07_functional_calculus_vs_spectral_oracle():
    with criterion(7, "contour calculus: rel err <= 1e-6 at 400 nodes, monotone in nodes"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        a = make_symbol("bracket_power", power=2.0)
        br = m.bracket_val(m.indices)
        for fname, kw in [("inverse", {}), ("inverse_sqrt", {}), ("power", {"exponent": -0.25})]:
            F, s = make_scalar_function(fname, **kw)
            oracle = br ** (2.0 * s)
            errs = []
            for nps in (25, 50, 100):  # 100 / 200 / 400 total nodes
                contour = Contour.default_keyhole(m, a, nodes_per_segment=nps)
                got = dunford_riesz(m, a, F, contour, decay_exponent=s).symbol.table(m, 0)[:, 0]
                errs.append(float(np.max(np.abs(got - oracle) / np.abs(oracle))))
            assert errs[2] <= 1e-6, (fname, errs)
            assert errs[0] > errs[1] > errs[2], (fname, errs)
        # cross-check the pointwise power route against the contour route
        F, s = make_scalar_function("inverse_sqrt")
        contour = Contour.default_keyhole(m, a, nodes_per_segment=100)
        via_contour = dunford_riesz(m, a, F, contour, decay_exponent=s).symbol.table(m, 0)
        via_power = fractional_power_symbol(m, a, -0.5).table(m, 0)
        assert np.max(np.abs(via_contour - via_power) / np.abs(via_power)) <= 1e-6


def test_criterion_08_parameter_ellipticity():
    with criterion(8, "parameter ellipticity sup <= 2 on R_-, resolvent derivative 1e-6"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        a = make_symbol("bracket_power", power=2.0)
        cert = certify_parameter_ellipticity(m, a, 2.0, negative_real_ray(), bound=2.0)
        assert cert.passed and cert.sup_value <= 2.0
        assert cert.derivative_check is not None and cert.derivative_check <= 1e-6


def test_criterion_09_garding():
    with criterion(9, "Garding: variable case C1 >= 0.2, zero violations; multiplier C1=1, C2=0"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        rep = garding_estimate(m, make_symbol("x_modulated_bracket", power=2.0), 2.0,
                               trials=200, seed=2026)
        assert rep.verdict and rep.violations == 0
        assert rep.C1 >= 0.2
        mult = garding_estimate(m, make_symbol("bracket_power", power=2.0), 2.0,
                                trials=200, seed=2026)
        assert abs(mult.C1 - 1.0) <= 1e-10
        assert mult.C2 <= 1e-10
        assert mult.violations == 0


def test_criterion_10_interpolation_inequality():
    with criterion(10, "interpolation: zero violations, discrete constants below continuum"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        br = m.bracket_val(m.indices)
        rng = np.random.default_rng(10)
        for (s, t, eps), continuum in [((2.0, 1.0, 0.1), 1.0 / (4 * 0.1)),
                                       ((1.0, 0.0, 0.5), 1.0 - 0.5)]:
            C = interpolation_constant(m, s, t, eps, trials=100, seed=10)
            assert C <= continuum + 1e-12
            violations = 0
            for _ in range(100):
                c2 = np.abs(rng.standard_normal(33) + 1j * rng.standard_normal(33)) ** 2
                lhs = np.sum(br ** (2 * t) * c2)
                rhs = eps * np.sum(br ** (2 * s) * c2) + C * np.sum(c2)
                violations += int(lhs > rhs * (1 + 1e-12))
            assert violations == 0


def test_criterion_11_l2_bounds():
    with criterion(11, "order-0 norm plateau <= 1% (N=16 to 32); HS identity 1e-10"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        sym = make_symbol("x_modulated_bracket", power=0.0)
        norms = l2_operator_norm(m.spec, sym, [8, 16, 32])
        assert abs(norms[2] / norms[1] - 1.0) <= 0.01
        a = make_symbol("bracket_power", power=-1.0)
        hs = hilbert_schmidt_norm(m, a)
        tab = a.table(m, 0)
        oracle = math.sqrt(float(np.sum(np.abs(tab) ** 2) / m.Q))
        assert abs(hs - oracle) <= 1e-10


def test_criterion_12_evolution(tmp_path):
    with criterion(12, "evolution: CN order 2+-0.2, BE order 1+-0.2, energy, uniqueness, determinism"):
        m = build_model(ModelSpec(kind="torus_derivative", N=16, Q=128))
        neg = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, -(br**2), dtype=complex),
                     order=2.0, name="-bracket^2")
        exact = np.zeros(33, dtype=complex)
        exact[17] = math.exp(-float(m.bracket_val(1)) ** 2 * 0.1)

        for scheme, order in [("crank_nicolson", 2.0), ("backward_euler", 1.0)]:
            errs = []
            for steps in (50, 100, 200, 400):
                prob = EvolutionProblem(symbol_factory=lambda t: neg, u0=m.u_row(1), T=0.1,
                                        steps=steps, scheme=scheme, order_m=2.0)
                traj = solve_ivp(m, prob)
                errs.append(np.linalg.norm(traj.coeffs[-1] - exact))
            slope = -np.polyfit(np.log2([50, 100, 200, 400]), np.log2(errs), 1)[0]
            assert abs(slope - order) <= 0.2, (scheme, slope)

        # registered dissipative problems: energy bound violations must be zero
        def K_t(t):
            amp = -(1.0 + 0.3 * np.cos(2 * np.pi * t))
            return Symbol(fn=lambda x, xi, lam, br, A=amp: A * br**2
                          + 0.1 * np.exp(2j * np.pi * x), order=2.0)

        problems = [
            EvolutionProblem(symbol_factory=lambda t: neg, u0=m.u_row(1), T=0.1,
                             steps=200, scheme="crank_nicolson", order_m=2.0),
            EvolutionProblem(symbol_factory=lambda t: neg, u0=m.u_row(1), T=0.1,
                             steps=200, scheme="backward_euler", order_m=2.0),
            EvolutionProblem(symbol_factory=K_t, u0=m.u_row(1), T=0.5, steps=200,
                             scheme="crank_nicolson", forcing=lambda t: m.u_row(2),
                             order_m=2.0),
        ]
        for prob in problems:
            traj = solve_ivp(m, prob)
            rep = energy_check(m, prob, traj, seed=12)
            assert rep.violations == 0, prob.scheme
        uni = uniqueness_probe(m, problems[0], seed=12)
        assert uni.bitwise_identical
        assert uni.homogeneous_max_norm <= 1e-12

        # byte-identical CSV artifacts under a fixed seed
        from nonharmonic.cli import run
        cfg = {"model": {"kind": "torus_derivative", "N": 16, "Q": 128},
               "task": "evolve", "seed": 12,
               "params": {"generator": {"name": "bracket_power", "power": 2.0, "scale": -1.0},
                          "scheme": "crank_nicolson", "steps": 100, "horizon": 0.1,
                          "order": 2.0, "u0_mode": 1}}
        cfg_path = tmp_path / "evolve.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(str(cfg_path), out_dir=str(tmp_path / "r1")) == 0
        assert run(str(cfg_path), out_dir=str(tmp_path / "r2")) == 0
        a1 = (tmp_path / "r1" / "evolve.csv").read_bytes()
        a2 = (tmp_path / "r2" / "evolve.csv").read_bytes()
        assert a1 == a2
