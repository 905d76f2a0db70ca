"""N-scaling of single layers: one call each at N = 16, 32 and 64, Q = 8N.

    python3 perfbench/scaling.py --layer symbols.apply_Delta

Each layer runs in a fresh process so that the growth of ``ru_maxrss``
across its largest call is not hidden by an earlier, larger peak.  After one
warm-up call at the smallest size (the first einsum call costs more than
later ones), each size is timed once on a freshly built symbol, so no
symbol-table cache carries over between calls.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from layertrace import maxrss_mb

SIZES = (16, 32, 64)


def _apply_delta(model):
    from nonharmonic.symbols import apply_Delta, make_symbol

    sym = make_symbol("x_modulated_bracket", power=1.0)
    return lambda: apply_Delta(model, sym, 1)


def _compose(model):
    from nonharmonic.quantize import compose_symbols
    from nonharmonic.symbols import make_symbol

    a, b = make_symbol("bracket_power", power=1.0), make_symbol("exp_mode", mode=1)
    return lambda: compose_symbols(model, a, b, 3)


def _parametrix(model):
    from nonharmonic.calculus import parametrix
    from nonharmonic.symbols import make_symbol

    sym = make_symbol("x_modulated_bracket", power=2.0)
    return lambda: parametrix(model, sym, 2.0, 1.0, 0.0, 2)


def _dunford_riesz(model):
    from nonharmonic.calculus import Contour, dunford_riesz, make_scalar_function
    from nonharmonic.symbols import make_symbol

    sym = make_symbol("bracket_power", power=2.0)
    F, s = make_scalar_function("inverse_sqrt")
    contour = Contour.default_keyhole(model, sym, nodes_per_segment=100)  # 400 nodes
    return lambda: dunford_riesz(model, sym, F, contour, decay_exponent=s)


def _solve_ivp(model):
    import numpy as np

    from nonharmonic.evolve import EvolutionProblem, solve_ivp
    from nonharmonic.symbols import Symbol

    gen = Symbol(fn=lambda x, xi, lam, br: np.full_like(x, -(br**2), dtype=complex),
                 order=2.0, name="-bracket^2")
    u2 = model.u_row(2)
    prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=model.u_row(1), T=0.1,
                            steps=200, scheme="crank_nicolson", forcing=lambda t: u2,
                            order_m=2.0)
    return lambda: solve_ivp(model, prob)


#: layer -> function preparing one call on a model (untimed)
CASES = {
    "symbols.apply_Delta": _apply_delta,
    "quantize.compose_symbols": _compose,
    "calculus.parametrix": _parametrix,
    "calculus.dunford_riesz": _dunford_riesz,
    "evolve.solve_ivp": _solve_ivp,
}


def measure(layer: str, sizes=SIZES) -> dict:
    """Seconds per call at each size, and the ru_maxrss growth of the last call."""
    from nonharmonic.model import ModelSpec, build_model

    prepare = CASES[layer]
    models = [build_model(ModelSpec(kind="torus_derivative", N=n, Q=8 * n)) for n in sizes]
    prepare(models[0])()  # warm-up
    seconds, growth = [], 0.0
    for model in models:
        call = prepare(model)
        rss0 = maxrss_mb()
        t0 = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t0)
        growth = maxrss_mb() - rss0
    return {"layer": layer, "sizes": list(sizes), "seconds": seconds, "maxrss_growth_mb": growth}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", choices=sorted(CASES), required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.layer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
