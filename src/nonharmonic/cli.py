"""Experiment runner: config ingestion, task execution, CSV/JSON artifacts.

Command shape:

    nonharmonic run --config cfg.json [--out DIR] [--seed U64]
    nonharmonic report --registry PATH

Exit codes: 0 all assertions pass, 1 assertion failure, 2 invalid config
(ConfigurationError: also a config that is not UTF-8, nests deeper than
json recurses or holds a number beyond a double, such as 1e400 or a
400-digit integer) or an output that cannot be written (a CSV, the run's
record, the report, or a closed or full stdout), 3 numerical guard tripped
(any other NonharmonicError, or a floating-point fault inside a task:
OverflowError, or numpy's overflow, invalid or divide, raised on every
lane), 4 internal error (any other exception).  summary.json writes a
non-finite value as "inf", "-inf" or "nan".

Every numeric CSV cell is written with 17 significant digits so doubles
round-trip exactly; reruns of the same config and seed produce
byte-identical CSV files, whatever NONHARMONIC_THREADS is.  A lane is one
BLAS thread: before numpy loads, the CLI sets every BLAS variable that is
unset to 1 (one the user set is kept, and above 1 may move the last
digits), and the row blocks of Delta^alpha and the contour-node inversions
of the functional calculus run on NONHARMONIC_THREADS lanes
(`threads.side_by_side`), one per usable core when it is 0 or unset.  A
value that is not a non-negative integer exits 2 before anything is
written.  The lanes and the thread variables go to the `threads` block of
summary.json and of the registry record, never to a CSV.

A config is checked against CONFIG_SCHEMA and the params schema of its
task by `schema_violation`, a validator in this module, not a library: it
supports exactly the JSON Schema keywords these schemas use, namely type,
properties, required, additionalProperties, enum, minimum,
exclusiveMinimum, minItems, items and oneOf.  NaN, Infinity and
-Infinity, which Python's json reads but JSON has not, are invalid.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, threads
from .errors import ConfigurationError, NonharmonicError

_SYMBOL_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "power": {"type": "number"},
        "order": {"type": "number"},
        "value": {"type": "number"},
        "amplitude": {"type": "number"},
        "mode": {"type": "integer"},
        "exponent": {"type": "number"},
        "scale": {"type": "number"},
    },
    "required": ["name"],
    "additionalProperties": False,
}

_PARAMS_SCHEMAS = {
    "model-check": {"type": "object", "properties": {"tail_s": {"type": "number"}},
                    "additionalProperties": False},
    "transform-check": {"type": "object", "properties": {"trials": {"type": "integer", "minimum": 1}},
                        "additionalProperties": False},
    "symbol-order": {"type": "object",
                     "properties": {"symbol": _SYMBOL_SCHEMA, "rho": {"type": "number"},
                                    "delta": {"type": "number"},
                                    "expected_order": {"type": "number"},
                                    "tolerance": {"type": "number"}},
                     "required": ["symbol"], "additionalProperties": False},
    "compose": {"type": "object",
                "properties": {"a": _SYMBOL_SCHEMA, "b": _SYMBOL_SCHEMA,
                               "terms": {"type": "array", "minItems": 2,
                                         "items": {"type": "integer", "minimum": 1}}},
                "required": ["a", "b"], "additionalProperties": False},
    "parametrix": {"type": "object",
                   "properties": {"symbol": _SYMBOL_SCHEMA, "order": {"type": "number"},
                                  "n_terms": {"type": "array", "minItems": 1,
                                              "items": {"type": "integer", "minimum": 0}}},
                   "required": ["symbol", "order"], "additionalProperties": False},
    "funcalc": {"type": "object",
                "properties": {"symbol": _SYMBOL_SCHEMA,
                               "functions": {"type": "array", "minItems": 1,
                                             "items": {"oneOf": [{"type": "string"}, _SYMBOL_SCHEMA]}},
                               "nodes_per_segment": {"type": "integer", "minimum": 4},
                               "tolerance": {"type": "number"}},
                "required": ["symbol"], "additionalProperties": False},
    "garding": {"type": "object",
                "properties": {"symbol": _SYMBOL_SCHEMA, "order": {"type": "number"},
                               "trials": {"type": "integer", "minimum": 1},
                               "min_c1": {"type": "number"}},
                "required": ["symbol", "order"], "additionalProperties": False},
    "l2norm": {"type": "object",
               "properties": {"symbol": _SYMBOL_SCHEMA,
                              "truncations": {"type": "array", "minItems": 2,
                                              "items": {"type": "integer", "minimum": 1}},
                              "max_growth": {"type": "number"}},
               "required": ["symbol"], "additionalProperties": False},
    "evolve": {"type": "object",
               "properties": {"generator": _SYMBOL_SCHEMA,
                              "scheme": {"enum": ["crank_nicolson", "backward_euler", "picard"]},
                              "steps": {"type": "integer", "minimum": 1},
                              "horizon": {"type": "number", "exclusiveMinimum": 0},
                              "order": {"type": "number"},
                              "u0_mode": {"type": "integer"},
                              "forcing_mode": {"type": "integer"},
                              "gate": {"enum": ["dissipative", "literal", "off"]}},
               "required": ["generator"], "additionalProperties": False},
}

TASKS = tuple(_PARAMS_SCHEMAS)

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["torus_derivative", "h_derivative", "torus_laplacian"]},
                "N": {"type": "integer", "minimum": 0},
                "Q": {"type": "integer", "minimum": 2},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "m": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "N", "Q"],
            "additionalProperties": False,
        },
        "task": {"enum": list(TASKS)},
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
    },
    "required": ["model", "task"],
    "additionalProperties": False,
}


def fmt(x) -> str:
    """One CSV cell: integers as-is, reals with 17 significant digits."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(c) for c in row])


def config_digest(config: dict, seed: int) -> str:
    canon = json.dumps({"config": config, "seed": seed}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    # JSON Schema counts an integral float such as 2.0 as an integer
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def schema_violation(value, schema: dict, where: str):
    """The first way `value` breaks `schema`, as one line, or None.

    Supports the ten keywords named in the module docstring, with JSON
    Schema's rules: a keyword applies only to values of its own type, and
    a bool is neither an integer nor a number.  `additionalProperties` may
    only be false; `enum` compares with ==, which suffices for the schemas'
    strings.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPE_CHECKS[kind](value):
        return f"{where}: {value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{where}: {value!r} is not one of {schema['enum']!r}"
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{where}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return f"{where}: {value!r} is not above {schema['exclusiveMinimum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: needs at least {schema['minItems']} items, got {len(value)}"
        if "items" in schema:
            for i, item in enumerate(value):
                msg = schema_violation(item, schema["items"], f"{where}[{i}]")
                if msg:
                    return msg
    if isinstance(value, dict):
        props = schema.get("properties", {})
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return f"{where}: {missing[0]!r} is a required property"
        extra = [key for key in value if key not in props]
        if extra and schema.get("additionalProperties", True) is False:
            return f"{where}: unexpected properties {', '.join(map(repr, extra))}"
        for key, sub in props.items():
            if key in value:
                msg = schema_violation(value[key], sub, f"{where}.{key}")
                if msg:
                    return msg
    if "oneOf" in schema:
        matched = sum(schema_violation(value, sub, where) is None for sub in schema["oneOf"])
        if matched != 1:
            return f"{where}: matches {matched} of the {len(schema['oneOf'])} oneOf forms, not one"
    return None


def validate_config(config) -> None:
    """Raise ConfigurationError unless `config` fits CONFIG_SCHEMA and its
    params fit the schema of its task."""
    msg = schema_violation(config, CONFIG_SCHEMA, "config")
    if msg is None:
        msg = schema_violation(config.get("params", {}), _PARAMS_SCHEMAS[config["task"]],
                               "params")
    if msg is not None:
        raise ConfigurationError(f"config schema violation: {msg}")


def _finite(parse):
    """A json hook that reads a literal with `parse` and refuses one beyond a
    double: json reads NaN and +-Infinity (not JSON) and 1e400 as non-finite
    floats, which pass every schema bound, and no task takes a 400-digit int."""
    def read(literal: str):
        if not math.isfinite(float(literal)):
            raise ConfigurationError(f"{literal} is not a finite double")
        return parse(literal)
    return read


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_finite(float), parse_float=_finite(float),
                               parse_int=_finite(int))
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    validate_config(config)
    return config


def _build_symbol(block: dict, model):
    from .symbols import make_symbol

    block = dict(block)
    name = block.pop("name")
    scale = block.pop("scale", None)
    if name == "lambda_multiplier" and "order" not in block:
        block["order"] = model.order
    sym = make_symbol(name, **block)
    if scale is not None and scale != 1.0:
        base_fn = sym.fn
        sym.fn = lambda x, xi, lam, br: scale * base_fn(x, xi, lam, br)
        sym.name = f"{scale:g}*{sym.name}"
    return sym


def _index_rows(model, lead, *columns):
    """One CSV row per window index: the lead cells, xi, then each column's entry."""
    return [[*lead, int(xi), *(float(col[i]) for col in columns)]
            for i, xi in enumerate(model.indices)]


def _x_independent(tab) -> bool:
    """Whether a symbol table is constant in x up to 1e-13 relative."""
    import numpy as np

    return bool(np.max(np.abs(tab - tab[:, :1])) < 1e-13 * max(1.0, float(np.max(np.abs(tab)))))


# ---------------------------------------------------------------------------
# task runners: each returns (passed, summary, artifacts)
#   artifacts: list of (csv filename, header, rows)
# ---------------------------------------------------------------------------

def _task_model_check(model, params, seed):
    import numpy as np

    from .model import biorthogonality_row_deviations, bracket, check_wz, s0_tail

    row_dev = biorthogonality_row_deviations(model)
    dev = float(np.max(row_dev))
    wz = check_wz(model)
    br = bracket(model)
    tail = s0_tail(model, float(params.get("tail_s", 2.0)))
    rows = _index_rows(model, (), model.eigenvalues.real, model.eigenvalues.imag, br.values,
                       wz.inf_u, wz.inf_v, row_dev)
    nondecreasing = bool(np.all(np.diff(br.values[model.N:]) >= -1e-14)
                         and np.all(np.diff(br.values[:model.N + 1]) <= 1e-14))
    passed = bool(dev <= 1e-12 and wz.passed and nondecreasing)
    summary = {"biorthogonality_deviation": dev, "wz_passed": wz.passed,
               "wz_fitted_exponent": wz.fitted_exponent,
               "bracket_nondecreasing": nondecreasing,
               "tail_convergent_looking": tail.convergent_looking,
               "tail_fitted_decay": tail.fitted_decay}
    return passed, summary, [("model_check.csv",
                              ["xi", "lambda_re", "lambda_im", "bracket", "inf_u", "inf_v",
                               "biorth_row_dev"], rows)]


def _task_transform_check(model, params, seed):
    import numpy as np

    from .transform import band_limited, fourier, inverse, l2L_norm, l2_grid_norm

    trials = int(params.get("trials", 20))
    rng = np.random.default_rng(seed)
    rows = []
    worst_rt, worst_pv = 0.0, 0.0
    for t in range(trials):
        f = band_limited(model, rng)
        c = fourier(model, f)
        rt = float(np.max(np.abs(inverse(model, c) - f)))
        pv = abs(l2L_norm(model, c) - l2_grid_norm(model, f))
        rows.append([t, rt, pv])
        worst_rt, worst_pv = max(worst_rt, rt), max(worst_pv, pv)
    passed = bool(worst_rt <= 1e-12 and worst_pv <= 1e-10)
    return passed, {"max_roundtrip_error": worst_rt, "max_parseval_error": worst_pv}, [
        ("transform_check.csv", ["trial", "roundtrip_error", "parseval_error"], rows)]


def _task_symbol_order(model, params, seed):
    from .symbols import estimate_order

    sym = _build_symbol(params["symbol"], model)
    rho = float(params.get("rho", 1.0))
    delta = float(params.get("delta", 0.0))
    tol = float(params.get("tolerance", 0.1))
    expected = float(params.get("expected_order", sym.order))
    rep = estimate_order(model, sym, rho, delta)
    rows = [[a, b, v] for (a, b), v in sorted(rep.values.items())]
    passed = bool(abs(rep.fitted_order - expected) <= tol)
    return passed, {"fitted_order": rep.fitted_order, "expected_order": expected,
                    "tolerance": tol}, [
        ("symbol_order.csv", ["alpha", "beta", "seminorm"], rows)]


def _task_compose(model, params, seed):
    import numpy as np

    from .quantize import compose_symbols, composition_floor, composition_oracle, inner_window

    a = _build_symbol(params["a"], model)
    b = _build_symbol(params["b"], model)
    terms_list = [int(t) for t in params.get("terms", [1, 2, 3])]
    oracle = composition_oracle(model, a, b).table(model, 0)
    mask = inner_window(model, 0.5)
    br = model.bracket_val(model.indices)
    rows, sups, floors = [], [], []
    for terms in terms_list:
        approx = compose_symbols(model, a, b, terms).table(model, 0)
        rem = np.max(np.abs(oracle - approx), axis=1)
        weight = br ** (-(a.order + b.order) + terms)
        wsup = float(np.max((rem * weight)[mask]))
        sups.append(wsup)
        floors.append(composition_floor(model, oracle, a.order + b.order, terms))
        rows += _index_rows(model, (terms,), rem, rem * weight)
    # no increase from one entry to the next, unless the later one is roundoff
    monotone = all(s1 <= s0 or s1 <= f1 for s0, s1, f1 in zip(sups, sups[1:], floors[1:]))
    return bool(monotone), {"weighted_sups": dict(zip(map(str, terms_list), sups)),
                            "floors": dict(zip(map(str, terms_list), floors))}, [
        ("compose.csv", ["terms", "xi", "remainder", "weighted_remainder"], rows)]


def _task_parametrix(model, params, seed):
    import numpy as np

    from .calculus import parametrix
    from .quantize import composition_oracle

    sym = _build_symbol(params["symbol"], model)
    m_ord = float(params["order"])
    n_list = [int(n) for n in params.get("n_terms", [0, 1, 2])]

    tab = sym.table(model, 0)
    x_indep = _x_independent(tab)
    if not x_indep and len(n_list) < 2:
        raise ConfigurationError("n_terms needs two entries for an x-dependent symbol: "
                                 "its check is the decrease from the first to the last")
    band = (np.abs(model.indices) >= (3 * model.N) // 8) & (np.abs(model.indices) <= model.N // 2)
    rows, sups = [], []
    for n in n_list:
        res = parametrix(model, sym, m_ord, 1.0, 0.0, n)
        prod = composition_oracle(model, sym, res.symbol)
        rem = np.max(np.abs(prod.table(model, 0) - 1.0), axis=1)
        sups.append(float(np.max(rem[band])))
        rows += _index_rows(model, (n,), rem)
    if x_indep:
        scale = float(np.max(np.abs(tab))) * float(np.max(np.abs(1.0 / tab)))
        passed = bool(max(sups) / scale <= 1e-12)
        summary = {"multiplier_case": True, "normalized_sup": max(sups) / scale,
                   "ellipticity_sup": res.ellipticity_sup}
    else:
        ratio = sups[0] / sups[-1] if sups[-1] > 0 else float("inf")
        passed = bool(ratio >= 2.0)
        summary = {"multiplier_case": False, "band_sups": dict(zip(map(str, n_list), sups)),
                   "decrease_ratio": ratio, "ellipticity_sup": res.ellipticity_sup}
    return passed, summary, [("parametrix.csv", ["n_terms", "xi", "sup_x_remainder"], rows)]


def _task_funcalc(model, params, seed):
    import numpy as np

    from .calculus import (Contour, dunford_riesz_many, fractional_power_symbol,
                           make_scalar_function)

    sym = _build_symbol(params["symbol"], model)
    nps = int(params.get("nodes_per_segment", 100))
    tol = float(params.get("tolerance", 1e-6))
    specs = params.get("functions", ["inverse", "inverse_sqrt"])
    tab0 = sym.table(model, 0)
    # the diagonal spectral oracle F(a(xi)) is exact only for multipliers;
    # for x-dependent symbols the leading-term deviation is reported, not asserted
    x_indep = _x_independent(tab0)
    contours = [(n, Contour.default_keyhole(model, sym, nodes_per_segment=n))
                for n in (max(nps // 4, 4), max(nps // 2, 4), nps)]
    names, functions = [], []
    for fspec in specs:
        if isinstance(fspec, str):
            fname, fkw = fspec, {}
        else:
            fkw = dict(fspec)
            fname = fkw.pop("name")
        names.append(fname)
        functions.append(make_scalar_function(fname, **fkw))

    # each contour's resolvents are shared by every function; the rows are
    # grouped by function, then contour
    rows, errs = [[] for _ in names], [[] for _ in names]
    for n, contour in contours:
        results = dunford_riesz_many(model, sym, functions, contour)
        for j, ((F, _), res) in enumerate(zip(functions, results)):
            got = res.symbol.table(model, 0)
            oracle = F(tab0) if x_indep else res.leading_term.table(model, 0)
            rel = np.abs(got - oracle) / np.maximum(np.abs(oracle), 1e-300)
            errs[j].append(float(np.max(rel)))
            rows[j] += _index_rows(model, (names[j], 4 * n), got[:, 0].real, got[:, 0].imag,
                                   oracle[:, 0].real, oracle[:, 0].imag, np.max(rel, axis=1))

    passed = True
    summary = {"multiplier_oracle_asserted": x_indep}
    for fname, ferrs, res in zip(names, errs, results):  # the finest contour's results
        if x_indep:
            mono = all(e1 <= e0 * (1 + 1e-9) or e1 <= 1e-13 for e0, e1 in zip(ferrs, ferrs[1:]))
            ok = bool(ferrs[-1] <= tol and mono)
        else:
            mono = None
            ok = True
        if fname == "inverse_sqrt":
            frac = fractional_power_symbol(model, sym, -0.5).table(model, 0)
            cross = float(np.max(np.abs(res.symbol.table(model, 0) - frac)
                                 / np.maximum(np.abs(frac), 1e-300)))
            if x_indep:
                ok = ok and cross <= tol
            summary["inverse_sqrt_cross_check"] = cross
        passed = passed and ok
        summary[fname] = {"errors": ferrs, "monotone": mono}
    return bool(passed), summary, [
        ("funcalc.csv", ["function", "total_nodes", "xi", "sigma_re", "sigma_im",
                         "oracle_re", "oracle_im", "relative_error"],
         [row for frows in rows for row in frows])]


def _task_garding(model, params, seed):
    from .analysis import garding_estimate

    sym = _build_symbol(params["symbol"], model)
    m_ord = float(params["order"])
    trials = int(params.get("trials", 200))
    min_c1 = float(params.get("min_c1", 0.0))
    rep = garding_estimate(model, sym, m_ord, trials=trials, seed=seed)
    rows = [[t, rep.quad_forms[t], rep.sobolev_sq[t], rep.l2_sq[t],
             rep.quad_forms[t] - rep.C1 * rep.sobolev_sq[t] + rep.C2 * rep.l2_sq[t]]
            for t in range(trials)]
    passed = bool(rep.verdict and rep.violations == 0 and rep.C1 >= min_c1)
    return passed, {"C0": rep.C0, "C1": rep.C1, "C2": rep.C2,
                    "violations": rep.violations, "seed": seed}, [
        ("garding.csv", ["trial", "re_quadform", "sobolev_sq", "l2_sq", "margin"], rows)]


def _task_l2norm(model, params, seed):
    import numpy as np

    from .analysis import hilbert_schmidt_norm, l2_operator_norm

    sym = _build_symbol(params["symbol"], model)
    truncs = [int(n) for n in params.get("truncations", [8, 16, 32])]
    max_growth = float(params.get("max_growth", 0.01))
    norms = l2_operator_norm(model.spec, sym, truncs)
    hs = hilbert_schmidt_norm(model, sym)
    rows = [[n, float(v)] for n, v in zip(truncs, norms)]
    # equal norms grow by 0, also when both are 0 (an identically zero symbol)
    if norms[-1] == norms[-2]:
        growth = 0.0
    elif norms[-2] == 0:
        growth = float("inf")
    else:
        growth = float(norms[-1] / norms[-2] - 1.0)
    passed = bool(abs(growth) <= max_growth)
    summary = {"operator_norms": dict(zip(map(str, truncs), map(float, norms))),
               "relative_growth_last_two": growth, "hilbert_schmidt_norm": hs}
    tab = sym.table(model, 0)
    if model.spec.kind in ("torus_derivative", "torus_laplacian"):
        oracle = float(np.sqrt(np.sum(np.abs(tab) ** 2) / model.Q))
        summary["hs_identity_error"] = abs(hs - oracle)
        passed = passed and abs(hs - oracle) <= 1e-10 * max(1.0, oracle)
    return passed, summary, [("l2norm.csv", ["N", "operator_norm"], rows)]


def _task_evolve(model, params, seed):
    import numpy as np

    from .evolve import EvolutionProblem, energy_check, residual, solve_ivp, uniqueness_probe

    gen = _build_symbol(params["generator"], model)
    scheme = params.get("scheme", "crank_nicolson")
    steps = int(params.get("steps", 200))
    T = float(params.get("horizon", 0.1))
    m_ord = float(params.get("order", gen.order))
    gate = params.get("gate", "dissipative")
    u0 = model.u_row(int(params.get("u0_mode", 1)))
    forcing = None
    if "forcing_mode" in params:
        forcing_row = model.u_row(int(params["forcing_mode"]))
        forcing = lambda t: forcing_row
    prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=u0, T=T, steps=steps,
                            scheme=scheme, forcing=forcing, order_m=m_ord,
                            ellipticity_gate=gate)
    traj = solve_ivp(model, prob)
    erep = energy_check(model, prob, traj, seed=seed)
    urep = uniqueness_probe(model, prob, seed=seed)
    res = residual(model, prob, traj)
    rows = [[k, float(traj.times[k]), float(traj.norms[k])] for k in range(len(traj.times))]
    rrows = [[k, float(traj.times[k]), float(res[k - 1])] for k in range(1, steps)]
    passed = bool(erep.passed and urep.passed)
    summary = {"scheme": scheme, "energy_C": erep.C, "energy_C2": erep.C2,
               "energy_C_prime": erep.C_prime, "energy_violations": erep.violations,
               "bitwise_identical": urep.bitwise_identical,
               "homogeneous_max_norm": urep.homogeneous_max_norm,
               "picard_iterations": traj.picard_iterations}
    return passed, summary, [
        ("evolve.csv", ["step", "t", "l2_norm"], rows),
        ("evolve_residual.csv", ["step", "t", "residual_norm"], rrows)]


_RUNNERS = {
    "model-check": _task_model_check,
    "transform-check": _task_transform_check,
    "symbol-order": _task_symbol_order,
    "compose": _task_compose,
    "parametrix": _task_parametrix,
    "funcalc": _task_funcalc,
    "garding": _task_garding,
    "l2norm": _task_l2norm,
    "evolve": _task_evolve,
}


def run(config_path: str, out_dir: str = None, seed: int = None) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        passed, line = _run(config_path, out_dir, seed)
    except Exception as exc:
        return _failure(exc)
    print(line)  # an OSError here is stdout's, which `main` reports
    return 0 if passed else 1


def _failure(exc: Exception) -> int:
    """Print the one stderr line of a failed run; returns its exit code."""
    if isinstance(exc, ConfigurationError):
        code, what = 2, "invalid config"
    elif isinstance(exc, (NonharmonicError, OverflowError, FloatingPointError)):
        code, what = 3, f"numerical guard tripped: {type(exc).__name__}"
    else:  # a defect of the program, not of the config: keep it apart from 1
        code, what = 4, f"internal: {type(exc).__name__}"
    print(f"error: {what}: {' '.join(str(exc).split())}", file=sys.stderr)
    return code


def _strict(value):
    """value with each non-finite float as the string "inf", "-inf" or "nan": JSON has none."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _run(config_path: str, out_dir, seed):
    """Execute one experiment; returns whether it passed and its status line."""
    thread_record = threads.record()
    config = load_config(config_path)
    if seed is None:
        seed = int(config.get("seed", 0))
    msg = schema_violation(seed, CONFIG_SCHEMA["properties"]["seed"], "--seed")
    if msg is not None:
        raise ConfigurationError(msg)
    import numpy as np

    from .model import ModelSpec, build_model

    mdl_block = config["model"]
    spec = ModelSpec(kind=mdl_block["kind"], N=int(mdl_block["N"]), Q=int(mdl_block["Q"]),
                     h=mdl_block.get("h"), m=mdl_block.get("m"))
    spec.validate()  # so an invalid model leaves no output directory
    out = Path(out_dir or config.get("out_dir", "runs"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        # the run's record is written last: a path that cannot take it fails before the work
        for name in ("summary.json", "registry.jsonl"):
            path = out / name
            fresh = not path.exists()
            open(path, "a", encoding="utf-8").close()
            if fresh:
                path.unlink()
    except OSError as exc:
        raise ConfigurationError(
            f"output directory {out} cannot be made or written: {exc}") from exc
    model = build_model(spec)
    task = config["task"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # exit 3, not nan
        passed, summary, artifacts = _RUNNERS[task](model, config.get("params", {}), seed)

    digest = config_digest(config, seed)
    csv_paths = [str(out / name) for name, _, _ in artifacts]
    summary_doc = {"task": task, "digest": digest, "seed": seed, "passed": passed,
                   "summary": summary, "csv": csv_paths, "threads": thread_record}
    record = {"digest": digest, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "version": __version__, "task": task, "passed": passed, "csv": csv_paths,
              "threads": thread_record}
    try:
        for name, header, rows in artifacts:
            path = out / name
            write_csv(path, header, rows)
        path = out / "summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_strict(summary_doc), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        path = out / "registry.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigurationError(f"{path} cannot be written: {exc}") from exc

    status = "pass" if passed else "FAIL"
    return passed, f"{task}: {status} (digest {digest}, artifacts in {out})"


def report(registry_path: str, out_path: str = None) -> int:
    """Aggregate a registry file into a one-line-per-run CSV summary."""
    rows, corrupt, total = [["digest", "timestamp", "version", "task", "passed"]], 0, 0
    try:
        with open(registry_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                total += 1
                try:
                    rec = json.loads(line)
                    rows.append([rec["digest"], rec["timestamp"], rec["version"],
                                 rec["task"], "1" if rec["passed"] else "0"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    corrupt += 1
                    print(f"warning: skipping corrupt registry entry at line {total}",
                          file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        return _failure(ConfigurationError(f"registry {registry_path} cannot be read: {exc}"))
    if total > 0 and corrupt == total:
        return _failure(ConfigurationError(f"every entry of registry {registry_path} is corrupt"))
    if not out_path:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)  # `main` reports an OSError
        return 0
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    except OSError as exc:
        return _failure(ConfigurationError(f"report {out_path} cannot be written: {exc}"))
    return 0


def main(argv=None) -> int:
    try:
        threads.cap_blas()  # before numpy is imported anywhere
    except ConfigurationError as exc:
        return _failure(exc)
    parser = argparse.ArgumentParser(prog="nonharmonic",
                                     description="Run operator-calculus experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_rep = sub.add_parser("report", help="summarize a run registry")
    p_rep.add_argument("--registry", required=True)
    p_rep.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = run(args.config, out_dir=args.out, seed=args.seed)
        else:
            code = report(args.registry, out_path=args.out)
        sys.stdout.flush()  # a closed or full stdout fails here, not at interpreter exit
    except OSError as exc:
        # the interpreter flushes stdout again at exit: let that write go to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _failure(ConfigurationError(f"standard output cannot be written: {exc}"))
    return code


if __name__ == "__main__":
    sys.exit(main())
