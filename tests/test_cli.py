import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonharmonic import cli
from nonharmonic.cli import run


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_MODEL = {"kind": "torus_derivative", "N": 8, "Q": 64}


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON has not."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_model_check_passes(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "h_derivative", "N": 8, "Q": 64, "h": 2.0},
                                  "task": "model-check", "seed": 1})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["summary"]["wz_passed"] is True


def test_model_check_fails_a_basis_the_calculus_refuses(tmp_path):
    # at h = 1e-100 every infimum of |u_xi| is > 0 but below the floor that
    # symbol extraction divides by, where compose exits 3 on the same model
    model = {"kind": "h_derivative", "N": 8, "Q": 64, "h": 1e-100}
    cfg = write_config(tmp_path, {"model": model, "task": "model-check", "seed": 1})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["summary"]["wz_passed"] is False
    compose = write_config(tmp_path, {"model": model, "task": "compose",
                                      "params": {"a": {"name": "bracket_power", "power": 1.0},
                                                 "b": {"name": "exp_mode", "mode": 1},
                                                 "terms": [1, 2]}}, name="compose.json")
    assert run(compose, out_dir=str(tmp_path / "compose")) == 3


def test_invalid_schema_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check", "extra": 1})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 2


def test_unknown_param_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "garding",
                                  "params": {"symbol": {"name": "bracket_power"},
                                             "order": 2, "bogus": True}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 2


def test_semantic_model_violation_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "torus_derivative", "N": 8, "Q": 8},
                                  "task": "model-check"})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 2


def test_failed_assertion_exits_1(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "symbol-order",
                                  "params": {"symbol": {"name": "bracket_power", "power": 2.0},
                                             "expected_order": 5.0, "tolerance": 0.1}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 1


def test_numerical_guard_exits_3(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "parametrix",
                                  "params": {"symbol": {"name": "constant", "value": 0.0},
                                             "order": 2.0}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


def test_floating_point_overflow_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "funcalc",
                                  "params": {"symbol": {"name": "bracket_power", "power": 400}}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical guard tripped: OverflowError")
    assert len(err.splitlines()) == 1
    # a numpy overflow, which would leave nan quadratic forms and a "pass"
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "garding",
                                  "params": {"symbol": {"name": "constant", "value": 1e308},
                                             "order": 0}}, name="garding.json")
    assert run(cfg, out_dir=str(tmp_path / "numpy")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical guard tripped: FloatingPointError")
    assert len(err.splitlines()) == 1
    assert list((tmp_path / "numpy").iterdir()) == []


_SYMBOL_ORDER = {"model": BASE_MODEL, "task": "symbol-order"}
_TINY_ORDER = {"kind": "torus_derivative", "N": 16, "Q": 128, "m": 0.004}


@pytest.mark.parametrize("doc", [
    # registry entries given parameters they do not take
    {**_SYMBOL_ORDER, "params": {"symbol": {"name": "bracket_power", "power": 2, "order": 3}}},
    {**_SYMBOL_ORDER, "params": {"symbol": {"name": "bracket_power", "power": 2, "exponent": 3}}},
    {**_SYMBOL_ORDER, "params": {"symbol": {"name": "constant", "power": 3}}},
    {"model": BASE_MODEL, "task": "funcalc",
     "params": {"symbol": {"name": "bracket_power", "power": 2},
                "functions": [{"name": "inverse", "power": 3}]}},
    # inputs that leave nothing to check
    {"model": BASE_MODEL, "task": "parametrix",
     "params": {"symbol": {"name": "bracket_power", "power": 2}, "order": 2, "n_terms": []}},
    {"model": BASE_MODEL, "task": "compose",
     "params": {"a": {"name": "bracket_power"}, "b": {"name": "exp_mode"}, "terms": []}},
    # the monotone check compares neighbouring terms
    {"model": BASE_MODEL, "task": "compose",
     "params": {"a": {"name": "bracket_power"}, "b": {"name": "x_modulated_bracket"},
                "terms": [1]}},
    # the x-dependent check is the decrease from the first entry to the last
    {"model": {"kind": "torus_derivative", "N": 16, "Q": 128}, "task": "parametrix",
     "params": {"symbol": {"name": "x_modulated_bracket", "power": 2}, "order": 2,
                "n_terms": [2]}},
    {"model": BASE_MODEL, "task": "funcalc",
     "params": {"symbol": {"name": "bracket_power", "power": 2}, "functions": []}},
    {"model": BASE_MODEL, "task": "l2norm",
     "params": {"symbol": {"name": "constant"}, "truncations": []}},
    {"model": BASE_MODEL, "task": "l2norm",
     "params": {"symbol": {"name": "constant"}, "truncations": [8]}},
    {"model": {"kind": "torus_derivative", "N": 0, "Q": 64}, "task": "symbol-order",
     "params": {"symbol": {"name": "bracket_power"}}},
    # xi = +-1 share one <xi>, so there is no slope to fit
    {"model": {"kind": "torus_derivative", "N": 1, "Q": 64}, "task": "symbol-order",
     "params": {"symbol": {"name": "bracket_power"}}},
    # an order so small that <xi> overflows within the rows the calculus reads
    {"model": _TINY_ORDER, "task": "model-check"},
    {"model": _TINY_ORDER, "task": "symbol-order", "params": {"symbol": {"name": "bracket_power"}}},
    {"model": _TINY_ORDER, "task": "compose",
     "params": {"a": {"name": "bracket_power", "power": 1.0}, "b": {"name": "exp_mode", "mode": 1},
                "terms": [1, 2, 3]}},
])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, doc):
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_standard_json_constants_exit_2_with_one_line(tmp_path, capsys, value):
    # json.dumps writes NaN, Infinity and -Infinity, which JSON has not
    doc = {"model": {"kind": "h_derivative", "N": 8, "Q": 64, "h": value}, "task": "model-check"}
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid config: {json.dumps(value)} is not a finite double\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    # a byte that is not UTF-8
    b'{"model": {"kind": "torus_derivative", "N": 8, "Q": 64}, "task": "model-check", "x": "\xff"}',
    # arrays nested deeper than the parser recurses
    b"[" * 100_000,
], ids=["not_utf8", "nested_too_deep"])
def test_config_bytes_that_are_not_utf8_json_exit_2_with_one_line(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid config: cannot read config {cfg}:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,literal", [
    ({"model": BASE_MODEL, "task": "evolve",
      "params": {"generator": {"name": "bracket_power", "scale": -1.0}, "horizon": "X"}}, "1e400"),
    ({"model": BASE_MODEL, "task": "symbol-order",
      "params": {"symbol": {"name": "bracket_power"}, "expected_order": 5.0, "tolerance": "X"}},
     "1e400"),
    ({"model": BASE_MODEL, "task": "garding",
      "params": {"symbol": {"name": "bracket_power"}, "order": 2.0, "min_c1": "X"}}, "-1e400"),
    ({"model": {"kind": "torus_laplacian", "N": 8, "Q": 64, "m": "X"}, "task": "model-check"},
     "1e400"),
    ({"model": {"kind": "h_derivative", "N": 8, "Q": 64, "h": "X"}, "task": "model-check"},
     "1e400"),
    ({"model": BASE_MODEL, "task": "evolve",
      "params": {"generator": {"name": "bracket_power", "scale": -1.0}, "horizon": "X"}},
     "1" + "0" * 400),
    ({"model": BASE_MODEL, "task": "evolve",
      "params": {"generator": {"name": "bracket_power", "scale": -1.0}, "steps": "X"}},
     "1" + "0" * 5000),
], ids=["horizon", "tolerance", "min_c1", "m", "h", "integer_horizon", "5000_digit_steps"])
def test_number_literals_beyond_a_double_exit_2_with_one_line(tmp_path, capsys, doc, literal):
    # json reads 1e400 as inf without calling parse_constant
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"X"', literal))
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid config: {literal} is not a finite double\n"
    assert not (tmp_path / "out").exists()


def test_integral_float_model_sizes_run_as_integers(tmp_path):
    # the schema, like JSON Schema, counts 16.0 as an integer
    shipped = Path(__file__).resolve().parent.parent / "configs" / "symbol_order.json"
    assert run(str(shipped), out_dir=str(tmp_path / "int")) == 0
    doc = json.loads(shipped.read_text())
    doc["model"].update(N=16.0, Q=128.0)
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "float")) == 0
    assert ((tmp_path / "float" / "symbol_order.csv").read_bytes()
            == (tmp_path / "int" / "symbol_order.csv").read_bytes())


@pytest.mark.parametrize("key,value", [("rho", 0.5), ("delta", 0.3)])
def test_parametrix_takes_no_type_parameters(tmp_path, capsys, key, value):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "parametrix.json"
    doc = json.loads(shipped.read_text())
    doc["params"][key] = value
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, mode", [("u0_mode", 40), ("u0_mode", 129), ("u0_mode", -17),
                                       ("forcing_mode", 17)])
def test_evolve_mode_outside_the_window_exits_2_before_any_output(tmp_path, capsys, key, mode):
    # the coefficients are -16..16: mode 40 is ~0 in them, and mode 129
    # aliases to mode 1 on the 128-point grid
    shipped = Path(__file__).resolve().parent.parent / "configs" / "evolve.json"
    doc = json.loads(shipped.read_text())
    doc["params"][key] = mode
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: invalid config: params.{key}: mode {mode} is outside -N..N, N = 16\n")
    assert not (tmp_path / "out").exists()


def test_evolve_modes_on_the_window_edge_run(tmp_path, capsys):
    doc = {"model": BASE_MODEL, "task": "evolve",
           "params": {"generator": {"name": "bracket_power", "power": 2.0, "scale": -1.0},
                      "steps": 20, "u0_mode": -8, "forcing_mode": 8}}
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out")) == 0
    # N = 0 holds only mode 0, not the default u0 mode 1
    doc = {"model": {"kind": "torus_derivative", "N": 0, "Q": 16}, "task": "evolve",
           "params": {"generator": doc["params"]["generator"]}}
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "zero")) == 2
    assert capsys.readouterr().err.endswith("params.u0_mode: mode 1 is outside -N..N, N = 0\n")
    assert not (tmp_path / "zero").exists()


def test_model_check_tail_s_sets_the_fitted_decay(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "model_check.json"
    doc = json.loads(shipped.read_text())
    decays = []
    for s in (2.0, 3.0):
        doc["params"] = {"tail_s": s}
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / str(s))) == 0
        summary = json.loads((tmp_path / str(s) / "summary.json").read_text())["summary"]
        decays.append(summary["tail_fitted_decay"])
    # the increments <k>^-s decay like k^-s
    assert decays[0] == pytest.approx(2.0, abs=0.01) and decays[1] == pytest.approx(3.0, abs=0.01)


def test_x_modulated_bracket_amplitude_moves_the_csv(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "l2norm.json"
    doc = json.loads(shipped.read_text())
    assert doc["params"]["symbol"]["name"] == "x_modulated_bracket"
    csv_bytes = {}
    for amplitude in (None, 0.5, 0.25):  # the default is 0.5
        if amplitude is not None:
            doc["params"]["symbol"]["amplitude"] = amplitude
        out = tmp_path / str(amplitude)
        assert run(write_config(tmp_path, doc), out_dir=str(out)) == 0
        csv_bytes[amplitude] = (out / "l2norm.csv").read_bytes()
    assert csv_bytes[0.5] == csv_bytes[None] != csv_bytes[0.25]


def test_l2norm_max_growth_flips_the_verdict(tmp_path):
    # the shipped config's norms grow by ~1.0e-3 from N = 16 to N = 32
    shipped = Path(__file__).resolve().parent.parent / "configs" / "l2norm.json"
    doc = json.loads(shipped.read_text())
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "shipped")) == 0
    doc["params"]["max_growth"] = 1e-4
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "tiny")) == 1
    summary = json.loads((tmp_path / "tiny" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["summary"]["relative_growth_last_two"] > 1e-4


def test_symbol_order_delta_weighs_the_seminorms(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "symbol_order.json"
    assert run(str(shipped), out_dir=str(tmp_path / "default")) == 0
    doc = json.loads(shipped.read_text())
    doc["params"]["delta"] = 0.5
    assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "delta")) == 0
    assert ((tmp_path / "delta" / "symbol_order.csv").read_bytes()
            != (tmp_path / "default" / "symbol_order.csv").read_bytes())


def test_one_entry_parametrix_of_a_multiplier_passes(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "parametrix",
                                  "params": {"symbol": {"name": "bracket_power", "power": 2},
                                             "order": 2, "n_terms": [2]}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0


def test_internal_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(model, params, seed):
        raise RuntimeError("runner defect\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "model-check", broken)
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal: RuntimeError: runner defect")
    assert len(err.splitlines()) == 1


def test_no_scipy_module_loads(tmp_path):
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import importlib, pathlib, pkgutil, sys",
        "import nonharmonic",
        "for mod in pkgutil.iter_modules(nonharmonic.__path__):",
        "    if mod.name != '__main__':  # the entry point runs the CLI on import",
        "        importlib.import_module('nonharmonic.' + mod.name)",
        "import nonharmonic.cli as cli",
        "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script, str(root / "configs" / "l2norm.json"),
                           str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_run_does_not_load_jsonschema(tmp_path):
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        "import nonharmonic.cli as cli",
        "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0",
        "assert 'jsonschema' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script, str(root / "configs" / "funcalc.json"),
                           str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_symbol_order_does_not_load_numpy_ma(tmp_path):
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        "import nonharmonic.cli as cli",
        "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0",
        "assert 'numpy.ma' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script,
                           str(root / "configs" / "symbol_order.json"), str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_transform_check_loads_no_symbol_calculus(tmp_path):
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        "import nonharmonic.cli as cli",
        "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0",
        "assert 'nonharmonic.symbols' not in sys.modules",
        "assert 'nonharmonic.quantize' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script,
                           str(root / "configs" / "transform_check.json"), str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves_through_the_lazy_loader():
    import nonharmonic

    for name in set(nonharmonic.__all__) - {"__version__"}:
        assert nonharmonic.__getattr__(name).__module__.startswith("nonharmonic."), name
    with pytest.raises(AttributeError):
        nonharmonic.__getattr__("fourier_star")


def test_desk_configs_but_funcalc_on_two_lanes_start_no_thread_pool(tmp_path):
    # every Delta window at N = 16 is one row block, so two lanes leave the
    # pool, and the few ms of importing concurrent.futures, to larger
    # windows; funcalc's contour nodes run on the lanes at every size
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import json, pathlib, sys",
        "import nonharmonic.cli as cli",
        "out = pathlib.Path(sys.argv[1])",
        "for cfg in map(pathlib.Path, sys.argv[2:]):",
        "    assert cli.main(['run', '--config', str(cfg), '--out', str(out / cfg.stem)]) == 0",
        "    assert json.loads((out / cfg.stem / 'summary.json').read_text())"
        "['threads']['lanes'] == 2",
        "assert 'concurrent.futures' not in sys.modules",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", NONHARMONIC_THREADS="2")
    configs = sorted(str(path) for path in (root / "configs").glob("*.json")
                     if path.name != "funcalc.json")
    assert len(configs) == 8
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *configs], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_thread_cap_set_before_numpy_loads():
    script = "\n".join([
        "import os, sys",
        "import nonharmonic.cli as cli",
        "assert 'numpy' not in sys.modules",
        "cli.threads.cap_blas()",
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'",
        "assert 'numpy' not in sys.modules",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("NONHARMONIC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_whole_spectrum_collision_in_time_step_exits_3(tmp_path):
    # a constant generator 2/dt makes the Crank-Nicolson system roundoff noise
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "evolve",
                                  "params": {"generator": {"name": "constant", "value": 1000.0},
                                             "scheme": "crank_nicolson", "steps": 50,
                                             "horizon": 0.1, "gate": "off"}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


@pytest.mark.parametrize("symbol", ["x_modulated_bracket", "bracket_power"])
def test_funcalc_spectrum_outside_keyhole_exits_3(tmp_path, symbol):
    # -<xi>^2-like spectra sit on the keyhole's cut, which the contour leaves outside
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "funcalc",
                                  "params": {"symbol": {"name": symbol, "power": 2.0,
                                                        "scale": -1.0},
                                             "functions": ["inverse"]}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


@pytest.mark.parametrize("value, message", [
    (0.01, "inside the keyhole's inner disc"),  # R = 4 max |lambda| = 0.04 <= 0.1
    (0.0, "inside the keyhole's inner disc"),   # the zero symbol: R = 0
    (0.05, "does not wind once"),               # R = 0.2: the winding guard
])
def test_funcalc_spectrum_inside_the_keyhole_disc_exits_3(tmp_path, capsys, value, message):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "funcalc",
                                  "params": {"symbol": {"name": "constant", "value": value},
                                             "functions": ["inverse"]}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical guard tripped: SpectrumProximityError")
    assert message in err and len(err.splitlines()) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_l2norm_gram_that_is_not_positive_definite_exits_3(tmp_path, capsys):
    # at h = 1e-100 the h_derivative coefficient Gram fails its Cholesky factorization
    cfg = write_config(tmp_path, {"model": {"kind": "h_derivative", "N": 16, "Q": 128,
                                            "h": 1e-100},
                                  "task": "l2norm",
                                  "params": {"symbol": {"name": "x_modulated_bracket",
                                                        "power": 0.0}}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical guard tripped: NumericalConsistencyError: "
                          "coefficient Gram at truncation N=8 is not positive definite")
    assert len(err.splitlines()) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_funcalc_computes_one_spectrum_and_one_keyhole_per_node_count(tmp_path, monkeypatch):
    import numpy as np

    from nonharmonic.calculus import Contour

    eigvals, keyhole, inv = np.linalg.eigvals, Contour.default_keyhole, np.linalg.inv
    spectra, keyholes, inversions = [], [], []
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: spectra.append(1) or eigvals(M))
    monkeypatch.setattr(Contour, "default_keyhole", classmethod(
        lambda cls, *a, **kw: keyholes.append(1) or keyhole(*a, **kw)))
    monkeypatch.setattr(np.linalg, "inv", lambda A: inversions.append(1) or inv(A))
    cfg = Path(__file__).resolve().parent.parent / "configs" / "funcalc.json"
    assert len(json.loads(cfg.read_text())["params"]["functions"]) == 3
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    # one inversion per node of the 25-, 50- and 100-per-segment keyholes,
    # shared by the three functions
    assert (len(spectra), len(keyholes), len(inversions)) == (1, 3, 4 * (25 + 50 + 100))


def test_evolve_estimates_the_gronwall_constant_once(tmp_path, monkeypatch):
    import nonharmonic.evolve as evolve

    estimate, calls = evolve.garding_estimate, []
    monkeypatch.setattr(evolve, "garding_estimate",
                        lambda *a, **kw: calls.append(a[1].name) or estimate(*a, **kw))
    cfg = Path(__file__).resolve().parent.parent / "configs" / "evolve.json"
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    # the generator is one symbol at t = 0, T/2 and T, so one estimate, shared by
    # the energy check and the uniqueness probe
    assert calls == ["-K(0)"]


@pytest.mark.parametrize("setting", [None, "1", "2"], ids=["unset", "1", "2"])
def test_shipped_configs_reproduce_csv_digests(tmp_path, setting):
    # the CLI holds the BLAS to one thread, so every lane count writes the
    # recorded bytes when no BLAS variable is set
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import hashlib, json, pathlib, sys",
        "import nonharmonic.cli as cli",
        "configs, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])",
        "digests = {}",
        "for cfg in sorted(configs.glob('*.json')):",
        "    assert cli.main(['run', '--config', str(cfg), '--out', str(out / cfg.stem)]) == 0",
        "    digests[cfg.name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()",
        "                         for p in sorted((out / cfg.stem).glob('*.csv'))}",
        "print(json.dumps(digests))",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("NONHARMONIC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    if setting is not None:
        env["NONHARMONIC_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", script, str(root / "configs"), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((root / "perfbench" / "csv_digests.json").read_text())
    assert json.loads(proc.stdout.splitlines()[-1]) == recorded


def test_csv_determinism_and_roundtrip_digits(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "evolve", "seed": 11,
                                  "params": {"generator": {"name": "bracket_power", "power": 2.0,
                                                           "scale": -1.0},
                                             "scheme": "crank_nicolson", "steps": 50,
                                             "horizon": 0.1, "order": 2.0, "u0_mode": 1}})
    assert run(cfg, out_dir=str(tmp_path / "a")) == 0
    assert run(cfg, out_dir=str(tmp_path / "b")) == 0
    for name in ("evolve.csv", "evolve_residual.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # every float cell round-trips exactly through its 17-digit rendering
    lines = (tmp_path / "a" / "evolve.csv").read_text().splitlines()[1:]
    for line in lines[:5]:
        for cell in line.split(",")[1:]:
            assert format(float(cell), ".17g") == cell


def test_transform_and_compose_tasks(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "transform-check",
                                  "params": {"trials": 5}, "seed": 2})
    assert run(cfg, out_dir=str(tmp_path / "t")) == 0
    cfg2 = write_config(tmp_path, {"model": {"kind": "torus_derivative", "N": 16, "Q": 128},
                                   "task": "compose",
                                   "params": {"a": {"name": "bracket_power", "power": 1.0},
                                              "b": {"name": "exp_mode", "mode": 1},
                                              "terms": [1, 2, 3]}}, name="cfg2.json")
    assert run(cfg2, out_dir=str(tmp_path / "c")) == 0


def test_funcalc_and_l2norm_tasks(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "torus_derivative", "N": 16, "Q": 128},
                                  "task": "funcalc",
                                  "params": {"symbol": {"name": "bracket_power", "power": 2.0},
                                             "functions": ["inverse_sqrt"],
                                             "nodes_per_segment": 60}})
    assert run(cfg, out_dir=str(tmp_path / "f")) == 0
    cfg2 = write_config(tmp_path, {"model": BASE_MODEL, "task": "l2norm",
                                   "params": {"symbol": {"name": "x_modulated_bracket",
                                                         "power": 0.0},
                                              "truncations": [8, 16, 32]}}, name="cfg2.json")
    assert run(cfg2, out_dir=str(tmp_path / "l")) == 0


def test_funcalc_zero_function_is_checked_against_zero(tmp_path):
    # the multiplier oracle is F(a(xi)), not a(xi) to the declared exponent (-1 for zero)
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "funcalc",
                                  "params": {"symbol": {"name": "bracket_power", "power": 1.0},
                                             "functions": ["zero"], "nodes_per_segment": 40}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] and summary["summary"]["zero"]["errors"] == [0.0, 0.0, 0.0]


def test_funcalc_of_an_x_dependent_symbol_reports_the_leading_term(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "funcalc",
                                  "params": {"symbol": {"name": "x_modulated_bracket"},
                                             "functions": ["inverse"],
                                             "nodes_per_segment": 16}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["multiplier_oracle_asserted"] is False
    assert summary["inverse"]["monotone"] is None


def test_lambda_multiplier_without_order_takes_the_models_order(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "torus_laplacian", "N": 8, "Q": 64},
                                  "task": "symbol-order",
                                  "params": {"symbol": {"name": "lambda_multiplier"}}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["expected_order"] == 2.0  # the Laplacian's; the registry default is 1


def test_l2norm_of_a_zero_symbol_grows_by_zero(tmp_path):
    import warnings

    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "l2norm",
                                  "params": {"symbol": {"name": "constant", "value": 0.0}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no 0/0
        assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["summary"]["relative_growth_last_two"] == 0.0


def test_l2norm_growing_from_a_zero_norm_fails_with_nothing_on_stderr(tmp_path, capsys):
    # mode 12 lies outside the window at N = 8, so the first norm is 0
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "l2norm",
                                  "params": {"symbol": {"name": "mode_indicator", "mode": 12},
                                             "truncations": [8, 16]}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == ""
    summary = strict_json((tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["operator_norms"]["8"] == 0.0
    assert summary["relative_growth_last_two"] == "inf"


def test_garding_and_parametrix_tasks(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "torus_derivative", "N": 16, "Q": 128},
                                  "task": "garding", "seed": 5,
                                  "params": {"symbol": {"name": "x_modulated_bracket",
                                                        "power": 2.0},
                                             "order": 2.0, "trials": 100, "min_c1": 0.2}})
    assert run(cfg, out_dir=str(tmp_path / "g")) == 0
    cfg2 = write_config(tmp_path, {"model": {"kind": "torus_derivative", "N": 16, "Q": 128},
                                   "task": "parametrix",
                                   "params": {"symbol": {"name": "x_modulated_bracket",
                                                         "power": 2.0},
                                              "order": 2.0, "n_terms": [0, 1, 2]}},
                        name="cfg2.json")
    assert run(cfg2, out_dir=str(tmp_path / "p")) == 0
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["summary"]["decrease_ratio"] >= 2.0


def test_report_aggregates_and_skips_corrupt(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    out = tmp_path / "out"
    assert run(cfg, out_dir=str(out)) == 0
    assert run(cfg, out_dir=str(out)) == 0
    registry = out / "registry.jsonl"
    with open(registry, "a") as fh:
        fh.write("{this is not json\n")

    from nonharmonic.cli import report
    dest = tmp_path / "report.csv"
    assert report(str(registry), out_path=str(dest)) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "digest,timestamp,version,task,passed"
    assert len(lines) == 3  # two runs, corrupt line skipped
    assert lines[1].split(",")[0] == lines[2].split(",")[0]  # same digest, chronological


def test_report_empty_and_all_corrupt(tmp_path):
    from nonharmonic.cli import report
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    dest = tmp_path / "r.csv"
    assert report(str(empty), out_path=str(dest)) == 0
    assert dest.read_text().splitlines() == ["digest,timestamp,version,task,passed"]

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("nope\nalso nope\n")
    assert report(str(corrupt), out_path=str(dest)) == 2
    assert report(str(tmp_path / "missing.jsonl")) == 2
    assert report(str(empty), out_path=str(tmp_path / "missing" / "r.csv")) == 2


@pytest.mark.parametrize("case", ["registry_is_a_directory", "registry_not_utf8",
                                  "out_in_missing_directory"])
def test_report_on_unusable_paths_exits_2_with_one_line(tmp_path, case):
    registry = tmp_path / "registry.jsonl"
    registry.write_text("")
    out = tmp_path / "report.csv"
    if case == "registry_is_a_directory":
        registry = tmp_path
    elif case == "registry_not_utf8":
        registry.write_bytes(b"\xff\xfe{}\n")
    else:
        out = tmp_path / "missing" / "report.csv"
    proc = subprocess.run([sys.executable, "-m", "nonharmonic", "report", "--registry",
                           str(registry), "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: invalid config:")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["report", "run"])
def test_closed_stdout_exits_2_with_one_line(tmp_path, command, unbuffered):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    out = tmp_path / "out"
    if command == "report":
        assert run(cfg, out_dir=str(out)) == 0
        record = (out / "registry.jsonl").read_text()
        registry = tmp_path / "registry.jsonl"
        registry.write_text(record * 2_000)  # more than one stdout buffer
        args = ["report", "--registry", str(registry)]
    else:
        args = ["run", "--config", cfg, "--out", str(out)]
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nonharmonic", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid config: standard output cannot be written:")
    assert len(proc.stderr.splitlines()) == 1  # no "Exception ignored" at interpreter exit
    if command == "run":  # every artifact was written before the closing line
        assert sorted(p.name for p in out.iterdir()) == ["model_check.csv", "registry.jsonl",
                                                         "summary.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("case", ["report_out", "report_stdout", "run_stdout", "run_csv"])
def test_full_device_exits_2_with_one_line(tmp_path, case):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    registry = tmp_path / "first" / "registry.jsonl"
    assert run(cfg, out_dir=str(registry.parent)) == 0
    out = tmp_path / "out"
    args, what = {
        "report_out": (["report", "--registry", str(registry), "--out", "/dev/full"],
                       "report /dev/full"),
        "report_stdout": (["report", "--registry", str(registry)], "standard output"),
        "run_stdout": (["run", "--config", cfg, "--out", str(out)], "standard output"),
        "run_csv": (["run", "--config", cfg, "--out", str(out)], str(out / "model_check.csv")),
    }[case]
    if case == "run_csv":
        out.mkdir()
        (out / "model_check.csv").symlink_to("/dev/full")
    with open("/dev/full" if case.endswith("stdout") else os.devnull, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "nonharmonic", *args], stdout=stdout,
                              stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: invalid config: {what} cannot be written:")
    assert len(proc.stderr.splitlines()) == 1
    if case.startswith("run"):  # the run's record is written after its CSVs
        assert (out / "summary.json").exists() == (case == "run_stdout")


def test_run_into_unusable_out_dir_exits_2_before_the_model_is_built(tmp_path, capsys,
                                                                    monkeypatch):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    import nonharmonic.model

    def no_build(spec):
        raise AssertionError("model built before the output directory was checked")

    monkeypatch.setattr(nonharmonic.model, "build_model", no_build)
    assert cli.main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: output directory")
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("record", ["summary.json", "registry.jsonl"])
def test_unwritable_run_record_exits_2_before_the_model_is_built(tmp_path, capsys, monkeypatch,
                                                                 record):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    out = tmp_path / "out"
    (out / record).mkdir(parents=True)
    import nonharmonic.model

    def no_build(spec):
        raise AssertionError("model built before the run record was checked")

    monkeypatch.setattr(nonharmonic.model, "build_model", no_build)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: output directory")
    assert record in err and len(err.splitlines()) == 1
    assert [p.name for p in out.iterdir()] == [record]


def test_run_record_check_leaves_no_file_behind(tmp_path):
    # a run that trips a guard after the check adds no summary and keeps the registry
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "parametrix",
                                  "params": {"symbol": {"name": "constant", "value": 0.0},
                                             "order": 2.0}})
    out = tmp_path / "out"
    out.mkdir()
    (out / "registry.jsonl").write_text("kept\n")
    assert run(cfg, out_dir=str(out)) == 3
    assert [p.name for p in out.iterdir()] == ["registry.jsonl"]
    assert (out / "registry.jsonl").read_text() == "kept\n"


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    proc = subprocess.run([sys.executable, "-m", "nonharmonic", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "model-check: pass" in proc.stdout


def test_seed_override_changes_digest(tmp_path):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "transform-check",
                                  "params": {"trials": 3}, "seed": 1})
    assert run(cfg, out_dir=str(tmp_path / "s1")) == 0
    assert run(cfg, out_dir=str(tmp_path / "s2"), seed=2) == 0
    d1 = json.loads((tmp_path / "s1" / "summary.json").read_text())["digest"]
    d2 = json.loads((tmp_path / "s2" / "summary.json").read_text())["digest"]
    assert d1 != d2


def test_shipped_configs_all_pass(tmp_path):
    import pathlib
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for cfg in sorted(cfg_dir.glob("*.json")):
        code = run(str(cfg), out_dir=str(tmp_path / cfg.stem))
        assert code == 0, cfg.name
        strict_json((tmp_path / cfg.stem / "summary.json").read_text())


# values swapped in for every key and item of a shipped config: each JSON type,
# bools, integral and fractional floats, every schema bound and its neighbours,
# empty and short arrays, both oneOf forms, and every enum member
_PROBES = [None, True, False, -1, 0, 1, 2, 3, 4, 5, -1e-300, 0.0, 1e-300, 1.0, 2.0, 2.5,
           4.0, float("nan"), "", "x", [], [0], [1], [1, 2], [1.0, 2.5], [True, 2], ["inverse"],
           [{"name": "power"}], [{}], [7], {}, {"name": "constant"},
           {"name": "constant", "value": True}, {"name": "constant", "mode": 1.0},
           "torus_derivative", "h_derivative", "torus_laplacian", *cli.TASKS,
           "crank_nicolson", "backward_euler", "picard", "dissipative", "literal", "off"]


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_DELETE = object()


def _mutations(config):
    """Copies of config with one key or item deleted or replaced by a probe,
    or with one property added to one object."""
    import copy

    for path in _paths(config):
        for probe in [_DELETE, *_PROBES] if path else []:
            doc = copy.deepcopy(config)
            parent = _node(doc, path[:-1])
            if probe is _DELETE:
                parent.pop(path[-1])
            else:
                parent[path[-1]] = copy.deepcopy(probe)
            yield doc
        if isinstance(_node(config, path), dict):
            doc = copy.deepcopy(config)
            _node(doc, path)["bogus"] = 1
            yield doc


def _schema_keywords(schema):
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    subs += [schema["items"]] if "items" in schema else []
    return set(schema).union(*map(_schema_keywords, subs))


def test_config_validator_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    from nonharmonic.errors import ConfigurationError

    keywords = set().union(*map(_schema_keywords,
                                [cli.CONFIG_SCHEMA, *cli._PARAMS_SCHEMAS.values()]))
    assert keywords == {"type", "properties", "required", "additionalProperties", "enum",
                        "minimum", "exclusiveMinimum", "minItems", "items", "oneOf"}
    # jsonschema.validate picks the latest draft for a schema without $schema
    checkers = {task: jsonschema.Draft202012Validator(schema)
                for task, schema in cli._PARAMS_SCHEMAS.items()}
    top = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)

    def reference(config):
        return top.is_valid(config) and checkers[config["task"]].is_valid(
            config.get("params", {}))

    def ours(config):
        try:
            cli.validate_config(config)
        except ConfigurationError as exc:
            assert "\n" not in str(exc)
            return False
        return True

    root = Path(__file__).resolve().parent.parent / "configs"
    verdicts, disagreements = [], []
    for path in sorted(root.glob("*.json")):
        config = json.loads(path.read_text())
        for doc in [config, *_mutations(config)]:
            want = reference(doc)
            verdicts.append(want)
            if ours(doc) != want:
                disagreements.append((path.name, doc, want))
    assert not disagreements, disagreements[:5]
    assert len(verdicts) > 3000 and 0.1 < sum(verdicts) / len(verdicts) < 0.9

    # a oneOf that both forms match is as invalid as one that neither matches
    both = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    for value in (1, 2.0, 2.5, True, "x", [], {}):
        assert (cli.schema_violation(value, both, "v") is None) == \
            jsonschema.Draft202012Validator(both).is_valid(value), value


#: every library error class but ConfigurationError: each leaves through exit 3
_GUARD_CLASSES = ("NonharmonicError", "ShapeError", "NumericalConsistencyError",
                  "WZViolationError", "WindowExhaustedError", "EllipticityError",
                  "SpectrumProximityError", "BranchCutError", "PicardDivergenceError")


def test_guard_classes_name_every_library_error():
    from nonharmonic import errors

    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.NonharmonicError)}
    assert defined - {"ConfigurationError"} == set(_GUARD_CLASSES)


def _exit_of_raised(exc, tmp_path, capsys, monkeypatch):
    def broken(model, params, seed):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "model-check", broken)
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    code = run(cfg, out_dir=str(tmp_path / "out"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", _GUARD_CLASSES)
def test_library_errors_exit_3_with_one_line(tmp_path, capsys, monkeypatch, name):
    from nonharmonic import errors

    code, err = _exit_of_raised(getattr(errors, name)("guard\ntripped"), tmp_path, capsys,
                                monkeypatch)
    assert code == 3
    assert err.startswith(f"error: numerical guard tripped: {name}: guard")
    assert len(err.splitlines()) == 1


def test_library_error_subclass_defined_elsewhere_exits_3(tmp_path, capsys, monkeypatch):
    from nonharmonic.errors import EllipticityError, NonharmonicError

    class LocalGuardError(NonharmonicError):
        pass

    class LocalEllipticityError(EllipticityError):
        pass

    for cls in (LocalGuardError, LocalEllipticityError):
        code, err = _exit_of_raised(cls("local"), tmp_path, capsys, monkeypatch)
        assert code == 3
        assert err == f"error: numerical guard tripped: {cls.__name__}: local\n"


@pytest.mark.parametrize("config", ["garding.json", "model_check.json"])
def test_negative_seed_flag_exits_2_before_any_output(tmp_path, capsys, config):
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(root / "configs" / config), "--out", str(out),
                     "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: invalid config: --seed: -1 is less than the minimum of 0\n")
    assert not out.exists()  # so no summary.json and no registry.jsonl either


def test_negative_seed_in_config_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check", "seed": -1})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:")
    assert "-1 is less than the minimum of 0" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_registry_version_is_the_package_version(tmp_path):
    import nonharmonic

    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "model-check"})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "registry.jsonl").read_text().splitlines()
    assert [json.loads(line)["version"] for line in lines] == [nonharmonic.__version__]


@pytest.mark.parametrize("raw", ["-1", "many"])
@pytest.mark.parametrize("task, params", [
    ("compose", {"a": {"name": "bracket_power"}, "b": {"name": "exp_mode"}}),
    ("transform-check", {}),  # no difference operator: only the run reads the setting
])
def test_invalid_thread_setting_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, raw,
                                                           task, params):
    monkeypatch.setenv("NONHARMONIC_THREADS", raw)
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": task, "params": params})
    # read before numpy loads by the CLI, and before anything runs by the library
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "cli")]) == 2
    assert run(cfg, out_dir=str(tmp_path / "lib")) == 2
    line = ("error: invalid config: NONHARMONIC_THREADS must be a non-negative integer, "
            f"got '{raw}'")
    assert capsys.readouterr().err.splitlines() == [line, line]
    assert not (tmp_path / "cli").exists() and not (tmp_path / "lib").exists()


def test_run_records_threads_in_summary_and_registry_only(tmp_path, monkeypatch):
    monkeypatch.setenv("NONHARMONIC_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "task": "symbol-order",
                                  "params": {"symbol": {"name": "bracket_power", "power": 1.0}}})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    record = json.loads((tmp_path / "out" / "registry.jsonl").read_text())
    assert summary["threads"] == record["threads"]
    assert summary["threads"]["lanes"] == 2 and summary["threads"]["NONHARMONIC_THREADS"] == "2"
    assert "OPENBLAS_NUM_THREADS" in summary["threads"]
    assert "lanes" not in (tmp_path / "out" / "symbol_order.csv").read_text()


@pytest.mark.parametrize("N", [16, 32])
def test_compose_floor_passes_roundoff_and_fails_a_dropped_term(tmp_path, monkeypatch, N):
    import math

    import numpy as np

    from nonharmonic import quantize
    from nonharmonic.model import ModelSpec, build_model
    from nonharmonic.quantize import composition_floor, composition_oracle
    from nonharmonic.symbols import Symbol, apply_D, apply_Delta, make_symbol

    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "compose.json")
                     .read_text())
    doc["model"].update(N=N, Q=8 * N)
    cfg = write_config(tmp_path, doc)
    assert run(cfg, out_dir=str(tmp_path / "exact")) == 0
    summary = json.loads((tmp_path / "exact" / "summary.json").read_text())["summary"]
    # terms 3 only adds roundoff to an exact two-term expansion; at N = 32 that
    # roundoff exceeds 1e-8 and the floor grows with it
    sups, floors = summary["weighted_sups"], summary["floors"]
    assert sups["3"] > sups["2"] and sups["3"] <= floors["3"]
    assert floors["1"] == floors["2"] == 1e-8 and (floors["3"] > 1e-8) == (N == 32)

    model = build_model(ModelSpec(kind="torus_derivative", N=N, Q=8 * N))
    a, b = make_symbol("bracket_power", power=1.0), make_symbol("exp_mode", mode=1)
    oracle = composition_oracle(model, a, b).table(model, 0)
    weight = model.bracket_val(model.indices) ** (3 - 1.0)
    scale = np.max((np.max(np.abs(oracle), axis=1) * weight)[np.abs(model.indices) <= N / 2])
    assert composition_floor(model, oracle, 1.0, 3) == max(1e-8, 300 * np.finfo(float).eps * scale)

    def without_first_difference(model, a, b, terms, family=None):
        # an expansion that really diverges: the alpha = 1 term is dropped
        _, margin = a.margin_after(model, terms - 1, "composition")
        tab = sum(apply_Delta(model, a, k).table(model, margin)
                  * apply_D(model, b, k).table(model, margin) / math.factorial(k)
                  for k in range(terms) if k != 1)
        return Symbol.from_table(model, tab, margin, order=a.order + b.order)

    monkeypatch.setattr(quantize, "compose_symbols", without_first_difference)
    assert run(cfg, out_dir=str(tmp_path / "mutant")) == 1


def run_configs_at(tmp_path, N, names, threads):
    """Run the named shipped configs at truncation N (Q = 8N) through the CLI
    in a fresh interpreter, with one BLAS thread and NONHARMONIC_THREADS =
    `threads`; returns {config: {csv: sha256}} and the lanes each run recorded."""
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import hashlib, json, pathlib, sys",
        "import nonharmonic.cli as cli",
        "configs, out, N = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]), int(sys.argv[3])",
        "digests, lanes = {}, []",
        "for name in sys.argv[4:]:",
        "    doc = json.loads((configs / name).read_text())",
        "    doc['model'].update(N=N, Q=8 * N)",
        "    cfg, run_dir = out / name, out / pathlib.Path(name).stem",
        "    cfg.write_text(json.dumps(doc))",
        "    assert cli.main(['run', '--config', str(cfg), '--out', str(run_dir)]) == 0, name",
        "    digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()",
        "                     for p in sorted(run_dir.glob('*.csv'))}",
        "    lanes.append(json.loads((run_dir / 'summary.json').read_text())['threads']['lanes'])",
        "print(json.dumps([digests, lanes]))",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", NONHARMONIC_THREADS=str(threads))
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", script, str(root / "configs"), str(out), str(N),
                           *names], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_shipped_configs_pass_at_N32_with_the_same_bytes_on_two_lanes(tmp_path):
    names = sorted(p.name for p in (Path(__file__).resolve().parent.parent / "configs")
                   .glob("*.json"))
    assert len(names) == 9
    one_lane, lanes = run_configs_at(tmp_path, 32, names, threads=1)
    assert lanes == [1] * 9
    # a window at N = 32 is several row blocks, which two lanes share
    delta_configs = ["compose.json", "parametrix.json", "symbol_order.json"]
    two_lanes, lanes = run_configs_at(tmp_path, 32, delta_configs, threads=2)
    assert lanes == [2] * 3
    assert two_lanes == {name: one_lane[name] for name in delta_configs}


def test_funcalc_at_N32_has_the_same_bytes_on_two_lanes(tmp_path):
    # at N = 32 a block is three contour nodes, and two lanes share the blocks
    one_lane, lanes = run_configs_at(tmp_path, 32, ["funcalc.json"], threads=1)
    assert lanes == [1]
    two_lanes, lanes = run_configs_at(tmp_path, 32, ["funcalc.json"], threads=2)
    assert lanes == [2]
    assert two_lanes == one_lane
