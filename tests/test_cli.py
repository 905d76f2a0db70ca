import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonharmonic.cli import run


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_MODEL = {"kind": "torus_derivative", "N": 8, "Q": 64}


def test_model_check_passes(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "h_derivative", "N": 8, "Q": 64, "h": 2.0},
                                  "task": "model-check", "seed": 1})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["summary"]["wz_passed"] is True


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


def test_thread_cap_set_before_numpy_loads():
    script = "\n".join([
        "import os, sys",
        "import nonharmonic.cli as cli",
        "assert 'numpy' not in sys.modules",
        "cli._setup_threads()",
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'",
        "assert 'numpy' not in sys.modules",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["NONHARMONIC_THREADS"] = "1"
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


def test_funcalc_computes_one_spectrum_and_one_keyhole_per_node_count(tmp_path, monkeypatch):
    import numpy as np

    from nonharmonic.calculus import Contour

    eigvals, keyhole = np.linalg.eigvals, Contour.default_keyhole
    spectra, keyholes = [], []
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: spectra.append(1) or eigvals(M))
    monkeypatch.setattr(Contour, "default_keyhole", classmethod(
        lambda cls, *a, **kw: keyholes.append(1) or keyhole(*a, **kw)))
    cfg = Path(__file__).resolve().parent.parent / "configs" / "funcalc.json"
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    assert (len(spectra), len(keyholes)) == (1, 3)


def test_shipped_configs_reproduce_csv_digests(tmp_path):
    # byte-for-byte reproduction holds at a fixed BLAS thread count; one
    # thread is the reference setting the digests were recorded at
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
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["NONHARMONIC_THREADS"] = "1"
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
    assert report(str(corrupt), out_path=str(dest)) == 1
    assert report(str(tmp_path / "missing.jsonl")) == 2


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
