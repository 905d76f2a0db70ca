"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py

The file name keeps it out of the package's own test run; the smoke runs
use N = 8 and finish in seconds each.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import scaling  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, n=8):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--n", str(n)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    result = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed5-trace{trace}"
                         / "result.json").read_text())
    return last, result, time.perf_counter() - t0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    last, result, seconds = bench(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert last["attempted"] == sum(len(p["tasks"]) for p in result["passes"]) >= 2
    assert result["checks"]["passes_bitwise_equal"]
    assert seconds < 60


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    last, result, seconds = bench(workload, 1)
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert result["checks"]["traced_equals_untraced"]
    # self times of every traced span plus the unattributed rest make up the pass
    total = sum(metrics[f"{module}.all.self_s"] for module in layertrace.LAYERS)
    assert total + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.unattributed_s"] >= 0
    # the model is built, traced, in the set-up of every library workload
    assert (metrics["model.build_model.setup_calls"] >= 1) == (workload != "desk_cli")
    assert seconds < 90


def test_benchmark_json_names_what_run_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    shipped = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    assert sorted(json.loads(workloads.DIGESTS_PATH.read_text())) == shipped


# -- failure accounting: each failure is injected here only ------------------

def cli_env():
    return {**run.worker_env(ROOT), "PYTHONPATH": str(ROOT / "src")}


def cli_command():
    return [sys.executable, "-m", "nonharmonic"]


def test_config_exiting_nonzero_counts_as_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"kind": "no_such_kind", "N": 4, "Q": 64},
                               "task": "model-check"}))
    good = ROOT / "configs" / "model_check.json"
    digests = json.loads(workloads.DIGESTS_PATH.read_text())
    tasks = [workloads.cli_task(bad, tmp_path / "bad", {}, cli_command(), cli_env(), ROOT, []),
             workloads.cli_task(good, tmp_path / "good", digests[good.name], cli_command(),
                                cli_env(), ROOT, [])]
    result = workloads.run_pass(tasks)
    assert [t.ok for t in result.tasks] == [False, True]
    assert "exited with code 2" in result.tasks[0].error


def test_tampered_digest_counts_as_failed(tmp_path):
    config = ROOT / "configs" / "model_check.json"
    tampered = {"model_check.csv": "0" * 64}
    task = workloads.cli_task(config, tmp_path / "out", tampered, cli_command(), cli_env(),
                              ROOT, [])
    result = workloads.run_task(task)
    assert not result.ok and result.error == "check failed"


def test_guard_error_counts_as_failed_and_the_pass_goes_on():
    from nonharmonic.errors import EllipticityError

    def guard():
        raise EllipticityError("injected")

    tasks = [workloads.Task("guard", guard), workloads.Task("fine", lambda: (True, [1.0], {}))]
    result = workloads.run_pass(tasks)
    assert [t.ok for t in result.tasks] == [False, True]
    assert result.tasks[0].error == "EllipticityError: injected"


# -- tracing hygiene ------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_it():
    import nonharmonic.calculus as calculus
    import nonharmonic.quantize as quantize
    import nonharmonic.symbols as symbols

    original = symbols.apply_Delta
    table, keyhole = symbols.Symbol.__dict__["table"], calculus.Contour.__dict__["default_keyhole"]
    tracer = layertrace.Tracer().install()
    try:
        assert symbols.apply_Delta is not original
        assert quantize.apply_Delta is symbols.apply_Delta is calculus.apply_Delta
        model = workloads.library_model("difference_calculus", 4)
        setup = tracer.take()
        sym = symbols.make_symbol("bracket_power", power=1.0)
        quantize.compose_symbols(model, sym, symbols.make_symbol("exp_mode", mode=1), 2)
    finally:
        tracer.uninstall()
    assert symbols.apply_Delta is original is quantize.apply_Delta is calculus.apply_Delta
    assert symbols.Symbol.__dict__["table"] is table
    assert calculus.Contour.__dict__["default_keyhole"] is keyhole
    assert setup["model.build_model"]["calls"] == 1
    summary = tracer.summary()
    assert "model.build_model" not in summary
    assert summary["symbols.apply_Delta"]["calls"] == 2  # alpha = 0 and 1
    assert summary["symbols.coupling_tensor"]["bytes_computed"] > 0
    assert summary["quantize.compose_symbols"]["calls"] == 1


@pytest.mark.parametrize("layer", sorted(scaling.CASES))
def test_scaling_cases_run(layer):
    res = scaling.measure(layer, sizes=(2, 4, 8))
    assert len(res["seconds"]) == 3 and all(s > 0 for s in res["seconds"])
