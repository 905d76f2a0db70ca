"""The benchmark's library tasks run against the package as it stands.

`perfbench/workloads.py` calls the public API positionally; loading it
here (read-only, as a module from its path) makes a narrowed signature
fail in the suite before it fails in the benchmark.  `BENCHMARK.json` is
read the same way, so that a renamed function fails here instead of
silently zeroing the per-layer metrics that name it.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["difference_calculus", "spectral_evolution",
                                      "twisted_timedep"])
def test_benchmark_library_tasks_pass(workloads, workload):
    model = workloads.library_model(workload, 16)
    tasks = workloads.library_tasks(workload, model, workloads.task_seed(5))
    results = [workloads.run_task(task) for task in tasks]
    assert [(r.name, r.ok, r.error) for r in results] == [(t.name, True, "") for t in tasks]


def test_difference_calculus_pass_builds_six_coupling_tensors(workloads, monkeypatch):
    import nonharmonic.symbols as symbols

    build, alphas = symbols.coupling_tensor, []
    monkeypatch.setattr(symbols, "coupling_tensor",
                        lambda *args, **kw: alphas.append(args[2]) or build(*args, **kw))
    model = workloads.library_model("difference_calculus", 16)
    for task in workloads.library_tasks("difference_calculus", model, workloads.task_seed(5)):
        assert workloads.run_task(task).ok, task.name
    # symbol_order, compose and parametrix each build Delta^1 and Delta^2 once: a
    # higher truncation order reuses the differences its symbol cached at the lower one
    assert sorted(alphas) == [1, 1, 1, 2, 2, 2]


def test_twisted_timedep_pass_builds_two_coupling_tensors(workloads, monkeypatch):
    import nonharmonic.symbols as symbols

    build, alphas = symbols.coupling_tensor, []
    monkeypatch.setattr(symbols, "coupling_tensor",
                        lambda *args, **kw: alphas.append(args[2]) or build(*args, **kw))
    model = workloads.library_model("twisted_timedep", 16)
    for task in workloads.library_tasks("twisted_timedep", model, workloads.task_seed(5)):
        assert workloads.run_task(task).ok, task.name
    # the x-modulated adjoint builds Delta~^1 and Delta~^2; the lambda_multiplier
    # adjoint builds none: D^(1) and D^(2) of conj(lambda) are identically zero
    assert sorted(alphas) == [1, 2]


def test_benchmark_metrics_name_package_functions():
    # <module>.<name>.calls and .self_s count a traced package function; the
    # <module>.all aggregates sum over a whole module
    names = [m["name"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    unresolved, checked = [], 0
    for name in names:
        module, *path, stat = name.split(".")
        if stat not in ("calls", "self_s") or path == ["all"]:
            continue
        checked += 1
        obj = importlib.import_module(f"nonharmonic.{module}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(name)
    assert checked >= 20 and unresolved == []
