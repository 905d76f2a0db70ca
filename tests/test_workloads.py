"""The benchmark's library tasks run against the package as it stands.

`perfbench/workloads.py` calls the public API positionally; loading it
here (read-only, as a module from its path) makes a narrowed signature
fail in the suite before it fails in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
