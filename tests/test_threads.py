import os

import pytest

from conftest import use_lanes
from nonharmonic import threads
from nonharmonic.errors import ConfigurationError


@pytest.mark.parametrize("raw, expected", [(None, 0), ("", 0), ("0", 0), ("1", 1), (" 3 ", 3)])
def test_setting_reads_a_non_negative_integer(monkeypatch, raw, expected):
    if raw is None:
        monkeypatch.delenv(threads.VARIABLE, raising=False)
    else:
        monkeypatch.setenv(threads.VARIABLE, raw)
    assert threads.setting() == expected


@pytest.fixture
def no_thread_variables(monkeypatch):
    for var in (threads.VARIABLE, *threads.BLAS_VARIABLES):
        monkeypatch.setenv(var, "")  # so that a variable set by the test is removed after it
        monkeypatch.delenv(var)
    return monkeypatch


@pytest.mark.parametrize("raw", ["-1", "two", "1.5", "auto"])
def test_setting_rejects_anything_else(no_thread_variables, raw):
    no_thread_variables.setenv(threads.VARIABLE, raw)
    with pytest.raises(ConfigurationError, match=threads.VARIABLE):
        threads.setting()
    with pytest.raises(ConfigurationError):
        threads.lanes()
    with pytest.raises(ConfigurationError):
        threads.cap_blas()
    assert all(var not in os.environ for var in threads.BLAS_VARIABLES)  # checked first


def test_lanes_are_the_setting_or_the_usable_cores(no_thread_variables):
    monkeypatch = no_thread_variables
    assert threads.lanes() == threads.usable_cores()
    monkeypatch.setenv(threads.VARIABLE, "0")
    assert threads.lanes() == threads.usable_cores()
    monkeypatch.setenv(threads.VARIABLE, "3")
    assert threads.lanes() == 3
    for var in threads.BLAS_VARIABLES:  # whatever the BLAS variables say
        monkeypatch.setenv(var, "4")
    assert threads.lanes() == 3
    monkeypatch.delenv(threads.VARIABLE)
    assert threads.lanes() == threads.usable_cores()


def test_lanes_default_to_the_cpu_count_without_an_affinity_call(no_thread_variables):
    monkeypatch = no_thread_variables
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert threads.lanes() == (os.cpu_count() or 1)


@pytest.mark.parametrize("raw", [None, "0", "2"])
def test_cap_blas_sets_the_unset_blas_variables_to_one(no_thread_variables, raw):
    monkeypatch = no_thread_variables
    if raw is not None:
        monkeypatch.setenv(threads.VARIABLE, raw)
    threads.cap_blas()
    assert [os.environ[var] for var in threads.BLAS_VARIABLES] == ["1"] * 4
    for var in threads.BLAS_VARIABLES:
        monkeypatch.delenv(var)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # a variable already set is kept
    threads.cap_blas()
    assert [os.environ[var] for var in threads.BLAS_VARIABLES] == ["1", "2", "1", "1"]


def test_record_names_the_lanes_and_every_thread_variable(monkeypatch):
    monkeypatch.setenv(threads.VARIABLE, "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    rec = threads.record()
    assert rec["lanes"] == 2 and rec[threads.VARIABLE] == "2"
    assert rec["OPENBLAS_NUM_THREADS"] == "1" and rec["MKL_NUM_THREADS"] is None
    assert set(rec) == {"lanes", threads.VARIABLE, *threads.BLAS_VARIABLES}


@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_blocks_are_one_if_every_row_fits_else_the_budget_over_the_lanes(monkeypatch, lanes):
    use_lanes(monkeypatch, lanes)

    def steps(n_rows, row_bytes, budget):
        got = threads.blocks(n_rows, row_bytes, budget)
        assert [b.start for b in got] == [0] + [b.stop for b in got[:-1]]  # consecutive
        assert got[-1].stop == n_rows
        return [b.stop - b.start for b in got]

    assert steps(10, 8, 80) == [10]  # every row fits: one block at any lane count
    assert steps(10, 8, 79) == {1: [9, 1], 2: [4, 4, 2], 4: [2, 2, 2, 2, 2]}[lanes]
    assert steps(3, 8, 1) == [1, 1, 1]  # at least one row a block
    assert threads.blocks(0, 8, 80) == []


@pytest.mark.parametrize("lanes, n_blocks, expected", [
    (1, 3, [[0, 1, 2]]),
    (2, 5, [[0, 2, 4], [1, 3]]),
    (4, 3, [[0], [1], [2]]),  # never more shares than blocks
    (2, 0, []),
])
def test_shares_deal_the_blocks_out_round_robin(monkeypatch, lanes, n_blocks, expected):
    use_lanes(monkeypatch, lanes)
    blocks = [slice(i, i + 1) for i in range(n_blocks)]
    assert [[b.start for b in share] for share in threads.shares(blocks)] == expected


@pytest.mark.parametrize("n_items", [0, 1, 3, 10])
@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_side_by_side_uses_every_item_once_in_order(monkeypatch, lanes, n_items):
    import threading

    use_lanes(monkeypatch, lanes)
    caller, ran_on, used = threading.get_ident(), {}, []

    def work(i):
        ran_on[i] = threading.get_ident()
        return i * i

    threads.side_by_side(work, n_items,
                         lambda i, result: used.append((i, result, threading.get_ident())))
    assert used == [(i, i * i, caller) for i in range(n_items)]
    n = min(lanes, n_items)
    assert [ran_on[i] == caller for i in range(n_items)] == [i % n == 0 for i in range(n_items)]


@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_side_by_side_passes_on_a_helper_failure(monkeypatch, lanes):
    import threading

    use_lanes(monkeypatch, lanes)
    failed_on = []

    def work(i):
        if i == 5:  # a helper's item at 2 and 4 lanes
            failed_on.append(threading.current_thread())
            raise ValueError("item 5")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 5"):
        threads.side_by_side(work, 12)
    assert (failed_on[0] is threading.main_thread()) == (lanes == 1)
    assert threading.active_count() == before  # the pool's threads have ended


@pytest.mark.parametrize("lanes", [1, 2])
def test_side_by_side_keeps_the_callers_floating_point_mode(monkeypatch, lanes):
    import numpy as np

    use_lanes(monkeypatch, lanes)

    def work(i):  # item 1 overflows; it runs on a helper at two lanes
        return np.full(3, 1e308) * (10.0 if i == 1 else 1.0)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        threads.side_by_side(work, 2)


@pytest.mark.parametrize("lanes, n_items", [(1, 6), (2, 1), (4, 1), (2, 0)])
def test_side_by_side_on_one_lane_loads_no_thread_pool(lanes, n_items):
    import subprocess
    import sys

    script = "\n".join([
        "import sys",
        "from nonharmonic import threads",
        "used = []",
        f"threads.side_by_side(lambda i: i, {n_items}, lambda i, r: used.append(r))",
        f"assert used == list(range({n_items}))",
        "assert 'concurrent.futures' not in sys.modules",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in (threads.VARIABLE, *threads.BLAS_VARIABLES)}
    env.update({threads.VARIABLE: str(lanes), "OPENBLAS_NUM_THREADS": "1"})
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_threads_starts_a_thread_pool():
    from pathlib import Path

    package = Path(threads.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if any(word in path.read_text()
                          for word in ("concurrent.futures", "ThreadPoolExecutor")))
    assert users == ["threads.py"]
