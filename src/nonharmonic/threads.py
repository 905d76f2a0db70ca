"""The thread setting, read in one place, and the lanes that share work.

A lane is one BLAS thread.  NONHARMONIC_THREADS=k runs k lanes: the lanes
compute the row blocks of a difference operator, or invert the contour
nodes of the functional calculus, side by side (`side_by_side`, the one
place the package starts a thread).  0 or unset means one lane per usable
core.  Any other value that is not a non-negative integer is a
ConfigurationError.  The CLI sets every BLAS variable that is unset to 1
before numpy loads (`cap_blas`), so each lane's BLAS runs one thread and a
run writes the same bytes at every setting.  A library caller that loads
numpy itself should set OPENBLAS_NUM_THREADS=1 first, for the CLI's bytes
and so that the lanes do not each start a BLAS thread per core.

This module loads no numpy.
"""

from __future__ import annotations

import contextvars
import os

from .errors import ConfigurationError

VARIABLE = "NONHARMONIC_THREADS"

#: thread counts of the BLAS and OpenMP runtimes, read once when they load
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def setting() -> int:
    """NONHARMONIC_THREADS as an integer >= 0; 0 when unset or empty."""
    raw = os.environ.get(VARIABLE, "").strip()
    if not raw:
        return 0
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigurationError(f"{VARIABLE} must be a non-negative integer, got {raw!r}")
    return n


def cap_blas() -> None:
    """Check the thread setting, then set each BLAS variable that is unset
    to 1.  Has an effect only before numpy is first imported."""
    setting()
    for var in BLAS_VARIABLES:
        os.environ.setdefault(var, "1")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def lanes() -> int:
    """The number of lanes: the thread setting, or the usable cores if it is 0."""
    return setting() or usable_cores()


def blocks(n_rows: int, row_bytes: int, block_bytes: int) -> list:
    """Consecutive slices of range(n_rows), each at most block_bytes (and at
    least one row) long: the units of work the lanes share."""
    step = max(1, block_bytes // row_bytes)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def side_by_side(work, n_items: int, use=lambda i, result: None) -> None:
    """use(i, work(i)) for i = 0..n_items-1, in order, on the calling thread.
    The work runs on n = min(lanes(), n_items) lanes: the calling thread
    runs every item i with i % n == 0 and a pool of n - 1 threads the
    others, item i + n going to the pool when item i is read, so at most n
    results are alive.  An exception from any item reaches the caller once
    the pool has ended, and a helper item runs in a copy of the caller's
    context, so its np.errstate holds on every lane.  One lane is a plain
    loop, which loads no concurrent.futures.  Delta^alpha's items are its
    lanes, not its blocks: a lane's blocks share its buffers, and two could
    run at once as items.  The contour's items are its node blocks."""
    n = min(lanes(), n_items)
    if n <= 1:
        for i in range(n_items):
            use(i, work(i))
        return
    from concurrent.futures import ThreadPoolExecutor  # a few ms to load: only here

    with ThreadPoolExecutor(n - 1) as pool:
        helped = {i: pool.submit(contextvars.copy_context().run, work, i) for i in range(1, n)}
        for i in range(n_items):
            if i % n == 0:
                use(i, work(i))
                continue
            if i + n < n_items:
                helped[i + n] = pool.submit(contextvars.copy_context().run, work, i + n)
            # popped as it is read, so its result is dropped once used
            use(i, helped.pop(i).result())


def record() -> dict:
    """The lanes and the raw thread variables, for run records."""
    return {"lanes": lanes(), **{var: os.environ.get(var) for var in (VARIABLE, *BLAS_VARIABLES)}}
