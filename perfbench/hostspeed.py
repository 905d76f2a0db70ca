"""The host's current speed, from a fixed reference kernel.

On a shared VM the same pass takes 0.8 s or 1.2 s depending on what other
tenants run, for seconds to minutes at a time, and process CPU time slows
down with it, so neither wall nor CPU time of one run is steady.  A fixed
kernel timed in the same process, right beside a measurement, slows down
with the host.  A time *at reference speed* is the measured time
multiplied by ``REFERENCE_S`` over the kernel's time beside it.

The kernel mixes what the package's time goes to: LAPACK on small complex
matrices, a batched product through a large intermediate, and interpreted
Python.  Its inputs are fixed and nothing of the package runs in it, so no
change to the package can change its time.
"""

from __future__ import annotations

import time

#: the reference's time on a quiet 2-core Xeon VM (one BLAS thread); a
#: fixed constant, so that reference-speed readings keep their seconds
REFERENCE_S = 0.05

_inputs: tuple = ()


def _kernel(a, q, v) -> float:
    import numpy as np

    acc = float(np.abs(np.linalg.inv(a)).sum())
    acc += float(np.abs(np.linalg.eigvals(a[:120, :120])).sum())
    # a batched product through a 26 MB intermediate, as the coupling
    # tensor of Delta^alpha is built
    c = (q[:, None, :] * v.conj()[None]) @ v.T
    acc += float(np.abs(c[:, 0, 0]).sum())
    for i in range(150000):
        acc += (i % 7) * 1e-9
    return acc


def reference_s() -> float:
    """Seconds of one kernel call; the first call in a process also warms up."""
    global _inputs
    if not _inputs:
        import numpy as np

        rng = np.random.default_rng(0)
        _inputs = (rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160)),
                   rng.standard_normal((96, 256)) + 0j,
                   rng.standard_normal((65, 256)) + 1j * rng.standard_normal((65, 256)))
        _kernel(*_inputs)
    t0 = time.perf_counter()
    _kernel(*_inputs)
    return time.perf_counter() - t0
