"""One benchmark worker: a fresh process that sets up a workload and runs it.

    python3 perfbench/worker.py --workload NAME --mode MODE --out DIR
                                [--seed N] [--seconds S] [--min-passes K] [--n N]

MODE is ``setup`` (set up, print ``ready``, time the host's reference
kernel, exit), ``measure`` (then run at least K untraced passes, and more
while they fit in S seconds, timing the reference kernel before every task
and after the last) or ``trace`` (then run one pass with every
layer function wrapped; the wrapping starts before the model is built, and
the set-up spans are reported apart from the pass).  After ``ready`` the
worker prints one JSON line with what it measured.

Set-up is what a user pays before the first task: interpreter start,
importing the layers, building the model.  For ``desk_cli`` it is importing
``nonharmonic.cli`` and the modules the CLI imports lazily.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import hostspeed
import layertrace
import workloads

#: the checkout whose ``src/`` is measured
ROOT = Path(__file__).resolve().parent.parent
#: reference timings after a set-up; their median scales it
SETUP_REFERENCE_CALLS = 3


def check_source():
    """Refuse to measure anything but the checkout's own ``src/``."""
    import nonharmonic

    src = (ROOT / "src").resolve()
    if src not in Path(nonharmonic.__file__).resolve().parents:
        raise SystemExit(f"nonharmonic was imported from {nonharmonic.__file__}, not from {src}")


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def pass_record(result: workloads.PassResult) -> dict:
    return {"wall_s": result.wall_s, "digest": result.digest,
            "tasks": [asdict(t) for t in result.tasks]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--n", type=int, default=None,
                        help="truncation N (Q = 8N); defaults to the benchmark's sizes")
    args = parser.parse_args(argv)
    traced = args.mode == "trace"
    rss_sink: list = []
    setup_trace: dict = {}
    args.out.mkdir(parents=True, exist_ok=True)

    if args.workload == "desk_cli":
        for name in workloads.CLI_IMPORTS:
            importlib.import_module(name)
        check_source()
        if traced:
            command = [sys.executable, str(Path(__file__).resolve().with_name("cli_child.py"))]
        else:
            command = [sys.executable, "-m", "nonharmonic"]
        tasks = workloads.desk_cli_tasks(ROOT, args.out, dict(os.environ), command, traced,
                                         rss_sink, n=args.n)
        tracer = None
    else:
        # wrap before the model is built and the task closures bind the layer
        # functions; the set-up spans are set aside before the pass
        tracer = layertrace.Tracer().install() if traced else None
        model = workloads.library_model(args.workload, args.n or workloads.DEFAULT_N)
        check_source()
        tasks = workloads.library_tasks(args.workload, model, workloads.task_seed(args.seed))
        if traced:
            setup_trace = tracer.take()
    print("ready", flush=True)
    if args.mode == "setup":
        refs = [hostspeed.reference_s() for _ in range(SETUP_REFERENCE_CALLS)]
        print(json.dumps({"reference_s": refs}), flush=True)
        return 0

    record = {"versions": versions()}
    if traced:
        record["setup_trace"] = setup_trace
        result = workloads.run_pass(tasks)
        passes = [result]
        if tracer is not None:
            tracer.uninstall()
            summary, spans = tracer.summary(), tracer.spans()
        else:
            children = [json.loads(p.read_text()) for p in sorted((args.out / "trace").glob("*.json"))]
            summary = layertrace.merge_summaries(c["summary"] for c in children)
            spans = [c["spans"] for c in children]
        record["trace"] = summary
        (args.out / "spans.json").write_text(json.dumps(spans))
    else:
        # the host's speed is sampled before every task and after the last
        refs = record["reference_s"] = [hostspeed.reference_s()]
        passes = []
        start = time.perf_counter()
        # no pass starts that would, at the mean pace so far, end after S seconds
        while (len(passes) < args.min_passes
               or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds):
            results = []
            for task in tasks:
                results.append(workloads.run_task(task))
                refs.append(hostspeed.reference_s())
            passes.append(workloads.PassResult(sum(r.seconds for r in results), results))
    record["passes"] = [pass_record(p) for p in passes]
    record["peak_rss_mb"] = max(rss_sink) if rss_sink else layertrace.maxrss_mb()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
