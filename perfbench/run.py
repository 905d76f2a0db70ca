"""Benchmark of the nonharmonic calculus; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement runs in a fresh worker process with BLAS pinned to one
thread, importing the package from the checkout's ``src/``.  Load is a
closed loop from one process: one task at a time, in a fixed order.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several worker set-ups), ``wall_s`` (mean time of one pass over all tasks;
at least three passes, and more while they fit in S seconds) and
``peak_rss_mb``.  Both times are at the host's reference speed
(``hostspeed.py``): each set-up and each task is scaled by a fixed
reference kernel's time measured right beside it, so that the other tenants
of a shared host do not move them; the times as measured are printed too.

``--trace 1`` runs one untraced and one traced pass in fresh workers,
checks their outputs are bitwise equal, runs the N-scaling pass of the
workload's layers and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else,
including the environment record, also goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import REFERENCE_S
from layertrace import LAYERS
from scaling import SIZES as SCALING_SIZES
from workloads import DIGESTS_PATH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: worker set-ups per run; setup_s is their median
SETUP_SAMPLES = 7
#: passes per untraced run, at least; wall_s is their mean
MIN_PASSES = 3
#: a run must end within 180 s
RUN_DEADLINE_S = 170.0

#: layers whose N-scaling the traced run of a workload measures
SCALING = {
    "difference_calculus": ("symbols.apply_Delta", "quantize.compose_symbols",
                            "calculus.parametrix"),
    "spectral_evolution": ("calculus.dunford_riesz", "evolve.solve_ivp"),
}
SCALING_LAYERS = tuple(layer for layers in SCALING.values() for layer in layers)

#: the shipped configs whose CSV digests were recorded
CLI_TASKS = tuple(sorted(Path(name).stem for name in json.loads(DIGESTS_PATH.read_text())))

#: traced span -> the counters reported for it
SPAN_STATS = {
    "model.build_model": ("calls", "self_s"),
    "symbols.apply_Delta": ("calls", "self_s"),
    "symbols.coupling_tensor": ("calls", "self_s", "bytes_computed"),
    "symbols.apply_D": ("calls", "self_s"),
    "symbols.estimate_order": ("self_s",),
    "symbols.apply_Delta_star": ("calls", "self_s"),
    "symbols.Symbol.table": ("calls", "self_s"),
    "symbols.Symbol.values": ("calls", "self_s"),
    "transform.fourier": ("calls", "self_s"),
    "transform.coefficient_gram": ("calls", "self_s"),
    "quantize.galerkin_matrix": ("calls", "self_s"),
    "quantize.symbol_of_matrix": ("calls", "self_s"),
    "quantize.compose_symbols": ("self_s",),
    "quantize.composition_oracle": ("self_s",),
    "quantize.adjoint_symbol": ("self_s",),
    "calculus.dunford_riesz": ("calls", "self_s", "inversions", "lead_bytes_computed",
                               "maxrss_growth_mb"),
    "calculus.Contour.default_keyhole": ("self_s",),
    "calculus.parametrix": ("self_s",),
    "analysis.garding_estimate": ("self_s",),
    "analysis.l2_operator_norm": ("self_s",),
    "evolve.solve_ivp": ("calls", "self_s", "steps"),
    "evolve.energy_check": ("self_s",),
    "evolve.uniqueness_probe": ("self_s",),
    "evolve.residual": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "B", "inversions": "count",
              "lead_bytes_computed": "B", "maxrss_growth_mb": "MB", "steps": "count"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": STAT_UNITS[stat]
             for span, stats in SPAN_STATS.items() for stat in stats}
    units["model.build_model.setup_calls"] = "count"
    units["model.build_model.setup_self_s"] = "s"
    units["evolve.galerkin_builds_per_step"] = "count/step"
    units["evolve.picard_iterations"] = "count"
    units["cli.import_s"] = "s"
    units.update({f"cli.{task}.wall_s": "s" for task in CLI_TASKS})
    units.update({f"{module}.all.self_s": "s" for module in LAYERS})
    units.update({"trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio"})
    for layer in SCALING_LAYERS:
        units[f"{layer}.scaling_exponent"] = "ratio"
        units.update({f"{layer}.scaling_ms_N{n}": "ms" for n in SCALING_SIZES})
        units[f"{layer}.scaling_maxrss_growth_mb"] = "MB"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # the BLAS reads these only when it loads, so they are set before the
    # worker starts; NONHARMONIC_THREADS is applied too late to matter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _kill_group(proc: subprocess.Popen):
    """Kill a worker together with the CLI processes it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(script: str, argv: list, env: dict, deadline: float, ready_line: bool):
    """Run a benchmark script; returns (seconds until ``ready``, last JSON line or None)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / script)] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(timeout, _kill_group, (proc,))
    watchdog.start()
    try:
        ready_s = None
        if ready_line:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            if first.strip() != "ready":
                raise BenchError(f"{script} {' '.join(argv)} did not get ready: {first!r}")
        lines = proc.stdout.read().splitlines()
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
    if code != 0:
        raise BenchError(f"{script} {' '.join(argv)} exited with code {code}")
    return ready_s, (json.loads(lines[-1]) if lines else None)


def worker(args, env, deadline, mode, out_dir, seconds=0.0, min_passes=1):
    argv = ["--workload", args.workload, "--mode", mode,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--min-passes", str(min_passes), "--out", str(out_dir)]
    if args.n is not None:
        argv += ["--n", str(args.n)]
    return spawn("worker.py", argv, env, deadline, ready_line=True)


def setup_samples(args, env, deadline, out_dir, count):
    """``count`` fresh set-ups: (seconds, the reference time measured right after)."""
    samples = []
    for _ in range(count):
        ready_s, rec = worker(args, env, deadline, "setup", out_dir)
        samples.append((ready_s, statistics.median(rec["reference_s"])))
    return samples


def at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s


def task_counts(passes) -> tuple:
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(not t["ok"] for p in passes for t in p["tasks"])
    return attempted, failed


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(args, env, deadline, out_dir) -> dict:
    # set-ups are sampled before and after the passes, to straddle slow spells
    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(args, env, deadline, out_dir, before)
    ready_s, rec = worker(args, env, deadline, "measure", out_dir, args.seconds, MIN_PASSES)
    refs = rec["reference_s"]
    setups += [(ready_s, refs[0])]
    setups += setup_samples(args, env, deadline, out_dir, SETUP_SAMPLES - 1 - before)
    passes = rec["passes"]
    # each task at the reference speed measured on either side of it
    walls, k = [], 0
    for p in passes:
        walls.append(sum(at_reference_speed(t["seconds"], (refs[k + i] + refs[k + i + 1]) / 2)
                         for i, t in enumerate(p["tasks"])))
        k += len(p["tasks"])
    metrics = {"setup_s": statistics.median(at_reference_speed(*s) for s in setups),
               "wall_s": statistics.fmean(walls),
               "peak_rss_mb": rec["peak_rss_mb"]}
    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "wall_s": statistics.fmean(p["wall_s"] for p in passes),
           "reference_s": statistics.median(refs + [r for _, r in setups])}
    checks = {"passes_bitwise_equal": len({p["digest"] for p in passes}) == 1}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "checks": checks, "raw": raw,
            "passes": passes, "pass_walls_at_reference_s": walls, "reference_s": refs,
            "setup_samples_s": setups, "versions": rec["versions"]}


def traced_run(args, env, deadline, out_dir) -> dict:
    base_ready, base = worker(args, env, deadline, "measure", out_dir / "untraced")
    _, traced = worker(args, env, deadline, "trace", out_dir / "traced")
    untraced_pass, traced_pass = base["passes"][0], traced["passes"][0]
    summary = traced["trace"]

    def stat(span, key):
        return float(summary.get(span, {}).get(key, 0.0))

    units = per_layer_units()
    metrics = dict.fromkeys(units, 0.0)
    for span, stats in SPAN_STATS.items():
        for key in stats:
            metrics[f"{span}.{key}"] = stat(span, key)
    # the worker's set-up, traced apart from the pass (library workloads only)
    build = traced["setup_trace"].get("model.build_model", {})
    metrics["model.build_model.setup_calls"] = float(build.get("calls", 0.0))
    metrics["model.build_model.setup_self_s"] = float(build.get("self_s", 0.0))
    steps = stat("evolve.solve_ivp", "steps")
    if steps:
        metrics["evolve.galerkin_builds_per_step"] = stat("evolve.solve_ivp", "galerkin_builds") / steps
    metrics["evolve.picard_iterations"] = stat("evolve.solve_ivp", "picard_iterations")
    self_total = 0.0
    for module in LAYERS:
        module_self = sum(c["self_s"] for span, c in summary.items()
                          if span.startswith(module + "."))
        metrics[f"{module}.all.self_s"] = module_self
        self_total += module_self
    metrics["trace.wall_s"] = traced_pass["wall_s"]
    metrics["trace.unattributed_s"] = traced_pass["wall_s"] - self_total
    metrics["trace.overhead_frac"] = traced_pass["wall_s"] / untraced_pass["wall_s"] - 1.0

    if args.workload == "desk_cli":
        imports = setup_samples(args, env, deadline, out_dir, SETUP_SAMPLES - 1)
        metrics["cli.import_s"] = statistics.median([s for s, _ in imports] + [base_ready])
        for task in untraced_pass["tasks"]:
            metrics[f"cli.{task['name']}.wall_s"] = task["seconds"]

    scaling = []
    if args.n is None:
        for layer in SCALING.get(args.workload, ()):
            _, res = spawn("scaling.py", ["--layer", layer], env, deadline, ready_line=False)
            scaling.append(res)
            secs = res["seconds"]
            sizes = res["sizes"]
            metrics[f"{layer}.scaling_exponent"] = (math.log(secs[2] / secs[1])
                                                    / math.log(sizes[2] / sizes[1]))
            for n, s in zip(sizes, secs):
                metrics[f"{layer}.scaling_ms_N{n}"] = 1e3 * s
            metrics[f"{layer}.scaling_maxrss_growth_mb"] = res["maxrss_growth_mb"]

    checks = {"traced_equals_untraced": untraced_pass["digest"] == traced_pass["digest"]}
    return {"metrics": metrics, "units": units, "checks": checks,
            "passes": [untraced_pass, traced_pass], "trace_summary": summary,
            "setup_trace_summary": traced["setup_trace"],
            "scaling": scaling, "versions": traced["versions"]}


# ---------------------------------------------------------------------------
# environment record and report
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(env: dict, versions: dict) -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), **versions, "git_commit": git_commit(ROOT),
            "src_sha256": source_digest(ROOT),
            "threads": {var: env.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "NONHARMONIC_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, default=None,
                        help="smoke size: truncation N for every model (default: shipped sizes)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    missing = [p for p in ("src/nonharmonic/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a nonharmonic checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = worker_env(ROOT)

    try:
        report = (traced_run if args.trace else timed_run)(args, env, deadline, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = task_counts(report["passes"])
    correct = failed == 0 and all(report["checks"].values())
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  correct=correct, environment=environment(env, report.pop("versions")))
    (out_dir / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(report['passes'])}")
    for name, value in report["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {report['units'][name]}")
    for name, value in report.get("raw", {}).items():
        print(f"  {'as measured: ' + name:48s} {value:14.6g} s")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} ({failed} of {attempted} tasks)")
    for task in report["passes"][-1]["tasks"]:
        status = "ok" if task["ok"] else f"FAILED {task['error']}"
        print(f"    {task['name']:24s} {task['seconds']:9.3f} s  {status}  {json.dumps(task['info'])}")
    for name, ok in report["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"env {json.dumps(report['environment'], sort_keys=True)}")
    metrics = {name: {"value": value, "unit": report["units"][name]}
               for name, value in report["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
