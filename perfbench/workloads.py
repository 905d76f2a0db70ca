"""The benchmark's workloads: fixed task lists run in order, one at a time.

Every task calls the public API of the package, checks its result against
the same oracle rule the shipped CLI task applies, and returns the arrays it
computed so that a traced and an untraced pass can be compared bitwise.

A task fails when it raises (any exception: the pass goes on) or misses
its check.  ``desk_cli`` tasks run the shipped configs through the CLI in a
subprocess and fail on a non-zero exit, a missing ``summary.json`` or a CSV
whose SHA-256 differs from the digest recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("desk_cli", "difference_calculus", "spectral_evolution", "twisted_timedep")

#: truncation of the library workloads; every model uses Q = 8N
DEFAULT_N = 32

#: what ``nonharmonic run`` imports on its way to a task, lazily
CLI_IMPORTS = ("jsonschema", "nonharmonic.cli", "nonharmonic.errors", "nonharmonic.model",
               "nonharmonic.symbols", "nonharmonic.transform", "nonharmonic.quantize",
               "nonharmonic.calculus", "nonharmonic.analysis", "nonharmonic.evolve")

DIGESTS_PATH = Path(__file__).resolve().parent / "csv_digests.json"


# ---------------------------------------------------------------------------
# tasks and passes
# ---------------------------------------------------------------------------

@dataclass
class Task:
    """One unit of closed-loop work: ``run()`` returns (ok, outputs, info)."""

    name: str
    run: Callable[[], tuple]


@dataclass
class TaskResult:
    name: str
    ok: bool
    seconds: float
    digest: str = ""
    error: str = ""
    info: dict = field(default_factory=dict)


@dataclass
class PassResult:
    wall_s: float
    tasks: list

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for t in self.tasks:
            h.update(f"{t.name}:{t.digest};".encode())
        return h.hexdigest()


def digest_outputs(outputs) -> str:
    """SHA-256 over the exact bytes of every output array (or scalar)."""
    import numpy as np

    h = hashlib.sha256()
    for item in outputs:
        arr = np.ascontiguousarray(np.asarray(item))
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_task(task: Task) -> TaskResult:
    t0 = time.perf_counter()
    try:
        ok, outputs, info = task.run()
    except Exception as exc:  # a failing task must not end the pass
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return TaskResult(task.name, False, seconds, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return TaskResult(task.name, bool(ok), seconds, digest=digest_outputs(outputs),
                      info=info, error="" if ok else "check failed")


def run_pass(tasks) -> PassResult:
    t0 = time.perf_counter()
    results = [run_task(task) for task in tasks]
    return PassResult(time.perf_counter() - t0, results)


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def _scaled(sym, scale):
    """The CLI's ``scale`` field: multiply a registry symbol by a constant."""
    base = sym.fn
    sym.fn = lambda x, xi, lam, br: scale * base(x, xi, lam, br)
    return sym


def _monotone(values, floors):
    """No increase from one entry to the next, unless the later one is at its floor."""
    return all(v1 <= v0 or v1 <= f1 for v0, v1, f1 in zip(values, values[1:], floors[1:]))


def difference_calculus_tasks(model) -> list:
    import numpy as np

    from nonharmonic.calculus import parametrix
    from nonharmonic.quantize import compose_symbols, composition_oracle, inner_window
    from nonharmonic.symbols import estimate_order, make_symbol

    def symbol_order():
        rep = estimate_order(model, make_symbol("x_modulated_bracket", power=1.0), 1.0, 0.0)
        values = [v for _, v in sorted(rep.values.items())]
        return abs(rep.fitted_order - 1.0) <= 0.05, [rep.fitted_order, values], {}

    def compose():
        a = make_symbol("bracket_power", power=1.0)
        b = make_symbol("exp_mode", mode=1)
        oracle = composition_oracle(model, a, b).table(model, 0)
        mask = inner_window(model, 0.5)
        br = model.bracket_val(model.indices)
        # The shipped compose task floors the weighted sups at 1e-8.  Above
        # N ~ 30 that floor lies below the roundoff of the weighted remainder
        # (<xi>^2 ~ 4e4 on the inner window at N = 64), so a term that only
        # adds roundoff would count as divergence.  The floor here is the
        # larger of 1e-8 and 1e-11 of the weighted oracle: the expansion may
        # stop improving once its remainder is roundoff.
        size = np.max(np.abs(oracle), axis=1)
        sups, floors, outputs = [], [], [oracle]
        for terms in (1, 2, 3):
            approx = compose_symbols(model, a, b, terms).table(model, 0)
            rem = np.max(np.abs(oracle - approx), axis=1)
            weight = br ** (-(a.order + b.order) + terms)
            sups.append(float(np.max((rem * weight)[mask])))
            floors.append(max(1e-8, 1e-11 * float(np.max((size * weight)[mask]))))
            outputs.append(approx)
        return _monotone(sups, floors), outputs, {"weighted_sups": sups, "floors": floors}

    def parametrix_task():
        sym = make_symbol("x_modulated_bracket", power=2.0)
        band = ((np.abs(model.indices) >= (3 * model.N) // 8)
                & (np.abs(model.indices) <= model.N // 2))
        sups, outputs = [], []
        for n in (0, 1, 2):
            res = parametrix(model, sym, 2.0, 1.0, 0.0, n)
            prod = composition_oracle(model, sym, res.symbol).table(model, 0)
            sups.append(float(np.max(np.max(np.abs(prod - 1.0), axis=1)[band])))
            outputs.append(res.symbol.table(model, 0))
        ratio = sups[0] / sups[-1] if sups[-1] > 0 else float("inf")
        return ratio >= 2.0, outputs, {"band_sups": sups, "ratio": ratio}

    return [Task("symbol_order", symbol_order), Task("compose", compose),
            Task("parametrix", parametrix_task)]


def spectral_evolution_tasks(model, seed: int) -> list:
    import numpy as np

    from nonharmonic.analysis import garding_estimate
    from nonharmonic.calculus import (Contour, dunford_riesz, fractional_power_symbol,
                                      make_scalar_function)
    from nonharmonic.evolve import (EvolutionProblem, energy_check, residual, solve_ivp,
                                    uniqueness_probe)
    from nonharmonic.symbols import make_symbol

    def funcalc():
        sym = make_symbol("bracket_power", power=2.0)
        tab0 = sym.table(model, 0)
        ok, outputs, info = True, [], {}
        for fname in ("inverse", "inverse_sqrt"):
            F, s = make_scalar_function(fname)
            oracle = tab0**s
            errs = []
            for n in (25, 50, 100):
                contour = Contour.default_keyhole(model, sym, nodes_per_segment=n)
                got = dunford_riesz(model, sym, F, contour, decay_exponent=s).symbol.table(model, 0)
                errs.append(float(np.max(np.abs(got - oracle) / np.maximum(np.abs(oracle), 1e-300))))
                outputs.append(got)
            mono = all(e1 <= e0 * (1 + 1e-9) or e1 <= 1e-13 for e0, e1 in zip(errs, errs[1:]))
            ok = ok and errs[-1] <= 1e-6 and mono
            info[fname] = errs
        frac = fractional_power_symbol(model, sym, -0.5).table(model, 0)
        cross = float(np.max(np.abs(outputs[-1] - frac) / np.maximum(np.abs(frac), 1e-300)))
        info["inverse_sqrt_cross_check"] = cross
        return ok and cross <= 1e-6, outputs + [frac], info

    def garding():
        rep = garding_estimate(model, make_symbol("x_modulated_bracket", power=2.0), 2.0,
                               trials=200, seed=seed)
        return (rep.verdict and rep.violations == 0, [rep.quad_forms, rep.C1, rep.C2],
                {"C1": rep.C1, "C2": rep.C2})

    def evolve_cn():
        gen = _scaled(make_symbol("bracket_power", power=2.0), -1.0)
        forcing_row = model.u_row(2)
        prob = EvolutionProblem(symbol_factory=lambda t: gen, u0=model.u_row(1), T=0.1,
                                steps=200, scheme="crank_nicolson",
                                forcing=lambda t: forcing_row, order_m=2.0)
        traj = solve_ivp(model, prob)
        erep = energy_check(model, prob, traj, seed=seed)
        urep = uniqueness_probe(model, prob, seed=seed)
        res = residual(model, prob, traj)
        return (erep.passed and urep.passed, [traj.coeffs, erep.margins, urep.ratio, res],
                {"energy_violations": erep.violations})

    return [Task("funcalc", funcalc), Task("garding", garding), Task("evolve_cn", evolve_cn)]


def twisted_timedep_tasks(model, seed: int) -> list:
    import numpy as np

    from nonharmonic.analysis import l2_operator_norm
    from nonharmonic.evolve import EvolutionProblem, energy_check, residual, solve_ivp
    from nonharmonic.quantize import adjoint_oracle, adjoint_symbol, inner_window
    from nonharmonic.symbols import Symbol, make_symbol

    def adjoint():
        a = make_symbol("x_modulated_bracket", power=1.0)
        oracle = adjoint_oracle(model, a).table(model, 0)
        mask = inner_window(model, 0.5)
        scale = float(np.max(np.abs(oracle[mask])))
        outputs, remainders = [oracle], []
        for terms in (1, 2, 3):
            approx = adjoint_symbol(model, a, terms).table(model, 0)
            remainders.append(float(np.max(np.abs(oracle - approx)[mask])) / scale)
            outputs.append(approx)
        lam = adjoint_symbol(model, make_symbol("lambda_multiplier", order=model.order), 3)
        tau = lam.table(model, 0)
        expected = np.conj(model.eigenvalues)[:, None]
        lam_err = float(np.max(np.abs(tau - expected)) / np.max(np.abs(expected)))
        # the x-modulated remainder is a diagnostic only: nothing gates it
        return lam_err <= 1e-11, outputs + [tau], {
            "adjoint_remainder_rel_inner": remainders, "lambda_adjoint_rel_err": lam_err}

    def l2norm():
        truncs = [model.N // 4, model.N // 2, model.N]
        norms = l2_operator_norm(model.spec, make_symbol("x_modulated_bracket", power=0.0),
                                 truncs)
        growth = float(norms[-1] / norms[-2] - 1.0)
        return abs(growth) <= 0.01, [norms], {"growth": growth}

    def timedep_generator(t):
        scale = 1.0 + 5.0 * t
        return Symbol(fn=lambda x, xi, lam, br: -scale * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      * br**2 + 0.0j, order=2.0, name=f"K({t:g})")

    def order0_generator(t):
        return Symbol(fn=lambda x, xi, lam, br: -(1.0 + t) * (1.0 + 0.5 * np.sin(2.0 * np.pi * x))
                      + 0.0j, order=0.0, name=f"K0({t:g})")

    def backward_euler():
        u2 = model.u_row(2)
        prob = EvolutionProblem(symbol_factory=timedep_generator, u0=model.u_row(1), T=0.1,
                                steps=200, scheme="backward_euler",
                                forcing=lambda t: math.cos(t) * u2, order_m=2.0)
        traj = solve_ivp(model, prob)
        erep = energy_check(model, prob, traj, seed=seed)
        res = residual(model, prob, traj)
        return erep.passed, [traj.coeffs, erep.margins, res], {"energy_violations": erep.violations}

    def picard():
        prob = EvolutionProblem(symbol_factory=order0_generator, u0=model.u_row(1), T=1.0,
                                steps=100, scheme="picard", order_m=0.0)
        traj = solve_ivp(model, prob)
        erep = energy_check(model, prob, traj, seed=seed)
        converged = traj.picard_iterations < 50
        return (converged and erep.passed, [traj.coeffs, erep.margins],
                {"picard_iterations": traj.picard_iterations})

    return [Task("adjoint", adjoint), Task("l2norm", l2norm),
            Task("backward_euler", backward_euler), Task("picard", picard)]


def library_model(workload: str, n: int):
    from nonharmonic.model import ModelSpec, build_model

    if workload == "twisted_timedep":
        return build_model(ModelSpec(kind="h_derivative", N=n, Q=8 * n, h=2.0))
    return build_model(ModelSpec(kind="torus_derivative", N=n, Q=8 * n))


def library_tasks(workload: str, model, seed: int) -> list:
    if workload == "difference_calculus":
        return difference_calculus_tasks(model)
    if workload == "spectral_evolution":
        return spectral_evolution_tasks(model, seed)
    return twisted_timedep_tasks(model, seed)


def task_seed(seed: int) -> int:
    """Seed handed to the library for the Garding trials and the uniqueness probe."""
    return seed % (2**32)


# ---------------------------------------------------------------------------
# desk_cli: the shipped configs through the CLI
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_task(config: Path, out_dir: Path, expected: Optional[dict], command: list,
             env: dict, cwd: Path, rss_sink: list) -> Task:
    """Run one config through ``command`` and check what it leaves in out_dir.

    ``expected`` maps each CSV name to its SHA-256; None skips the digest check
    (configs that were rewritten, so no recorded digest applies).
    """

    def run():
        if out_dir.exists():
            shutil.rmtree(out_dir)
        proc = subprocess.Popen(command + ["run", "--config", str(config), "--out", str(out_dir)],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_sink.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            sys.stderr.write(stderr.decode(errors="replace"))
            raise RuntimeError(f"{config.name} exited with code {proc.returncode}")
        if not (out_dir / "summary.json").is_file():
            raise RuntimeError(f"{config.name} wrote no summary.json")
        got = {p.name: sha256_file(p) for p in sorted(out_dir.glob("*.csv"))}
        ok = expected is None or got == expected
        return ok, [json.dumps(got, sort_keys=True)], {"csv_sha256": got}

    return Task(config.stem, run)


def desk_cli_tasks(root: Path, out_root: Path, env: dict, command: list, traced: bool,
                   rss_sink: list, n: Optional[int] = None) -> list:
    """One task per shipped config, in name order.

    ``command`` starts the CLI; a traced command also takes the path of the
    trace file to write, ahead of the CLI's own arguments.  With ``n`` set,
    each config is rewritten to N = n, Q = 8n under out_root and run without
    a digest check.
    """
    digests = json.loads(DIGESTS_PATH.read_text())
    (out_root / "trace").mkdir(parents=True, exist_ok=True)
    tasks = []
    for config in sorted((root / "configs").glob("*.json")):
        expected = digests.get(config.name, {})
        if n is not None:
            doc = json.loads(config.read_text())
            doc["model"].update(N=n, Q=8 * n)
            if doc["task"] == "l2norm":
                doc["params"]["truncations"] = [max(1, n // 2), n, 2 * n]
            config = out_root / "configs" / config.name
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps(doc))
            expected = None
        cmd = command + [str(out_root / "trace" / f"{config.stem}.json")] if traced else command
        tasks.append(cli_task(config, out_root / "desk" / config.stem, expected, cmd, env,
                              root, rss_sink))
    return tasks
