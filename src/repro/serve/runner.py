"""Spec execution: the one body every job (and every blocking CLI) runs.

:func:`execute_spec` turns a :class:`~repro.spec.SimulationSpec`
into a JSON-shaped result dict.  It is deliberately a plain synchronous
function: the CLIs call it directly (blocking path) and the
:class:`~repro.serve.engine.JobEngine` calls it from its worker pool
(service path), so both paths are the same code by construction — the
property the parity tests pin down with positions digests.

Per-job observability: the whole body runs under ``METRICS.scope`` and
``TRACER.scope``, so each job's result carries its own metric snapshot
and span accounting even when many jobs share the process (no executor
spawns threads that could record outside the scope).
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from repro.chaos.campaign import plan_for, run_case
from repro.dd.engine import DDSimulator
from repro.md.forcefield import default_forcefield
from repro.md.reference import ReferenceSimulator
from repro.obs.metrics import MetricsRegistry, METRICS
from repro.obs.tracer import TRACER
from repro.serve.jobs import JobCancelled
from repro.spec import SimulationSpec


def positions_digest(positions) -> str:
    """sha256 of the raw position bytes: the cross-path identity check."""
    return hashlib.sha256(positions.tobytes()).hexdigest()


def execute_spec(
    spec: SimulationSpec,
    *,
    cache=None,
    cancel: threading.Event | None = None,
) -> dict:
    """Run one spec to completion and return its result dict.

    ``cache`` is an optional :class:`~repro.serve.cache.ArtifactCache`
    shared across jobs; without one, every run builds its own artifacts
    (the blocking single-run path).  ``cancel`` is polled between steps;
    when set, :class:`JobCancelled` propagates out.
    """
    job_metrics = MetricsRegistry()
    t0 = time.perf_counter()
    with METRICS.scope(job_metrics), TRACER.scope() as spans:
        result = _BODIES[spec.kind](spec, cache, cancel)
    result["kind"] = spec.kind
    result["job_key"] = spec.job_key()
    result["wall_s"] = time.perf_counter() - t0
    result["metrics"] = job_metrics.snapshot()
    if spec.kind == "profile":
        result["spans"] = _aggregate_spans(spans)
    return result


def _check_cancel(cancel: threading.Event | None) -> None:
    if cancel is not None and cancel.is_set():
        raise JobCancelled()


def _build_sim(spec: SimulationSpec, cache):
    """A DDSimulator for this spec, using the shared cache when given."""
    ff = default_forcefield(cutoff=spec.cutoff)
    if cache is None:
        return DDSimulator.from_spec(spec, ff=ff)
    system = cache.system_template(spec, ff)
    grid = cache.grid_for(spec, system, ff)
    return DDSimulator.from_spec(
        spec, system=system, ff=ff, grid=grid,
        cluster_factory=cache.cluster_factory(spec),
    )


def _run_steps(sim, steps: int, cancel: threading.Event | None) -> None:
    """Step loop with a cancel check between steps."""
    _check_cancel(cancel)
    for _ in range(steps):
        sim.step()
        _check_cancel(cancel)


def _run_simulate(spec: SimulationSpec, cache, cancel) -> dict:
    sim = _build_sim(spec, cache)
    t0 = time.perf_counter()
    with sim:
        _run_steps(sim, spec.steps, cancel)
        wall = time.perf_counter() - t0
        out = {
            "n_atoms": spec.n_atoms,
            "ranks": sim.n_ranks,
            "grid": list(sim.grid.shape),
            "steps": sim.step_count,
            "ms_per_step": wall * 1e3 / max(1, spec.steps),
            "digest": positions_digest(sim.system.positions),
        }
    if cache is not None:
        model = cache.perf_model(spec)
        if model is not None:
            out["perf_model"] = model
    return out


#: Max |dx| (nm) between DD and serial trajectories before verify fails.
VERIFY_TOLERANCE = 1e-10


def _run_verify(spec: SimulationSpec, cache, cancel) -> dict:
    sim = _build_sim(spec, cache)
    serial = sim.system.copy()
    # Same physics as the DD run: every knob the spec and the serial
    # simulator both declare (nstlist, buffer, dt, coulomb, kernel, ...).
    ref = ReferenceSimulator(serial, sim.ff, **spec.knobs_for(ReferenceSimulator))
    _check_cancel(cancel)
    ref.run(spec.steps)
    with sim:
        _run_steps(sim, spec.steps, cancel)
        dx = sim.system.positions - serial.positions
        dx -= np.rint(dx / sim.system.box) * sim.system.box
        dev = float(np.abs(dx).max())
        return {
            "n_atoms": spec.n_atoms,
            "ranks": sim.n_ranks,
            "grid": list(sim.grid.shape),
            "steps": spec.steps,
            "max_deviation_nm": dev,
            "ok": dev <= VERIFY_TOLERANCE,
            "digest": positions_digest(sim.system.positions),
        }


def _run_chaos(spec: SimulationSpec, cache, cancel) -> dict:
    plan = spec.fault_plan or plan_for(spec, spec.seed)
    _check_cancel(cancel)
    case = run_case(spec, plan)
    return {
        "n_atoms": spec.n_atoms,
        "ranks": spec.n_ranks,
        "steps_completed": case.steps_completed,
        "plan_seed": plan.seed,
        "violations": list(case.violations),
        "ok": not case.failed,
    }


#: Job body per spec kind (a profile is a simulation whose spans are kept).
_BODIES = {
    "simulate": _run_simulate,
    "profile": _run_simulate,
    "verify": _run_verify,
    "chaos": _run_chaos,
}


def _aggregate_spans(spans) -> dict:
    """Per-name count/total/mean accounting of a job's recorded spans."""
    agg: dict[str, list[float]] = {}
    for s in spans:
        agg.setdefault(s.name, []).append(s.dur_us)
    return {
        name: {
            "count": len(durs),
            "total_us": sum(durs),
            "mean_us": sum(durs) / len(durs),
        }
        for name, durs in sorted(agg.items(), key=lambda kv: -sum(kv[1]))
    }
