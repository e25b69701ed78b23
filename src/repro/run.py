"""Spec execution: the one body every functional CLI runs.

:func:`execute_spec` turns a :class:`~repro.spec.SimulationSpec` into a
JSON-shaped result dict.  It is a plain synchronous function that
``repro.cli`` calls directly; a ``profile`` spec's result also carries
the per-name accounting of the spans the run recorded.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.chaos.campaign import plan_for, run_case
from repro.dd.engine import DDSimulator
from repro.md.reference import ReferenceSimulator
from repro.obs.tracer import TRACER
from repro.spec import SimulationSpec


def positions_digest(positions) -> str:
    """sha256 of the raw position bytes: the bit-identity check between runs."""
    return hashlib.sha256(positions.tobytes()).hexdigest()


def execute_spec(spec: SimulationSpec) -> dict:
    """Run one spec to completion and return its result dict."""
    t0 = time.perf_counter()
    with TRACER.scope() as spans:
        result = _BODIES[spec.kind](spec)
    result["kind"] = spec.kind
    result["wall_s"] = time.perf_counter() - t0
    if spec.kind == "profile":
        result["spans"] = _aggregate_spans(spans)
    return result


def _run_simulate(spec: SimulationSpec) -> dict:
    sim = DDSimulator.from_spec(spec)
    t0 = time.perf_counter()
    with sim:
        sim.run(spec.steps)
        wall = time.perf_counter() - t0
        return {
            "n_atoms": spec.n_atoms,
            "ranks": sim.n_ranks,
            "grid": list(sim.grid.shape),
            "steps": sim.step_count,
            "ms_per_step": wall * 1e3 / max(1, spec.steps),
            "digest": positions_digest(sim.system.positions),
        }


#: Max |dx| (nm) between DD and serial trajectories before verify fails.
VERIFY_TOLERANCE = 1e-10


def _run_verify(spec: SimulationSpec) -> dict:
    sim = DDSimulator.from_spec(spec)
    serial = sim.system.copy()
    # Same physics as the DD run: every knob the spec and the serial
    # simulator both declare (nstlist, buffer, dt, kernel_dtype).
    ref = ReferenceSimulator(serial, sim.ff, **spec.knobs_for(ReferenceSimulator))
    ref.run(spec.steps)
    with sim:
        sim.run(spec.steps)
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


def _run_chaos(spec: SimulationSpec) -> dict:
    plan = spec.fault_plan or plan_for(spec, spec.seed)
    case = run_case(spec, plan)
    return {
        "n_atoms": spec.n_atoms,
        "ranks": spec.n_ranks,
        "steps_completed": case.steps_completed,
        "plan_seed": plan.seed,
        "violations": list(case.violations),
        "ok": not case.failed,
    }


#: Run body per spec kind (a profile is a simulation whose spans are kept).
_BODIES = {
    "simulate": _run_simulate,
    "profile": _run_simulate,
    "verify": _run_verify,
    "chaos": _run_chaos,
}


def _aggregate_spans(spans) -> dict:
    """Per-name count/total/mean accounting of a run's recorded spans."""
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
