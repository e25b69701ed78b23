"""Shrinking: reduce a failing fault plan to a minimal failing schedule.

Greedy delta-debugging over the fault list (try dropping each fault;
keep any reduction that still fails) followed by numeric shrinking
(halve hold/hide counts and delays while the failure persists).  Every
candidate is verified by a full deterministic re-run, so the shrunk plan
in the artifact is failing *by construction*, not by extrapolation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faultplan import Fault, FaultPlan
from repro.obs.metrics import METRICS


def shrink_plan(spec, plan: FaultPlan, mutation: str | None = None, reference=None) -> FaultPlan:
    """Return a minimal plan (same seed) whose run still fails."""
    from repro.chaos.campaign import run_case

    def fails(faults: list[Fault]) -> bool:
        METRICS.counter("chaos.shrink_attempts").inc()
        return run_case(
            spec, FaultPlan(seed=plan.seed, faults=faults), mutation=mutation,
            reference=reference,
        ).failed

    current = list(plan.faults)
    # Pass 1: drop whole faults (first-found, restart — greedy ddmin with
    # subset size 1, sufficient at our plan sizes of <= ~8 faults).
    shrunk = True
    while shrunk and current:
        shrunk = False
        for i in range(len(current)):
            cand = current[:i] + current[i + 1 :]
            if fails(cand):
                current = cand
                shrunk = True
                break
    # Pass 2: shrink numeric magnitudes of the survivors.
    for i, f in enumerate(current):
        for fld, floor in (("count", 1), ("delay_us", 0.0)):
            while getattr(current[i], fld) > floor:
                half = type(getattr(current[i], fld))(getattr(current[i], fld) // 2) \
                    if fld == "count" else getattr(current[i], fld) / 2
                if half < floor or half == getattr(current[i], fld):
                    break
                cand = list(current)
                cand[i] = replace(current[i], **{fld: half})
                if not fails(cand):
                    break
                current = cand
    return FaultPlan(seed=plan.seed, faults=current)
