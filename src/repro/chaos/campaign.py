"""Campaign driver: seeded fault-injection runs, artifacts, and replay.

A *case* is one short DD simulation under one :class:`FaultPlan` (and
optionally a protocol mutation), with every invariant checked each step
against a fault-free serial-reference trajectory.  A *campaign* runs M
seeded cases for one backend, records ``chaos.*`` metrics through
:mod:`repro.obs`, and shrinks the first failure to a minimal failing
plan, dumped as a JSON artifact that :func:`replay_artifact` re-runs
deterministically (``repro chaos --replay``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.chaos.inject import ChaosInjector
from repro.chaos.invariants import (
    ChaosViolation,
    check_bit_identity,
    check_halo_partition,
)
from repro.chaos.mutations import apply_mutation
from repro.comm.scheduler import DeadlockError
from repro.dd.engine import DDSimulator
from repro.faultplan import FaultPlan
from repro.nvshmem.signals import SignalError
from repro.obs.metrics import METRICS
from repro.spec import SimulationSpec

#: Artifact schema version, bumped on incompatible layout changes.
#: v2 stores the case's full ``SimulationSpec`` under ``"spec"``; v1
#: stored a chaos-only config dict under ``"config"`` and is rejected.
ARTIFACT_VERSION = 2

#: Exceptions a chaos case converts into recorded violations.  Anything
#: else is a harness bug and propagates.
_FAILURES = (ChaosViolation, SignalError, DeadlockError, FloatingPointError, AssertionError)


def chaos_spec(**overrides) -> SimulationSpec:
    """The spec one campaign runs against: the defaults below, overridden.

    The default is the cheapest honest multi-pulse configuration: 1400
    atoms on a 1x1x4 slab grid gives two z-pulses per rank (second
    neighbour forwarding plus the depOffset dependency chain) in well
    under a second per case.  ``seed`` is the *system* seed; plan seeds
    travel inside the fault plans.
    """
    defaults = dict(
        kind="chaos", system="1400", shape=(1, 1, 4), max_pulses=2, steps=3,
        nstlist=2, seed=3, backend="nvshmem",
        pes_per_node=2,  # nvshmem only: 1 = all-IB, n_ranks = all-NVLink
    )
    return SimulationSpec(**{**defaults, **overrides})


def plan_for(spec: SimulationSpec, seed: int) -> FaultPlan:
    """The seeded fault plan sized for ``spec``'s ranks, pulses and backend."""
    return FaultPlan.generate(
        seed,
        n_faults=spec.n_faults,
        n_ranks=spec.n_ranks,
        n_pulses=spec.max_pulses,
        backend=spec.backend,
    )


@dataclass
class CaseResult:
    """Outcome of one fault-injected run."""

    plan: FaultPlan
    violations: list[str] = field(default_factory=list)
    steps_completed: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.violations)


@dataclass
class CampaignResult:
    """Outcome of a seeded campaign for one backend."""

    spec: SimulationSpec
    runs: int = 0
    failures: list[CaseResult] = field(default_factory=list)
    artifact: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# -- building blocks -----------------------------------------------------------


def reference_trajectory(spec: SimulationSpec) -> list[np.ndarray]:
    """Fault-free serial-reference positions after each step.

    The bit-identity oracle: the same spec on the reference backend and
    the serial executor, no chaos.  Every backend/executor combination
    must reproduce it bit for bit (the engine's own tests establish that
    without faults; the chaos campaign asserts it *with* faults).
    """
    out = []
    with DDSimulator.from_spec(
        spec.with_(backend="reference", executor="serial")
    ) as sim:
        for _ in range(spec.steps):
            sim.step()
            out.append(sim.system.positions.copy())
    return out


def run_case(
    spec: SimulationSpec,
    plan: FaultPlan,
    mutation: str | None = None,
    reference: list[np.ndarray] | None = None,
) -> CaseResult:
    """One fault-injected simulation with all invariants checked per step."""
    if reference is None:
        reference = reference_trajectory(spec)
    sim = DDSimulator.from_spec(spec)
    result = CaseResult(plan=plan)
    mut = apply_mutation(mutation) if mutation else nullcontext()
    with mut, sim, ChaosInjector(plan, backend=sim.backend) as inj:
        for k in range(spec.steps):
            try:
                sim.step()
                result.violations.extend(inj.state.drain_violations())
                if not result.violations:
                    check_bit_identity(sim.system.positions, reference[k], step=k)
            except _FAILURES as err:
                result.violations.append(f"step {k}: {type(err).__name__}: {err}")
                result.violations.extend(inj.state.drain_violations())
            if result.violations:
                break
            result.steps_completed += 1
        if sim.cluster is not None and not result.violations:
            try:
                check_halo_partition(sim.cluster.plan)
            except ChaosViolation as err:
                result.violations.append(f"partition: {err}")
    return result


# -- campaigns and artifacts ---------------------------------------------------


def make_artifact(
    spec: SimulationSpec, plan: FaultPlan, mutation: str | None, violations: list[str]
) -> dict:
    """The replayable record of a (shrunk) failing schedule."""
    return {
        "version": ARTIFACT_VERSION,
        "spec": spec.to_dict(),
        "plan": plan.to_dict(),
        "mutation": mutation,
        "violations": violations,
    }


def write_artifact(path: str, artifact: dict) -> str:
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    return path


def replay_artifact(path_or_dict) -> CaseResult:
    """Deterministically re-run a dumped failing schedule."""
    if isinstance(path_or_dict, dict):
        artifact = path_or_dict
    else:
        with open(path_or_dict) as fh:
            artifact = json.load(fh)
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact version {artifact.get('version')} is not replayable: "
            f"this build reads version {ARTIFACT_VERSION}, which stores the "
            f"case's SimulationSpec (version 1 artifacts predate that; re-run "
            f"the campaign to regenerate one)"
        )
    spec = SimulationSpec.from_dict(artifact["spec"])
    plan = FaultPlan.from_dict(artifact["plan"])
    METRICS.counter("chaos.replays").inc()
    return run_case(spec, plan, mutation=artifact.get("mutation"))


def run_campaign(
    spec: SimulationSpec,
    runs: int = 50,
    seed0: int = 0,
    mutation: str | None = None,
    shrink: bool = True,
    log=None,
) -> CampaignResult:
    """Run ``runs`` seeded fault plans; shrink and record the first failure."""
    from repro.chaos.shrink import shrink_plan

    reference = reference_trajectory(spec)
    result = CampaignResult(spec=spec)
    for i in range(runs):
        plan = plan_for(spec, seed0 + i)
        case = run_case(spec, plan, mutation=mutation, reference=reference)
        result.runs += 1
        METRICS.counter("chaos.runs", backend=spec.backend).inc()
        if case.failed:
            METRICS.counter("chaos.failures", backend=spec.backend).inc()
            if log is not None:
                log.warning(
                    "chaos[%s] seed %d FAILED: %s",
                    spec.backend, plan.seed, "; ".join(case.violations),
                )
            result.failures.append(case)
            if result.artifact is None and shrink:
                shrunk = shrink_plan(spec, plan, mutation=mutation, reference=reference)
                confirm = run_case(spec, shrunk, mutation=mutation, reference=reference)
                result.artifact = make_artifact(spec, shrunk, mutation, confirm.violations)
    return result
