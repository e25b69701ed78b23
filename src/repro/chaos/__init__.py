"""Deterministic fault injection and schedule fuzzing for the halo stack.

The paper's central correctness claim is that the fused halo kernels are
safe under *any* interleaving — ordered only by per-pulse signals and the
depOffset dependency split, never by scheduling luck.  This package is
the machinery that tests that claim adversarially:

* :mod:`repro.faultplan` — seeded, JSON-serializable :class:`FaultPlan`s
  (delayed tasks, hidden signals, dropped proxy ops, straggler ranks,
  reordered notifications).
* :mod:`repro.chaos.inject` — :class:`ChaosInjector` wires a plan into
  the scheduler, NVSHMEM runtime/signals, executors, and any backend
  instance without changing their APIs.
* :mod:`repro.chaos.invariants` — halo coverage, signal monotonicity,
  depOffset ordering, end-of-step bit-identity vs the serial reference.
* :mod:`repro.chaos.campaign` — seeded campaigns (``repro chaos``),
  ``chaos.*`` metrics, failure shrinking, JSON artifacts, replay.
* :mod:`repro.chaos.mutations` — deliberately broken protocol variants
  proving the harness actually detects what it claims to detect.
"""

from repro.chaos.campaign import (
    CampaignResult,
    CaseResult,
    chaos_spec,
    make_artifact,
    plan_for,
    reference_trajectory,
    replay_artifact,
    run_campaign,
    run_case,
    write_artifact,
)
from repro.chaos.inject import ChaosInjector, ChaosState
from repro.chaos.invariants import (
    ChaosViolation,
    check_bit_identity,
    check_halo_coverage,
    check_halo_partition,
)
from repro.chaos.mutations import MUTATIONS, apply_mutation
from repro.faultplan import FAULT_KINDS, Fault, FaultPlan
from repro.chaos.shrink import shrink_plan

__all__ = [
    "FAULT_KINDS",
    "MUTATIONS",
    "CampaignResult",
    "CaseResult",
    "ChaosInjector",
    "ChaosState",
    "ChaosViolation",
    "Fault",
    "FaultPlan",
    "apply_mutation",
    "chaos_spec",
    "check_bit_identity",
    "check_halo_coverage",
    "check_halo_partition",
    "make_artifact",
    "plan_for",
    "reference_trajectory",
    "replay_artifact",
    "run_campaign",
    "run_case",
    "shrink_plan",
    "write_artifact",
]
