"""Fault injection: wiring a :class:`FaultPlan` into the running stack.

The comm/nvshmem stack constructs its scheduler (per backend), runtimes
and signal arrays (per bind) internally, so injection cannot pass a
collaborator down through APIs.  Instead, each hooked class exposes a
``_default_chaos`` class attribute consulted at use time, and executors
consult :data:`repro.par.base.phase_chaos`; :class:`ChaosInjector`
installs one :class:`ChaosState` into all of them for the duration of a
``with`` block and restores the previous values on exit.  No production
API changes, no behavioural difference when nothing is installed.

The injector can additionally wrap one backend *instance* (shadowing its
``exchange_coordinates`` bound method) to NaN-poison halo slots before
each exchange and verify halo coverage after it, behind the backend's
unchanged public signature.
"""

from __future__ import annotations

import time

import repro.par.base as par_base
from repro.chaos.invariants import check_halo_coverage
from repro.faultplan import Fault, FaultPlan
from repro.comm.scheduler import CooperativeScheduler
from repro.nvshmem.runtime import NvshmemRuntime
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS

#: Safety cap on injected phase delays (seconds).  Campaign-generated
#: plans sample 50-500 us; the cap only bounds hand-written plans, and
#: must leave room for a straggler that dominates genuine phase cost on
#: a loaded host (the imbalance metric compares run-averaged per-rank
#: costs, so the injected delay has to move a whole rank's mean).
_MAX_PHASE_DELAY_S = 0.02


class ChaosState:
    """Mutable per-run fault state plus passive invariant observers.

    One instance is shared by every hook for the duration of an injected
    run.  Faults are consumed as they fire (a drop fires once; holds and
    hides count down), and protocol violations observed along the way are
    collected in :attr:`violations` for the harness to drain — raising
    from deep inside a backend would tangle recovery, and some checks
    only conclude at step end anyway.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.violations: list[str] = []
        self._delays: list[tuple[Fault, int]] = []  # (fault, remaining rounds)
        self._hides: list[tuple[Fault, int]] = []  # (fault, remaining polls)
        self._drops: list[tuple[Fault, bool]] = []  # (fault, fired)
        self._perturbs: list[Fault] = []
        for f in plan:
            if f.kind == "delay_task":
                self._delays.append((f, f.count))
            elif f.kind == "hide_signal":
                self._hides.append((f, f.count))
            elif f.kind == "drop_op":
                self._drops.append((f, False))
            elif f.kind == "perturb_phase":
                self._perturbs.append(f)
        self._ops_seen = 0

    # -- bookkeeping -----------------------------------------------------------

    def record(self, kind: str, msg: str) -> None:
        self.violations.append(f"{kind}: {msg}")
        METRICS.counter("chaos.violations", kind=kind).inc()

    def drain_violations(self) -> list[str]:
        out, self.violations = self.violations, []
        return out

    def _fired(self, kind: str) -> None:
        METRICS.counter("chaos.faults_fired", kind=kind).inc()

    # -- scheduler hooks -------------------------------------------------------

    def allow_task(self, name: str) -> bool:
        """May this runnable task resume, or is it being held this round?

        A held task stays among the scheduler's candidates (it is never
        parked), so the hold counts down once per round as before.
        """
        for i, (f, remaining) in enumerate(self._delays):
            if remaining <= 0 or (f.target and f.target not in name):
                continue
            if f.pulse >= 0 and f"pulse={f.pulse}]" not in name:
                continue
            self._delays[i] = (f, remaining - 1)
            self._fired("delay_task")
            return False
        return True

    def tick_stall(self) -> bool:
        """Stalled with injected delays outstanding?  Burn one round of each.

        Keeps liveness: a held task (or a hidden signal nobody happens to
        poll) must not be mistaken for a protocol deadlock, and every
        stalled round brings all countdown faults closer to expiry.  The
        scheduler re-polls every parked task after a stall resolved here:
        a hide fault may have made a woken poll return False, and the
        store that woke it will not come again.
        """
        active = False
        for i, (f, remaining) in enumerate(self._delays):
            if remaining > 0:
                self._delays[i] = (f, remaining - 1)
                active = True
        for i, (f, remaining) in enumerate(self._hides):
            if remaining > 0:
                self._hides[i] = (f, remaining - 1)
                active = True
        return active

    # -- signal hooks ----------------------------------------------------------

    def hide_signal(self, sig: SignalArray, pe: int, idx: int) -> bool:
        """Should this (set) signal stay invisible to this poll?

        The waiter was woken by the store and now re-parks; it is polled
        again after the next stall (see :meth:`tick_stall`).
        """
        for i, (f, remaining) in enumerate(self._hides):
            if remaining <= 0 or (f.target and f.target != sig.name):
                continue
            if f.rank >= 0 and f.rank != pe:
                continue
            if f.pulse >= 0 and f.pulse != idx:
                continue
            self._hides[i] = (f, remaining - 1)
            self._fired("hide_signal")
            return True
        return False

    def on_store(self, sig: SignalArray, pe: int, idx: int, value: int, released: bool) -> None:
        """Observe a signal store: monotonicity + the store ledger."""
        last = getattr(sig, "_chaos_last", None)
        if last is None:
            last = sig._chaos_last = {}
            sig._chaos_stored = set()
        prev = last.get((pe, idx))
        if prev is not None and value <= prev:
            self.record(
                "signal_monotonicity",
                f"signal '{sig.name}'[{idx}] on PE {pe} stored {value} "
                f"after {prev} (epoch values must increase)",
            )
        last[(pe, idx)] = value
        sig._chaos_stored.add((pe, idx, value))

    def on_wait(self, sig: SignalArray, pe: int, idx: int, value: int) -> None:
        """Observe a satisfied acquire-wait: must follow the matching store.

        This is the depOffset-ordering invariant: dependent data may only
        be consumed after its pulse's signal.  A skipped fence trips it
        even on interleavings where the data race resolves benignly.
        """
        stored = getattr(sig, "_chaos_stored", None)
        if stored is None or (pe, idx, value) not in stored:
            self.record(
                "dep_ordering",
                f"wait on '{sig.name}'[{idx}] PE {pe} (value {value}) was "
                f"satisfied before the matching signal store: dependent "
                f"data consumed without its pulse's fence",
            )

    # -- runtime hook ----------------------------------------------------------

    def drop_op(self, op) -> bool:
        """Should the proxy skip (drop-and-requeue) this pending op?"""
        self._ops_seen += 1
        for i, (f, fired) in enumerate(self._drops):
            if fired or f.count != self._ops_seen:
                continue
            self._drops[i] = (f, True)
            self._fired("drop_op")
            return True
        return False

    # -- executor hook ---------------------------------------------------------

    def phase_chaos(self, phase: str, rank: int) -> None:
        """Delay a rank's phase (serial: in its timed window; process: at dispatch)."""
        for f in self._perturbs:
            if f.target and f.target != phase:
                continue
            if f.rank >= 0 and f.rank != rank:
                continue
            self._fired("perturb_phase")
            time.sleep(min(f.delay_us * 1e-6, _MAX_PHASE_DELAY_S))


class ChaosInjector:
    """Install a :class:`ChaosState` into every hook point, scoped by ``with``.

    ``backend`` (optional) is additionally wrapped at the *instance* level:
    halo slots are NaN-poisoned before each coordinate exchange and
    coverage is verified after it.
    """

    def __init__(self, plan: FaultPlan, backend=None, poison: bool = True):
        self.state = ChaosState(plan)
        self.backend = backend
        self.poison = poison
        self._saved: tuple | None = None
        self._wrapped = False

    def __enter__(self) -> "ChaosInjector":
        self._saved = (
            CooperativeScheduler._default_chaos,
            SignalArray._default_chaos,
            NvshmemRuntime._default_chaos,
            par_base.phase_chaos,
        )
        CooperativeScheduler._default_chaos = self.state
        SignalArray._default_chaos = self.state
        NvshmemRuntime._default_chaos = self.state
        par_base.phase_chaos = self.state.phase_chaos
        if self.backend is not None:
            self._wrap_backend()
        return self

    def __exit__(self, *exc) -> bool:
        (
            CooperativeScheduler._default_chaos,
            SignalArray._default_chaos,
            NvshmemRuntime._default_chaos,
            par_base.phase_chaos,
        ) = self._saved
        if self._wrapped:
            del self.backend.__dict__["exchange_coordinates"]
            self._wrapped = False
        return False

    def _wrap_backend(self) -> None:
        orig = self.backend.exchange_coordinates
        poison = self.poison

        def wrapped(cluster):
            if poison:
                cluster.invalidate_halo_coords()
            orig(cluster)
            check_halo_coverage(cluster)

        self.backend.__dict__["exchange_coordinates"] = wrapped
        self._wrapped = True
