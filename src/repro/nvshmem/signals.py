"""Device-visible signal counters with release/acquire bookkeeping.

The paper's fused kernels notify receivers through per-pulse signals: the
sender performs a *release* store (``system_release_store`` over NVLink, or
the signal half of ``put_signal_nbi`` over InfiniBand) after its data writes;
the receiver *acquire-waits* before touching dependent data (Algorithms 4-6).

We track, per signal slot, whether the last store was a release: an
acquire-wait that succeeds on a relaxed store *when data visibility was
required* is precisely the memory-ordering bug class the paper's design must
avoid (it uses ``system_relaxed_store`` only when no prior writes need
flushing).  Strict mode turns such misuse into :class:`SignalError`.

A waiter need not spin: every store — release or relaxed, a direct NVLink
store or the signal half of a proxied ``put_signal_nbi`` — calls the
array's ``wake`` callback with the slot's :meth:`SignalArray.key`, so an
event-driven scheduler can park a waiter on that key and re-poll it only
when the slot it waits on was actually written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs.metrics import METRICS


class SignalError(RuntimeError):
    """Memory-ordering misuse of a signal (acquire on a relaxed store)."""


@dataclass
class SignalArray:
    """Per-PE array of uint64 signal slots (one per pulse, in our usage)."""

    name: str
    n_pes: int
    n_signals: int
    strict: bool = True
    #: Called with the slot's :meth:`key` after every store to it.
    wake: Callable[[tuple], None] | None = None

    #: Installed by :class:`repro.chaos.inject.ChaosInjector`; consulted at
    #: call time so arrays allocated before or after injection both see it.
    #: The hooks let the chaos layer observe every store/wait (monotonicity
    #: and store-before-wait invariants) and hide a set signal for a bounded
    #: number of polls (reordered visibility).
    _default_chaos = None

    def __post_init__(self) -> None:
        if self.n_pes < 1 or self.n_signals < 0:
            raise ValueError("n_pes must be >= 1 and n_signals >= 0")
        self.values = np.zeros((self.n_pes, self.n_signals), dtype=np.uint64)
        self._released = np.zeros((self.n_pes, self.n_signals), dtype=bool)
        # Registry instruments resolved once (the acquire poll is hot).
        self._m_stores = METRICS.counter("nvshmem.signal.stores")
        self._m_polls = METRICS.counter("nvshmem.signal.polls")
        self._m_waits = METRICS.counter("nvshmem.signal.waits_satisfied")

    def reset(self) -> None:
        """Zero all slots (start of a fresh exchange epoch)."""
        self.values[:] = 0
        self._released[:] = False

    def key(self, pe: int, idx: int) -> tuple:
        """The wait key of one slot: what a store to it wakes."""
        return (self.name, pe, idx)

    def describe(self, pe: int, idx: int, value: int) -> str:
        """Slot state against an awaited ``value`` (deadlock reports)."""
        kind = "release" if self._released[pe, idx] else "relaxed"
        return f"value {int(self.values[pe, idx])} ({kind}), expected {value}"

    # -- stores ---------------------------------------------------------------

    def release_store(self, pe: int, idx: int, value: int) -> None:
        """``st.release.sys``: value visible only after prior data writes."""
        chaos = SignalArray._default_chaos
        if chaos is not None:
            chaos.on_store(self, pe, idx, value, released=True)
        self.values[pe, idx] = value
        self._released[pe, idx] = True
        self._m_stores.inc()
        if self.wake is not None:
            self.wake(self.key(pe, idx))

    def relaxed_store(self, pe: int, idx: int, value: int) -> None:
        """``st.relaxed.sys``: no ordering with prior data writes."""
        chaos = SignalArray._default_chaos
        if chaos is not None:
            chaos.on_store(self, pe, idx, value, released=False)
        self.values[pe, idx] = value
        self._released[pe, idx] = False
        self._m_stores.inc()
        if self.wake is not None:
            self.wake(self.key(pe, idx))

    # -- waits ----------------------------------------------------------------

    def is_set(self, pe: int, idx: int, value: int) -> bool:
        """Poll: has the slot reached ``value``? (cooperative acquire-wait)."""
        hit = bool(self.values[pe, idx] == np.uint64(value))
        if hit:
            chaos = SignalArray._default_chaos
            # A hide fault delays *visibility* of an already-landed store
            # (store buffering / NIC completion reordering) for a bounded
            # number of polls; the store itself is untouched.
            if chaos is not None and chaos.hide_signal(self, pe, idx):
                return False
        return hit

    def acquire_check(self, pe: int, idx: int, value: int, needs_data: bool = True) -> bool:
        """Acquire-wait step: poll, verifying release pairing in strict mode.

        ``needs_data=False`` models waits that only order control flow (the
        paper's relaxed-store case: first pulse of the force send, where no
        prior writes need flushing).
        """
        self._m_polls.inc()
        if not self.is_set(pe, idx, value):
            return False
        self._m_waits.inc()
        chaos = SignalArray._default_chaos
        if chaos is not None:
            chaos.on_wait(self, pe, idx, value)
        if self.strict and needs_data and not self._released[pe, idx]:
            raise SignalError(
                f"signal '{self.name}'[{idx}] on PE {pe} satisfied by a "
                f"relaxed store but the waiter requires data visibility: "
                f"sender must use a release store (or put-with-signal)"
            )
        return True
