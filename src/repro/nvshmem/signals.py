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

from repro.obs.metrics import METRICS

#: Slots are ``uint64``: a store outside ``[0, 2**64)`` is refused.
_SLOT_END = 1 << 64


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
        # Plain ints and bools, one list per PE: a slot is stored and
        # polled hundreds of times per exchange, and a NumPy scalar round
        # trip costs more than the comparison it feeds.
        self.values = [[0] * self.n_signals for _ in range(self.n_pes)]
        self._released = [[False] * self.n_signals for _ in range(self.n_pes)]
        # Every slot's wait key (flat, PE-major), so a store allocates none.
        name, slots = self.name, range(self.n_signals)
        self._keys = [(name, pe, idx) for pe in range(self.n_pes) for idx in slots]
        # Registry instruments resolved once, bumped via ``value`` (hot).
        self._m_stores = METRICS.counter("nvshmem.signal.stores")
        self._m_polls = METRICS.counter("nvshmem.signal.polls")
        self._m_waits = METRICS.counter("nvshmem.signal.waits_satisfied")

    def key(self, pe: int, idx: int) -> tuple:
        """The wait key of one slot: what a store to it wakes."""
        return self._keys[pe * self.n_signals + idx]

    def describe(self, pe: int, idx: int, value: int) -> str:
        """Slot state against an awaited ``value`` (deadlock reports)."""
        kind = "release" if self._released[pe][idx] else "relaxed"
        return f"value {self.values[pe][idx]} ({kind}), expected {value}"

    # -- stores ---------------------------------------------------------------

    def release_store(self, pe: int, idx: int, value: int) -> None:
        """``st.release.sys``: value visible only after prior data writes."""
        self._store(pe, idx, value, True)

    def relaxed_store(self, pe: int, idx: int, value: int) -> None:
        """``st.relaxed.sys``: no ordering with prior data writes."""
        self._store(pe, idx, value, False)

    def _store(self, pe: int, idx: int, value: int, released: bool) -> None:
        if not 0 <= value < _SLOT_END:
            raise OverflowError(f"signal value {value} does not fit a uint64 slot")
        chaos = SignalArray._default_chaos
        if chaos is not None:
            chaos.on_store(self, pe, idx, value, released=released)
        self.values[pe][idx] = value
        self._released[pe][idx] = released
        self._m_stores.value += 1
        if self.wake is not None:
            self.wake(self._keys[pe * self.n_signals + idx])

    # -- waits ----------------------------------------------------------------

    def is_set(self, pe: int, idx: int, value: int) -> bool:
        """Poll: has the slot reached ``value``? (cooperative acquire-wait)."""
        hit = self.values[pe][idx] == value
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
        prior writes need flushing).  Reads the slot itself, in
        :meth:`is_set`'s order: a hide fault is consulted only on a hit.
        """
        self._m_polls.value += 1
        if self.values[pe][idx] != value:
            return False
        chaos = SignalArray._default_chaos
        if chaos is not None and chaos.hide_signal(self, pe, idx):
            return False
        self._m_waits.value += 1
        if chaos is not None:
            chaos.on_wait(self, pe, idx, value)
        if self.strict and needs_data and not self._released[pe][idx]:
            raise SignalError(
                f"signal '{self.name}'[{idx}] on PE {pe} satisfied by a "
                f"relaxed store but the waiter requires data visibility: "
                f"sender must use a release store (or put-with-signal)"
            )
        return True
