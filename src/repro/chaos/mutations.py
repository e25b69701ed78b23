"""Protocol mutations: deliberately broken variants for harness self-tests.

A verification harness that never fails proves nothing.  Each mutation
here weakens the halo protocol in a way the paper identifies as a real
bug class; running a chaos campaign under a mutation MUST produce
detected invariant violations, or the harness is vacuous (the
mutation-testing discipline).  The required self-test: skip one signal
fence and assert the campaign catches it with a replayable shrunk plan.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.nvshmem.runtime import NvshmemRuntime
from repro.nvshmem.signals import SignalArray


def _skip_fence(signal_name: str):
    """Patch ``acquire_check`` to succeed unconditionally for one signal.

    The waiter proceeds as if the fence were satisfied: dependent packing
    and force accumulation run against whatever data happens to be there.
    The wait is still reported to the chaos observer, so the
    depOffset-ordering invariant sees a wait with no preceding store.
    """

    @contextmanager
    def patch():
        orig = SignalArray.acquire_check

        def mutated(self, pe, idx, value, needs_data=True):
            if self.name == signal_name:
                chaos = SignalArray._default_chaos
                if chaos is not None:
                    chaos.on_wait(self, pe, idx, value)
                return True
            return orig(self, pe, idx, value, needs_data)

        SignalArray.acquire_check = mutated
        try:
            yield
        finally:
            SignalArray.acquire_check = orig

    return patch


def _relax_release(signal_name: str):
    """Patch ``release_store`` into a relaxed store for one signal.

    Drops the data-visibility ordering of the sender's signal — the exact
    misuse the strict signal layer exists to catch (``SignalError``).
    """

    @contextmanager
    def patch():
        orig = SignalArray.release_store

        def mutated(self, pe, idx, value):
            if self.name == signal_name:
                self.relaxed_store(pe, idx, value)
                return
            orig(self, pe, idx, value)

        SignalArray.release_store = mutated
        try:
            yield
        finally:
            SignalArray.release_store = orig

    return patch


def _scribble_source():
    """Patch ``NvshmemRuntime.post`` to write the source again once queued.

    A sender that reuses its ``put_signal_nbi`` source before ``quiet``
    breaks NVSHMEM's nbi contract: what lands is whatever the source holds
    when the proxy delivers.  Every element moves by 1e-3 (nm or
    kJ/mol/nm), small enough to keep the run going, large enough for the
    bit-identity oracle.  A runtime that copied the source at post would
    hide it.
    """

    @contextmanager
    def patch():
        orig = NvshmemRuntime.post

        def mutated(self, op, value):
            orig(self, op, value)
            op.src += 1e-3

        NvshmemRuntime.post = mutated
        try:
            yield
        finally:
            NvshmemRuntime.post = orig

    return patch


#: Registry of named mutations; each value is a context-manager factory.
MUTATIONS = {
    "skip-coord-fence": _skip_fence("coordSig"),
    "skip-force-fence": _skip_fence("forceSig"),
    "relaxed-coord-release": _relax_release("coordSig"),
    "scribble-ib-source": _scribble_source(),
}


@contextmanager
def apply_mutation(name: str | None):
    """Apply a registered mutation for the duration of a ``with`` block."""
    if name is None:
        yield
        return
    try:
        factory = MUTATIONS[name]
    except KeyError:
        raise KeyError(f"unknown mutation '{name}', available: {sorted(MUTATIONS)}") from None
    with factory():
        yield
