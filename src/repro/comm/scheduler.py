"""Cooperative task scheduler for emulating concurrent GPU kernels.

The fused NVSHMEM kernels of the paper run one threadblock group per pulse,
all concurrently, synchronizing only through signals: a block group is woken
by the per-pulse signal that carries its data, and nothing else sits on the
exchange's critical path.  We emulate that concurrency with generator-based
tasks and keep the same shape — a waiting task is *parked*, and whatever
flips its predicate wakes it.

A task yields one of three things when it must wait:

* ``None`` — nothing to wait for; resume next round.
* a predicate (``Callable[[], bool]``) — polled every round until it holds.
* a :class:`Wait` — a predicate plus the hashable *key* it waits on (for an
  acquire-wait: ``(signal name, pe, slot)``).  Polled once; if false, the
  task is parked under the key and not polled again until
  :meth:`CooperativeScheduler.wake` is called with that key (by the signal
  store, or by whoever else can make the predicate true).  The key is the
  "who woke whom" edge of the exchange, made explicit.

Each round polls — in a seeded-random order — only the tasks that are new,
just resumed, woken, or waiting without a key, and resumes those whose
predicates hold.  Randomized scheduling is the point: property tests run the
same exchange under many interleavings and assert bit-identical results —
evidence that the dependency partitioning and signaling protocol (not
scheduling luck) guarantee correctness.  Construction without an explicit
``rng`` self-seeds from :data:`DEFAULT_SEED`, so every run is a reproducible
interleaving without caller boilerplate; pass ``np.random.default_rng(seed)``
to explore others.

When a round resumes nothing, the scheduler invokes ``on_stall``.  A stall
round models *external progress*, not spinning cost: it is the NVSHMEM proxy
delivering one delayed inter-node put, whose signal store then wakes its
waiter.  If ``on_stall`` yields nothing either, every parked task is
re-polled once (so a missed wake-up costs one poll round, counted in
``comm.sched.repolls``, never a hang or a false alarm); only if that round
is also fruitless is a :class:`DeadlockError` raised, naming for each
blocked task the key it is parked on.

Fault injection (see :mod:`repro.chaos`) hooks the scheduler through the
class attribute ``_default_chaos``: when set, a runnable task is only
resumed if the chaos state's ``allow_task`` admits it (a held task stays a
candidate), and stalls consult ``tick_stall`` before ``on_stall`` so
injected delays cannot be mistaken for protocol deadlocks.  A hidden-signal
fault can make a *woken* poll return False with no second wake-up coming,
so after any stall resolved while chaos is installed all parked tasks are
re-polled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Hashable, Iterable, NamedTuple

import numpy as np

from repro.obs.metrics import METRICS

#: Seed used when ``CooperativeScheduler`` is constructed without an rng.
#: Documented so "the default interleaving" is a well-defined, citable
#: schedule: ``np.random.default_rng(DEFAULT_SEED)``.
DEFAULT_SEED = 0x5EED


class DeadlockError(RuntimeError):
    """All tasks blocked and no external progress is possible."""


class Wait(NamedTuple):
    """A keyed wait: park until ``key`` is woken, then re-poll ``predicate``."""

    key: Hashable
    predicate: Callable[[], bool]


@dataclass
class _TaskState:
    name: str
    gen: Generator
    predicate: Callable[[], bool] | None = None
    key: Hashable | None = None
    done: bool = False


class CooperativeScheduler:
    """Round-based cooperative executor: random order, keyed wake-ups."""

    #: Installed by :class:`repro.chaos.inject.ChaosInjector`; consulted at
    #: run() time so schedulers created before or after injection both see it.
    _default_chaos = None

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        max_rounds: int = 100_000,
        describe: Callable[[Hashable], str] | None = None,
    ):
        self.rng = rng if rng is not None else np.random.default_rng(DEFAULT_SEED)
        self.max_rounds = max_rounds
        #: Renders the state behind a wait key (a signal slot's value
        #: against the expected one, say) for deadlock reports.
        self.describe = describe
        self.rounds_used = 0
        #: Predicate evaluations of the last completed run.
        self.polls_used = 0
        self._parked: dict[Hashable, list[_TaskState]] = {}
        self._woken: list[_TaskState] = []
        self._wakeups = 0

    def wake(self, key: Hashable) -> None:
        """Re-poll, next round, every task parked under ``key``.

        A key nobody waits on (or a call outside :meth:`run`) is a no-op.
        """
        waiters = self._parked.pop(key, None)
        if waiters:
            self._woken += waiters
            self._wakeups += len(waiters)

    def _unpark_all(self) -> bool:
        """Move every parked task back among the candidates."""
        if not self._parked:
            return False
        for waiters in self._parked.values():
            self._woken += waiters
        self._parked.clear()
        return True

    def run(
        self,
        tasks: Iterable[tuple[str, Generator]],
        on_stall: Callable[[], bool] | None = None,
    ) -> int:
        """Drive all task generators to completion; returns rounds used."""
        chaos = type(self)._default_chaos
        parked = self._parked
        parked.clear()
        self._woken = []
        self._wakeups = 0
        states = [_TaskState(name=n, gen=g) for n, g in tasks]
        # Prime every task to its first wait point.
        for st in states:
            self._resume(st)
        candidates = [st for st in states if not st.done]
        n_live = len(candidates)
        rounds = polls = repolls = 0
        repolled = False
        while n_live:
            rounds += 1
            if rounds > self.max_rounds:
                raise DeadlockError(self._diagnose(states, "round limit exceeded"))
            if self._woken:
                candidates += self._woken
                self._woken = []
            progressed = False
            held = False
            still: list[_TaskState] = []
            n = len(candidates)
            for k in self.rng.permutation(n).tolist() if n > 1 else range(n):
                st = candidates[k]
                if st.predicate is not None:
                    polls += 1
                    if not st.predicate():
                        if st.key is None:
                            still.append(st)
                        else:
                            parked.setdefault(st.key, []).append(st)
                        continue
                if chaos is not None and not chaos.allow_task(st.name):
                    held = True
                    still.append(st)
                    continue
                self._resume(st)
                progressed = True
                if st.done:
                    n_live -= 1
                else:
                    still.append(st)
            candidates = still
            if progressed:
                repolled = False
                continue
            # Injected holds/hidden signals are progress-in-waiting, not
            # deadlock: drain them before consulting the proxy.
            if (
                held
                or (chaos is not None and chaos.tick_stall())
                or (on_stall is not None and on_stall())
            ):
                if chaos is not None:
                    # A hide fault may have swallowed a wake-up.
                    self._unpark_all()
                repolled = False
                continue
            # Safety net: a wake-up somebody forgot must cost one poll
            # round, not a hang or a false deadlock.
            if not repolled and self._unpark_all():
                repolled = True
                repolls += 1
                continue
            raise DeadlockError(self._diagnose(states, "no runnable task"))
        self.rounds_used = rounds
        self.polls_used = polls
        METRICS.histogram("comm.sched.rounds").observe(rounds)
        METRICS.counter("comm.sched.wakeups").inc(self._wakeups)
        METRICS.counter("comm.sched.repolls").inc(repolls)
        return rounds

    @staticmethod
    def _resume(st: _TaskState) -> None:
        try:
            wait = next(st.gen)
        except StopIteration:
            st.done = True
            st.predicate = st.key = None
            return
        if type(wait) is Wait:
            st.key, st.predicate = wait
        else:
            st.predicate, st.key = wait, None

    def _diagnose(self, states: list[_TaskState], reason: str) -> str:
        blocked = [st for st in states if not st.done]
        msg = f"scheduler deadlock ({reason}); blocked tasks: {[st.name for st in blocked]}"
        describe = self.describe
        parked = [
            f"{st.name} on {st.key!r}" + (f" ({describe(st.key)})" if describe else "")
            for st in blocked
            if st.key is not None
        ]
        if parked:
            msg += "; waiting on: " + "; ".join(parked)
        return msg
