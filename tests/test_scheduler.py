"""Cooperative scheduler: interleaving, predicates, deadlock detection."""

import numpy as np
import pytest

from repro.chaos.inject import ChaosInjector
from repro.comm.scheduler import DEFAULT_SEED, CooperativeScheduler, DeadlockError, Wait
from repro.faultplan import Fault, FaultPlan
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS


class TestBasics:
    def test_runs_simple_tasks(self):
        log = []

        def task(name):
            log.append(name)
            yield None
            log.append(name + "-2")

        sched = CooperativeScheduler()
        sched.run([("a", task("a")), ("b", task("b"))])
        assert sorted(log) == ["a", "a-2", "b", "b-2"]

    def test_predicate_gating(self):
        state = {"ready": False, "consumed": False}

        def producer():
            yield None
            state["ready"] = True

        def consumer():
            yield lambda: state["ready"]
            state["consumed"] = True

        CooperativeScheduler().run([("c", consumer()), ("p", producer())])
        assert state["consumed"]

    def test_deadlock_detected_with_names(self):
        def stuck():
            yield lambda: False

        with pytest.raises(DeadlockError, match="stuck-task"):
            CooperativeScheduler().run([("stuck-task", stuck())])

    def test_on_stall_can_unblock(self):
        state = {"ready": False}

        def waiter():
            yield lambda: state["ready"]

        def unblock():
            state["ready"] = True
            return True

        sched = CooperativeScheduler()
        sched.run([("w", waiter())], on_stall=unblock)

    def test_on_stall_returning_false_deadlocks(self):
        def waiter():
            yield lambda: False

        with pytest.raises(DeadlockError):
            CooperativeScheduler().run([("w", waiter())], on_stall=lambda: False)

    def test_round_limit(self):
        def slow():
            for _ in range(100):
                yield None

        sched = CooperativeScheduler(max_rounds=10)
        with pytest.raises(DeadlockError, match="round limit"):
            sched.run([("s", slow())])


class TestInterleaving:
    def test_chain_completes_under_any_seed(self):
        """A dependency chain of 8 stages completes regardless of the
        scheduling order — no hidden reliance on task registration order."""
        for seed in range(10):
            done = [False] * 8

            def stage(k):
                if k > 0:
                    yield lambda k=k: done[k - 1]
                else:
                    yield None
                done[k] = True

            rng = np.random.default_rng(seed)
            # Register in reverse to be adversarial.
            tasks = [(f"s{k}", stage(k)) for k in reversed(range(8))]
            CooperativeScheduler(rng=rng).run(tasks)
            assert all(done)

    def test_rounds_counted(self):
        def t():
            yield None

        sched = CooperativeScheduler()
        sched.run([("t", t())])
        # Primed to its one yield; the single round resumes it to the end.
        assert sched.rounds_used == 1

    def test_rounds_of_a_keyed_chain(self):
        """Stage k parks on stage k-1's key: one round per stage, whatever
        the order within a round (the waker runs a round before the woken)."""
        sched = CooperativeScheduler()
        done = [False] * 5

        def stage(k):
            if k:
                yield Wait(("stage", k - 1), lambda: done[k - 1])
            else:
                yield None
            done[k] = True
            sched.wake(("stage", k))

        sched.run([(f"s{k}", stage(k)) for k in reversed(range(5))])
        assert all(done)
        assert sched.rounds_used == 5


class TestDefaultSeed:
    @staticmethod
    def _trace(sched):
        """Resume order of 12 independent two-step tasks under ``sched``."""
        log = []

        def task(k):
            log.append((k, 0))
            yield None
            log.append((k, 1))

        sched.run([(f"t{k}", task(k)) for k in range(12)])
        return log

    def test_default_rng_is_deterministic(self):
        """No-rng construction self-seeds from DEFAULT_SEED: two fresh
        schedulers replay the identical interleaving."""
        a = self._trace(CooperativeScheduler())
        b = self._trace(CooperativeScheduler())
        assert a == b
        # And it matches the documented seed explicitly.
        c = self._trace(CooperativeScheduler(rng=np.random.default_rng(DEFAULT_SEED)))
        assert a == c

    def test_default_schedule_actually_shuffles(self):
        """The default interleaving is a real shuffle, not registration order
        (otherwise 'randomized scheduling' silently degrades to FIFO)."""
        log = self._trace(CooperativeScheduler())
        assert [k for k, step in log if step == 1] != list(range(12))

    def test_rounds_metric_observed(self):
        hist = METRICS.histogram("comm.sched.rounds")
        before_count, before_sum = hist.count, hist.sum

        def t():
            yield None

        sched = CooperativeScheduler()
        sched.run([("t", t())])
        assert hist.count == before_count + 1
        assert hist.sum == before_sum + sched.rounds_used


class _Counted:
    """A predicate that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.fn()


def _counter(name):
    return METRICS.counter(name).value


class TestWaitKeys:
    def test_parked_task_is_not_polled_until_woken(self):
        sched = CooperativeScheduler()
        state = {"ready": False}
        pred = _Counted(lambda: state["ready"])
        seen = []

        def waiter():
            yield Wait("k", pred)

        def producer():
            for _ in range(20):
                yield None  # twenty rounds in which the waiter sits parked
            seen.append(pred.calls)
            state["ready"] = True
            sched.wake("k")

        before = _counter("comm.sched.wakeups")
        sched.run([("w", waiter()), ("p", producer())])
        # One poll on arrival (False, so it parks), none for twenty rounds,
        # one more after the wake-up.
        assert seen == [1]
        assert pred.calls == 2
        assert _counter("comm.sched.wakeups") == before + 1

    def test_unkeyed_predicate_is_polled_every_round(self):
        state = {"ready": False}
        pred = _Counted(lambda: state["ready"])

        def waiter():
            yield pred

        def producer():
            for _ in range(5):
                yield None
            state["ready"] = True

        CooperativeScheduler().run([("w", waiter()), ("p", producer())])
        assert pred.calls >= 6

    def test_wake_without_waiters_is_a_noop(self):
        sched = CooperativeScheduler()
        sched.wake("nobody")  # outside run()
        before = _counter("comm.sched.wakeups")

        def task():
            sched.wake("still-nobody")
            yield None

        sched.run([("t", task())])
        assert _counter("comm.sched.wakeups") == before

    def test_forgotten_wake_is_rescued_by_the_repoll(self):
        """Nobody wakes the key: the pre-deadlock re-poll finds the
        predicate true — one extra poll round, not a DeadlockError."""
        state = {"ready": False}
        pred = _Counted(lambda: state["ready"])

        def waiter():
            yield Wait("forgotten", pred)

        def producer():
            yield None
            yield None
            state["ready"] = True  # ... and no wake()

        before = _counter("comm.sched.repolls")
        CooperativeScheduler().run([("w", waiter()), ("p", producer())])
        assert pred.calls == 2
        assert _counter("comm.sched.repolls") == before + 1

    def test_false_keyed_predicate_still_deadlocks(self):
        def stuck():
            yield Wait(("sig", 3, 1), lambda: False)

        before = _counter("comm.sched.repolls")
        with pytest.raises(DeadlockError, match="stuck-task") as err:
            CooperativeScheduler().run([("stuck-task", stuck())])
        assert "('sig', 3, 1)" in str(err.value)
        # A re-poll that rescues nothing is not counted.
        assert _counter("comm.sched.repolls") == before

    def test_deadlock_report_describes_the_key(self):
        sig = SignalArray(name="coordSig", n_pes=2, n_signals=2)
        sig.relaxed_store(1, 0, 3)
        sched = CooperativeScheduler(describe=lambda key: sig.describe(key[1], key[2], 4))

        def stuck():
            yield Wait(sig.key(1, 0), lambda: sig.acquire_check(1, 0, 4))

        with pytest.raises(DeadlockError, match="stuck-task") as err:
            sched.run([("stuck-task", stuck())])
        msg = str(err.value)
        assert "waiting on: stuck-task on ('coordSig', 1, 0)" in msg
        assert "value 3 (relaxed), expected 4" in msg

    def test_round_limit_names_the_key_too(self):
        def spinner():
            while True:
                yield None

        def parked():
            yield Wait("never", lambda: False)

        with pytest.raises(DeadlockError, match="round limit") as err:
            CooperativeScheduler(max_rounds=5).run([("s", spinner()), ("p", parked())])
        assert "p on 'never'" in str(err.value)


class TestKeyedWaitsUnderChaos:
    """Faults that act on a parked task must leave the schedule live."""

    @staticmethod
    def _signal_pair(sched, sig, log):
        def sender():
            yield None
            sig.release_store(1, 0, 1)

        def receiver():
            yield Wait(sig.key(1, 0), lambda: sig.acquire_check(1, 0, 1))
            log.append("received")

        return [("recv[pulse=0]", receiver()), ("send[pulse=0]", sender())]

    @pytest.mark.parametrize("count", [2, 5])
    def test_hidden_signal_swallows_the_wake_but_not_the_task(self, count):
        sched = CooperativeScheduler()
        sig = SignalArray(name="coordSig", n_pes=2, n_signals=1, wake=sched.wake)
        log = []
        plan = FaultPlan(seed=0, faults=[Fault("hide_signal", target="coordSig", count=count)])
        with ChaosInjector(plan):
            sched.run(self._signal_pair(sched, sig, log))
        assert log == ["received"]

    def test_delayed_task_under_keyed_wait(self):
        sched = CooperativeScheduler()
        sig = SignalArray(name="coordSig", n_pes=2, n_signals=1, wake=sched.wake)
        log = []
        plan = FaultPlan(seed=0, faults=[Fault("delay_task", target="recv", count=4)])
        with ChaosInjector(plan):
            sched.run(self._signal_pair(sched, sig, log))
        assert log == ["received"]
        # Held for four rounds from the first one that finds the signal set.
        assert sched.rounds_used >= 5
