"""Chaos harness: fault plans, injectors, invariants, campaigns, mutations.

The harness itself is under test here, including the mutation self-tests
that prove it is not vacuous: a deliberately weakened protocol (skipped
signal fence, relaxed release) must produce detected invariant violations
and a replayable shrunk fault plan.
"""

import json

import numpy as np
import pytest

import repro.cli as cli
import repro.par.base as par_base
from repro.chaos import (
    MUTATIONS,
    ChaosInjector,
    ChaosState,
    ChaosViolation,
    Fault,
    FaultPlan,
    check_bit_identity,
    check_halo_coverage,
    check_halo_partition,
    chaos_spec,
    plan_for,
    replay_artifact,
    run_campaign,
    run_case,
    reference_trajectory,
    write_artifact,
)
from repro.chaos.inject import _replay_deferred
from repro.comm.scheduler import CooperativeScheduler
from repro.dd import DDGrid
from repro.dd.decomposition import DomainDecomposition
from repro.dd.exchange import build_cluster, reference_coordinate_exchange
from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS


@pytest.fixture(scope="module")
def cfg():
    return chaos_spec()


@pytest.fixture(scope="module")
def reference(cfg):
    return reference_trajectory(cfg)


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate(42, n_ranks=4, n_pulses=2)
        b = FaultPlan.generate(42, n_ranks=4, n_pulses=2)
        assert a.faults == b.faults
        c = FaultPlan.generate(43, n_ranks=4, n_pulses=2)
        assert a.faults != c.faults

    def test_json_roundtrip(self):
        plan = FaultPlan.generate(7, n_ranks=8, n_pulses=3)
        back = FaultPlan.from_json(plan.to_json())
        assert back.seed == plan.seed
        assert back.faults == plan.faults

    def test_generic_backends_get_generic_kinds(self):
        plan = FaultPlan.generate(5, n_faults=16, backend="mpi")
        assert {f.kind for f in plan} <= {"perturb_phase", "defer_notify"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="set-on-fire")


class TestInjectors:
    def test_delay_task_holds_without_deadlock(self):
        log = []

        def task(name):
            yield lambda: True
            log.append(name)

        plan = FaultPlan(seed=0, faults=[Fault("delay_task", target="a", count=3)])
        with ChaosInjector(plan):
            sched = CooperativeScheduler()
            sched.run([("a", task("a")), ("b", task("b"))])
        # "b" finished while "a" was held; the hold expired, no deadlock.
        assert log == ["b", "a"]
        assert sched.rounds_used >= 4

    def test_all_tasks_held_still_terminates(self):
        done = []

        def task():
            yield lambda: True
            done.append(True)

        plan = FaultPlan(seed=0, faults=[Fault("delay_task", target="t", count=5)])
        with ChaosInjector(plan):
            CooperativeScheduler().run([("t", task())])
        assert done == [True]

    def test_hide_signal_delays_visibility(self):
        sig = SignalArray(name="coordSig", n_pes=2, n_signals=2)
        plan = FaultPlan(
            seed=0, faults=[Fault("hide_signal", target="coordSig", count=2)]
        )
        with ChaosInjector(plan):
            sig.release_store(0, 0, 1)
            assert not sig.is_set(0, 0, 1)  # hidden (1st poll)
            assert not sig.is_set(0, 0, 1)  # hidden (2nd poll)
            assert sig.is_set(0, 0, 1)  # hide exhausted
        assert sig.is_set(0, 0, 1)

    def test_drop_op_requeues_then_delivers(self):
        rt = NvshmemRuntime(NodeTopology(n_pes=2, pes_per_node=1), delay_delivery=True)
        buf = rt.symmetric_alloc("b", (4, 3), np.float64)
        sig = rt.signal_array("s", 1)
        data = np.ones((2, 3))
        plan = FaultPlan(seed=0, faults=[Fault("drop_op", count=1)])
        with ChaosInjector(plan):
            rt.put_signal_nbi(buf, 1, 0, data, sig, 0, 7, source_pe=0)
            assert rt.n_pending == 1
            # First pass drops-and-requeues (counts as transport progress).
            assert rt.progress(n_ops=1) == 1
            assert rt.n_pending == 1
            assert not sig.is_set(1, 0, 7)
            rt.quiet()  # loops until genuinely drained
        assert rt.n_pending == 0
        assert sig.is_set(1, 0, 7)
        np.testing.assert_array_equal(buf.on(1)[:2], data)

    def test_perturb_phase_fires_on_matching_rank(self):
        plan = FaultPlan(
            seed=0,
            faults=[Fault("perturb_phase", target="forces_local", rank=1, delay_us=10)],
        )
        state = ChaosState(plan)
        before = METRICS.counter("chaos.faults_fired", kind="perturb_phase").value
        state.phase_chaos("forces_local", 0)  # wrong rank
        state.phase_chaos("pairs", 1)  # wrong phase
        state.phase_chaos("forces_local", 1)  # match
        after = METRICS.counter("chaos.faults_fired", kind="perturb_phase").value
        assert after == before + 1

    @pytest.mark.parametrize("seed", [0, 1, 17, 999])
    def test_defer_notify_preserves_per_rank_order(self, seed):
        delivered = [(r, p) for p in range(3) for r in range(4)]
        out = []
        _replay_deferred(delivered, lambda r, p: out.append((r, p)), seed)
        assert sorted(out) == sorted(delivered)
        for rank in range(4):
            pulses = [p for r, p in out if r == rank]
            assert pulses == sorted(pulses)

    def test_injector_restores_hooks(self):
        assert CooperativeScheduler._default_chaos is None
        assert SignalArray._default_chaos is None
        assert NvshmemRuntime._default_chaos is None
        assert par_base.phase_chaos is None
        with ChaosInjector(FaultPlan(seed=0)) as inj:
            assert CooperativeScheduler._default_chaos is inj.state
            assert SignalArray._default_chaos is inj.state
            assert NvshmemRuntime._default_chaos is inj.state
            assert par_base.phase_chaos == inj.state.phase_chaos
        assert CooperativeScheduler._default_chaos is None
        assert SignalArray._default_chaos is None
        assert NvshmemRuntime._default_chaos is None
        assert par_base.phase_chaos is None


class TestInvariants:
    def _cluster(self, system, ff, fresh=False):
        dd = DomainDecomposition(
            grid=DDGrid((1, 1, 4)), box=system.box, r_comm=ff.cutoff + 0.12,
            max_pulses=2,
        )
        return build_cluster(system.copy(), dd, fresh_halo=fresh)

    def test_partition_holds_on_real_plan(self, tiny_system, ff):
        cluster = self._cluster(tiny_system, ff)
        assert cluster.plan.n_pulses == 2
        check_halo_partition(cluster.plan)

    def test_coverage_catches_undelivered_rows(self, tiny_system, ff):
        cluster = self._cluster(tiny_system, ff, fresh=False)
        with pytest.raises(ChaosViolation, match="not delivered"):
            check_halo_coverage(cluster)
        reference_coordinate_exchange(cluster)
        check_halo_coverage(cluster)  # all rows delivered now

    def test_bit_identity_catches_one_ulp(self):
        a = np.full((5, 3), 1.0)
        b = a.copy()
        check_bit_identity(a, b, step=0)
        b[2, 1] = np.nextafter(b[2, 1], 2.0)
        with pytest.raises(ChaosViolation, match="diverged"):
            check_bit_identity(a, b, step=0)

    def test_signal_monotonicity_observer(self):
        state = ChaosState(FaultPlan(seed=0))
        sig = SignalArray(name="coordSig", n_pes=1, n_signals=1)
        state.on_store(sig, 0, 0, 5, released=True)
        state.on_store(sig, 0, 0, 6, released=True)
        assert not state.violations
        state.on_store(sig, 0, 0, 6, released=True)
        assert any("monotonicity" in v for v in state.violations)

    def test_wait_before_store_observer(self):
        state = ChaosState(FaultPlan(seed=0))
        sig = SignalArray(name="forceSig", n_pes=1, n_signals=1)
        state.on_wait(sig, 0, 0, 3)
        assert any("dep_ordering" in v for v in state.violations)
        state.drain_violations()
        state.on_store(sig, 0, 0, 4, released=True)
        state.on_wait(sig, 0, 0, 4)
        assert not state.violations


class TestCampaign:
    def test_no_faults_passes(self, cfg, reference):
        res = run_case(cfg, FaultPlan(seed=0), reference=reference)
        assert not res.failed
        assert res.steps_completed == cfg.steps

    def test_seeded_campaign_passes_nvshmem(self, cfg, reference):
        before = METRICS.counter("chaos.runs", backend="nvshmem").value
        for seed in range(4):
            plan = plan_for(cfg, seed)
            res = run_case(cfg, plan, reference=reference)
            assert not res.failed, (plan.describe(), res.violations)
        # metrics flow through run_campaign, exercised separately
        res = run_campaign(cfg, runs=2, seed0=100)
        assert not res.failed
        assert METRICS.counter("chaos.runs", backend="nvshmem").value == before + 2

    @pytest.mark.parametrize("backend", ["reference", "mpi", "threadmpi"])
    def test_generic_backends_pass(self, backend):
        res = run_campaign(chaos_spec(backend=backend), runs=2)
        assert not res.failed

    def test_artifact_stores_the_spec_and_rejects_v1(self, cfg):
        from repro.chaos import make_artifact

        artifact = make_artifact(cfg, FaultPlan(seed=0), None, [])
        assert artifact["version"] == 2
        assert artifact["spec"] == cfg.to_dict()
        assert not replay_artifact(artifact).failed
        with pytest.raises(ValueError, match="version 1 is not replayable"):
            replay_artifact({**artifact, "version": 1})

    def test_all_ib_topology_passes(self, reference):
        res = run_campaign(chaos_spec(pes_per_node=1), runs=2, seed0=5)
        assert not res.failed


class TestDlbCampaign:
    """The protocol invariants (exactly-once halo partition, depOffset
    ordering, bit identity against the reference backend) must survive
    DLB boundary moves: a slab system under ``dlb="pairs"`` resizes its
    decomposition mid-campaign, forcing re-planned pulses."""

    CFG = dict(system="slab-1400", dlb="pairs", steps=7)

    def test_config_actually_resizes(self):
        """Guard against vacuity: this campaign config must move
        boundaries within the campaign's step budget."""
        from repro.dd import DDSimulator

        cfg = chaos_spec(**self.CFG)
        sim = DDSimulator.from_spec(cfg)
        sim.run(cfg.steps)
        assert sim.dlb_adjustments >= 1
        assert not sim.dd.is_uniform

    @pytest.mark.parametrize("backend", ["reference", "mpi", "threadmpi", "nvshmem"])
    def test_seeded_slab_campaign(self, backend):
        res = run_campaign(chaos_spec(backend=backend, **self.CFG), runs=3)
        assert res.runs == 3
        assert not res.failed, [f.violations for f in res.failures]

    def test_measured_mode_rejected(self):
        """Wall-clock DLB would steer the run and its bit-identity oracle
        into different decompositions; the spec must refuse it."""
        with pytest.raises(ValueError, match="measured"):
            chaos_spec(dlb="measured")


class TestMutationSelfTest:
    """The harness must catch a deliberately weakened protocol."""

    def test_skipped_coord_fence_is_detected_and_shrunk(self, tmp_path):
        cfg = chaos_spec(pes_per_node=1)  # all-IB: every put rides the proxy
        res = run_campaign(cfg, runs=2, mutation="skip-coord-fence")
        assert res.failed
        assert res.artifact is not None
        # Shrunk to the minimal failing schedule: the mutation alone fails,
        # so every injected fault shrinks away.
        assert len(res.artifact["plan"]["faults"]) == 0
        assert res.artifact["violations"]
        path = write_artifact(str(tmp_path / "fail.json"), res.artifact)
        replayed = replay_artifact(path)
        assert replayed.failed
        joined = " ".join(replayed.violations)
        assert "dep_ordering" in joined or "not delivered" in joined

    def test_skipped_force_fence_is_detected(self):
        cfg = chaos_spec(pes_per_node=1)
        res = run_campaign(cfg, runs=1, mutation="skip-force-fence", shrink=False)
        assert res.failed

    def test_relaxed_release_is_detected(self):
        res = run_campaign(
            chaos_spec(), runs=1, mutation="relaxed-coord-release", shrink=False
        )
        assert res.failed
        assert "SignalError" in " ".join(res.failures[0].violations)

    def test_unknown_mutation_rejected(self, cfg, reference):
        with pytest.raises(KeyError, match="unknown mutation"):
            run_case(cfg, FaultPlan(seed=0), mutation="nope", reference=reference)

    def test_mutation_registry(self):
        assert {"skip-coord-fence", "skip-force-fence"} <= set(MUTATIONS)


class TestCli:
    def test_campaign_ok(self, capsys):
        cli.main(["chaos", "--backend", "nvshmem", "--runs", "1"])

    def test_mutation_expect_failure_writes_artifact(self, tmp_path):
        out = str(tmp_path / "artifact.json")
        cli.main(
            [
                "chaos", "--backend", "nvshmem", "--runs", "1",
                "--pes-per-node", "1", "--mutate", "skip-coord-fence",
                "--expect-failure", "--out", out,
            ]
        )
        with open(out) as fh:
            artifact = json.load(fh)
        assert artifact["mutation"] == "skip-coord-fence"

        with pytest.raises(SystemExit) as exc:
            cli.main(["chaos", "--replay", out])
        assert exc.value.code == 3  # failure reproduced

    def test_expect_failure_without_mutation_fails(self):
        with pytest.raises(SystemExit, match="vacuous"):
            cli.main(
                ["chaos", "--backend", "nvshmem", "--runs", "1", "--expect-failure"]
            )

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit, match="--shape"):
            cli.main(["chaos", "--shape", "banana", "--runs", "1"])


@pytest.mark.slow
class TestFullCampaigns:
    """The acceptance-criteria campaign: >=50 interleavings x 4 backends."""

    @pytest.mark.parametrize("backend", ["reference", "mpi", "threadmpi", "nvshmem"])
    def test_fifty_seeded_runs(self, backend):
        res = run_campaign(chaos_spec(backend=backend), runs=50)
        assert res.runs == 50
        assert not res.failed, [f.violations for f in res.failures]

    def test_three_pulse_cross_dim_campaign(self):
        cfg = chaos_spec(shape=(1, 2, 4), pes_per_node=2)
        res = run_campaign(cfg, runs=15)
        assert not res.failed, [f.violations for f in res.failures]

    def test_process_executor_campaign(self):
        res = run_campaign(chaos_spec(executor="process"), runs=10)
        assert not res.failed, [f.violations for f in res.failures]
