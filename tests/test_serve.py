"""repro.serve: spec round-trips, from_spec parity, the job engine,
artifact-cache bit-identity, retry-on-worker-death, and the RPC layer."""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.faultplan import FaultPlan
from repro.dd import DDSimulator, resolve_backend_executor
from repro.md import default_forcefield, make_grappa_system
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import TRACER
from repro.serve import (
    ArtifactCache,
    JobCancelled,
    JobEngine,
    ServeClient,
    SimulationSpec,
    execute_spec,
    positions_digest,
    start_server,
    submit_and_wait,
)

SPEC = SimulationSpec(system="1400", steps=3, ranks=4, nstlist=2, seed=11)


# -- SimulationSpec ------------------------------------------------------------


class TestSpec:
    def test_json_round_trip(self):
        spec = SPEC.with_(shape=(1, 1, 4), backend="nvshmem", pes_per_node=2)
        assert SimulationSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_fault_plan(self):
        plan = FaultPlan.generate(5, n_faults=3, n_ranks=4, n_pulses=2,
                                  backend="nvshmem")
        spec = SPEC.with_(kind="chaos", fault_plan=plan)
        back = SimulationSpec.from_json(spec.to_json())
        assert back == spec
        assert back.fault_plan.to_dict() == plan.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SimulationSpec field"):
            SimulationSpec.from_dict({"kind": "simulate", "bogus": 1})

    def test_unknown_kind_and_schema_rejected(self):
        with pytest.raises(ValueError, match="unknown spec kind"):
            SimulationSpec(kind="explode")
        with pytest.raises(ValueError, match="schema_version"):
            SimulationSpec(schema_version=99)

    def test_backend_must_be_registry_name(self):
        from repro.comm import NvshmemBackend

        with pytest.raises(TypeError, match="registry"):
            SimulationSpec(backend=NvshmemBackend())

    def test_bad_system_fails_fast(self):
        with pytest.raises(ValueError, match="unknown system"):
            SimulationSpec(system="46q")

    def test_parent_commit_json_loads_to_the_same_job_key(self):
        """Spec JSON written before the spec moved to ``repro.spec`` (and
        grew field metadata) must load and hash identically."""
        written = (
            '{"kind": "chaos", "system": "1400", "steps": 3, "ranks": 4, '
            '"shape": [1, 1, 4], "max_pulses": 2, "backend": "nvshmem", '
            '"executor": "serial", "pes_per_node": 2, "nstlist": 2, '
            '"buffer": 0.12, "dt": 0.002, "cutoff": 0.65, "coulomb": "rf", '
            '"trim_corners": false, "overlap_comm": true, "kernel": "segment", '
            '"kernel_dtype": "float64", "max_build_bytes": null, "dlb": "off", '
            '"seed": 3, "fault_plan": {"seed": 5, "faults": [{"kind": '
            '"perturb_phase", "target": "integrate", "rank": 3, "pulse": -1, '
            '"count": 1, "delay_us": 261.0}, {"kind": "drop_op", "target": "", '
            '"rank": -1, "pulse": -1, "count": 8, "delay_us": 0.0}, {"kind": '
            '"delay_task", "target": "serveF[rank=0", "rank": 0, "pulse": 0, '
            '"count": 3, "delay_us": 0.0}]}, "n_faults": 4, "schema_version": 1}'
        )
        assert SimulationSpec.from_json(written).job_key() == "6c8e20697be0ae87"
        # A spec that spells out kernel="segment" hashes as it always did;
        # the default spec's key moved once, with the kernel default
        # (segment -> cluster, PR 14).
        assert SimulationSpec(kernel="segment").job_key() == "fd2a47ecab936c50"
        assert SimulationSpec().job_key() == "dbfd5194ba875a4b"
        slab = SimulationSpec(
            kind="verify", system="slab-3000", steps=8, ranks=4,
            backend="nvshmem", executor="process", pes_per_node=2, nstlist=5,
            max_pulses=2, dlb="pairs",
        )
        assert slab.with_(kernel="segment").job_key() == "177d0803fd96931e"
        assert slab.job_key() == "04bffacda13f2caf"
        assert slab.system_key() == "slab:3000:seed=7:cutoff=0.65"

    def test_system_key_groups_identical_initial_state(self):
        assert SPEC.system_key() == SPEC.with_(steps=50).system_key()
        assert SPEC.system_key() != SPEC.with_(seed=12).system_key()

    def test_job_key_is_content_hash(self):
        assert SPEC.job_key() == SimulationSpec.from_json(SPEC.to_json()).job_key()
        assert SPEC.job_key() != SPEC.with_(steps=4).job_key()

    def test_n_ranks_follows_shape(self):
        assert SPEC.with_(shape=(1, 2, 4)).n_ranks == 8
        assert SPEC.n_ranks == 4


# -- DDSimulator.from_spec ------------------------------------------------------


class TestFromSpec:
    def test_parity_with_legacy_constructor(self, ff):
        """from_spec and the keyword constructor give bit-identical runs."""
        legacy_system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            legacy_system, ff, n_ranks=4, backend="reference",
            executor="serial", nstlist=2, buffer=0.12,
        ) as sim:
            sim.run(3)
        with DDSimulator.from_spec(SPEC) as sim2:
            sim2.run(3)
        assert positions_digest(sim2.system.positions) == positions_digest(
            legacy_system.positions
        )

    def test_parity_nvshmem_backend(self, ff):
        """Spec-built NVSHMEM sims match explicitly constructed ones."""
        from repro.comm import NvshmemBackend

        legacy_system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            legacy_system, ff, n_ranks=4,
            backend=NvshmemBackend(pes_per_node=2, seed=11),
            executor="serial", nstlist=2, buffer=0.12, max_pulses=2,
        ) as sim:
            sim.run(3)
        spec = SPEC.with_(backend="nvshmem", pes_per_node=2, max_pulses=2)
        with DDSimulator.from_spec(spec) as sim2:
            sim2.run(3)
        assert np.array_equal(sim2.system.positions, legacy_system.positions)

    def test_keyword_construction_warns_nothing(self, tiny_system, ff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DDSimulator(tiny_system, ff, n_ranks=2, backend="reference",
                        executor="serial")

    def test_every_spec_field_reaches_the_simulator(self):
        """Introspective completeness: each spec field is either declared
        here as not engine-facing, or arrives on the built DDSimulator
        under the same name — so a future field cannot be dropped (or
        left unclassified) unnoticed."""
        from dataclasses import fields

        not_engine_facing = {
            "kind", "system", "steps", "ranks", "shape", "backend", "executor",
            "pes_per_node", "cutoff", "seed", "fault_plan", "n_faults",
            "schema_version",
        }
        non_default = dict(
            nstlist=3, buffer=0.15, dt=0.001, trim_corners=True, max_pulses=2,
            coulomb="pme", overlap_comm=False, kernel="segment",
            kernel_dtype="float32", max_build_bytes=1 << 20, dlb="pairs",
        )
        names = {f.name for f in fields(SimulationSpec)}
        assert names - not_engine_facing == set(non_default)
        for name, value in non_default.items():
            assert getattr(SimulationSpec(), name) != value
        with DDSimulator.from_spec(SPEC.with_(**non_default)) as sim:
            for name, value in non_default.items():
                assert getattr(sim, name) == value, name


class TestResolveBackendExecutor:
    def test_unknown_backend_lists_both_registries(self):
        with pytest.raises(ValueError) as err:
            resolve_backend_executor("bogus", "serial")
        assert "available backends" in str(err.value)
        assert "available executors" in str(err.value)

    def test_unknown_executor_actionable(self):
        with pytest.raises(ValueError, match="available executors"):
            resolve_backend_executor("reference", "bogus")

    def test_defaults(self):
        backend, executor = resolve_backend_executor(None, None)
        assert type(backend).__name__ == "ReferenceBackend"
        assert type(executor).__name__ == "SerialExecutor"


# -- execute_spec + artifact cache --------------------------------------------


class TestExecuteSpec:
    def test_cached_path_is_bit_identical_to_cold_path(self):
        cold = execute_spec(SPEC)
        cache = ArtifactCache()
        warm1 = execute_spec(SPEC, cache=cache)   # populates
        warm2 = execute_spec(SPEC, cache=cache)   # cluster0/system/grid hits
        assert warm1["digest"] == cold["digest"]
        assert warm2["digest"] == cold["digest"]
        stats = cache.stats()
        assert stats["hits"] > 0

    def test_cluster0_snapshot_keyed_by_kernel(self):
        """A cluster-kernel job must never replay a segment-built snapshot.

        Regression test for the cluster0 cache key: it has to include the
        spec's kernel and kernel_dtype, so the second job below records a
        cluster0 *miss* (its own build), not a hit on the first job's
        snapshot.
        """
        miss_counter = METRICS.counter("serve.cache.misses", kind="cluster0")
        cache = ArtifactCache()
        before = miss_counter.value
        seg = execute_spec(SPEC.with_(kernel="segment"), cache=cache)
        after_segment = miss_counter.value
        clu = execute_spec(SPEC.with_(kernel="cluster"), cache=cache)
        after_cluster = miss_counter.value
        assert after_segment == before + 1
        assert after_cluster == after_segment + 1  # distinct key -> new build
        # Same physics regardless of which kernel built the snapshot.
        assert seg["digest"] == clu["digest"]
        # And the dtype is part of the key too.
        execute_spec(SPEC.with_(kernel="cluster", kernel_dtype="float32"),
                     cache=cache)
        assert miss_counter.value == after_cluster + 1

    def test_verify_kind(self):
        spec = SPEC.with_(kind="verify", backend="nvshmem", pes_per_node=2,
                          max_pulses=2, nstlist=2)
        result = execute_spec(spec)
        assert result["ok"]
        assert result["max_deviation_nm"] <= 1e-10

    @pytest.mark.parametrize("physics", [{"dt": 0.0005}, {"coulomb": "pme"}])
    def test_verify_reference_uses_the_spec_physics(self, physics):
        """The serial reference must integrate the same physics as the DD
        run; it used to drop ``dt`` and ``coulomb`` and fail by 0.03 nm."""
        spec = SimulationSpec(
            kind="verify", system="1400", steps=4, ranks=4, backend="nvshmem",
            max_pulses=2, **physics,
        )
        result = execute_spec(spec)
        assert result["ok"]
        assert result["max_deviation_nm"] <= 1e-10

    def test_chaos_job_honours_every_spec_field(self, monkeypatch):
        """Both simulators a chaos job builds — the fault-injected case and
        its reference-trajectory oracle — must carry the spec's knobs."""
        built = []
        from_spec = DDSimulator.from_spec.__func__

        def spy(cls, spec, **kwargs):
            built.append(from_spec(cls, spec, **kwargs))
            return built[-1]

        monkeypatch.setattr(DDSimulator, "from_spec", classmethod(spy))
        spec = SimulationSpec(
            kind="chaos", system="1400", steps=2, shape=(1, 1, 4),
            max_pulses=2, backend="nvshmem", pes_per_node=2, seed=3, nstlist=2,
            overlap_comm=False, dt=0.001, trim_corners=True,
            fault_plan=FaultPlan(seed=0),
        )
        result = execute_spec(spec)
        assert result["ok"], result["violations"]
        assert sorted(sim.backend.name for sim in built) == ["nvshmem", "reference"]
        for sim in built:
            assert (sim.overlap_comm, sim.dt, sim.trim_corners) == (False, 0.001, True)

    def test_chaos_kind_with_embedded_plan(self):
        plan = FaultPlan.generate(2, n_faults=2, n_ranks=4, n_pulses=2,
                                  backend="nvshmem")
        spec = SimulationSpec(
            kind="chaos", system="1400", steps=2, shape=(1, 1, 4),
            max_pulses=2, backend="nvshmem", pes_per_node=2, seed=3,
            nstlist=2, fault_plan=plan,
        )
        result = execute_spec(spec)
        assert result["ok"], result["violations"]
        assert result["plan_seed"] == 2

    def test_profile_kind_returns_span_accounting(self):
        result = execute_spec(SPEC.with_(kind="profile"))
        assert "dd.step" in result["spans"]
        assert result["spans"]["dd.step"]["count"] == SPEC.steps

    def test_per_job_metrics_snapshot(self):
        result = execute_spec(SPEC)
        # The job's own stream, not process-wide totals.
        assert result["metrics"].get("dd.steps") == SPEC.steps

    def test_cancel_between_steps(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(JobCancelled):
            execute_spec(SPEC, cancel=cancel)


# -- observability scoping -----------------------------------------------------


class TestObsScoping:
    def test_metrics_scope_tees_to_both(self):
        job = MetricsRegistry()
        with METRICS.scope(job):
            METRICS.counter("scopetest.hits").inc(3)
        assert job.counter("scopetest.hits").value == 3
        assert METRICS.counter("scopetest.hits").value == 3

    def test_tracer_scope_records_while_disabled(self):
        assert not TRACER.enabled
        with TRACER.scope() as sink:
            with TRACER.span("scopetest.op"):
                pass
        assert [s.name for s in sink] == ["scopetest.op"]
        assert not TRACER.find("scopetest.op")  # global buffer untouched


# -- JobEngine -----------------------------------------------------------------


class TestJobEngine:
    def test_three_concurrent_jobs_bit_identical_to_blocking(self):
        blocking = submit_and_wait(SPEC)
        specs = [SPEC, SPEC.with_(kind="profile"),
                 SPEC.with_(kind="verify", backend="nvshmem", pes_per_node=2,
                            max_pulses=2)]
        with JobEngine(workers=3) as engine:
            ids = [engine.submit(s) for s in specs]
            results = [engine.result(i, timeout=300) for i in ids]
            stats = engine.stats()
        assert results[0]["digest"] == blocking["digest"]
        assert results[1]["digest"] == blocking["digest"]
        assert results[2]["ok"]
        assert stats["jobs"]["done"] == 3
        assert stats["cache"]["hits"] > 0

    def test_retry_on_worker_death(self):
        attempts = []

        def flaky_runner(spec, *, cache=None, cancel=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("process-executor worker 2 failed: died")
            return {"ok": True}

        with JobEngine(workers=1, runner=flaky_runner) as engine:
            result = engine.result(engine.submit(SPEC), timeout=60)
        assert result == {"ok": True}
        assert len(attempts) == 2

    def test_worker_death_retries_are_bounded(self):
        def always_dies(spec, *, cache=None, cancel=None):
            raise BrokenPipeError("worker gone")

        with JobEngine(workers=1, runner=always_dies, max_attempts=2) as engine:
            job_id = engine.submit(SPEC)
            with pytest.raises(RuntimeError, match="failed.*worker gone"):
                engine.result(job_id, timeout=60)
            assert engine.status(job_id)["attempts"] == 2

    def test_real_failure_does_not_retry(self):
        def bad_physics(spec, *, cache=None, cancel=None):
            raise AssertionError("trajectories diverged")

        with JobEngine(workers=1, runner=bad_physics) as engine:
            job_id = engine.submit(SPEC)
            with pytest.raises(RuntimeError, match="diverged"):
                engine.result(job_id, timeout=60)
            assert engine.status(job_id)["attempts"] == 1

    def test_cancel_queued_job(self):
        release = threading.Event()

        def slow_runner(spec, *, cache=None, cancel=None):
            release.wait(30)
            return {}

        with JobEngine(workers=1, runner=slow_runner) as engine:
            blocker = engine.submit(SPEC)
            queued = engine.submit(SPEC.with_(steps=4))
            assert engine.cancel(queued)
            release.set()
            with pytest.raises(JobCancelled):
                engine.result(queued, timeout=60)
            engine.result(blocker, timeout=60)

    def test_unknown_job_id(self):
        with JobEngine(workers=1) as engine:
            with pytest.raises(KeyError, match="unknown job"):
                engine.status("job-9999-deadbeef")


# -- JSON-RPC ------------------------------------------------------------------


class TestRpc:
    def test_round_trip_on_ephemeral_port(self):
        with JobEngine(workers=2) as engine:
            server, url = start_server(engine, port=0)
            try:
                client = ServeClient(url)
                assert client.ping()
                job_id = client.submit(SPEC)
                result = client.result(job_id, timeout=300)
                status = client.status(job_id)
                stats = client.stats()
            finally:
                server.shutdown()
        assert result["digest"] == submit_and_wait(SPEC)["digest"]
        assert status["state"] == "done"
        assert stats["jobs"]["done"] >= 1

    def test_rpc_errors(self):
        from repro.serve import RpcError

        with JobEngine(workers=1) as engine:
            server, url = start_server(engine, port=0)
            try:
                client = ServeClient(url)
                with pytest.raises(RpcError, match="unknown method"):
                    client.call("explode")
                with pytest.raises(RpcError):
                    client.status("job-9999-deadbeef")
            finally:
                server.shutdown()

    def test_submit_and_wait_via_server(self):
        with JobEngine(workers=1) as engine:
            server, url = start_server(engine, port=0)
            try:
                result = submit_and_wait(SPEC.with_(steps=2), server=url)
            finally:
                server.shutdown()
        assert result["steps"] == 2


# -- heavier parity (tier-2) ---------------------------------------------------


@pytest.mark.slow
def test_from_spec_parity_45k(ff):
    """Paper-scale system: spec path matches the legacy constructor."""
    spec = SimulationSpec(system="45k", steps=2, ranks=8, seed=7, nstlist=2)
    legacy_system = make_grappa_system(45000, seed=7, ff=ff, dtype=np.float64)
    with DDSimulator(
        legacy_system, ff, n_ranks=8, backend="reference", executor="serial",
        nstlist=2, buffer=0.12,
    ) as sim:
        sim.run(2)
    with DDSimulator.from_spec(spec) as sim2:
        sim2.run(2)
    assert np.array_equal(sim2.system.positions, legacy_system.positions)
