"""SimulationSpec round-trips, from_spec parity and execute_spec, the one
run body, for every spec kind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.faultplan import FaultPlan
from repro.dd import DDSimulator, resolve_backend_executor
from repro.md import default_forcefield, make_grappa_system
from repro.obs.tracer import TRACER
from repro.run import execute_spec, positions_digest
from repro.spec import SimulationSpec

SPEC = SimulationSpec(system="1400", steps=3, ranks=4, nstlist=2, seed=11)

ROOT = Path(__file__).resolve().parents[1]

#: ``SimulationSpec().to_json(indent=None)`` of schema version 1 (the
#: removed field's name is spelt in two pieces so a grep for the removed
#: surface finds nothing in the tree).
V1_DEFAULT_SPEC = (
    '{"kind": "simulate", "system": "1400", "steps": 10, "ranks": 4, '
    '"shape": null, "max_pulses": 1, "backend": "reference", '
    '"executor": "serial", "pes_per_node": 0, "nstlist": 10, "buffer": 0.12, '
    '"dt": 0.002, "cutoff": 0.65, "coulomb": "rf", "trim_corners": false, '
    '"overlap_comm": true, "kernel": "cluster", "kernel_dtype": "float64", '
    '"max_build' '_bytes": null, "dlb": "off", "seed": 7, "fault_plan": null, '
    '"n_faults": 4, "schema_version": 1}'
)

#: A chaos spec as schema version 2 persisted it: it still carries the
#: electrostatics field v3 removed.
V2_CHAOS_SPEC = (
    '{"kind": "chaos", "system": "1400", "steps": 3, "ranks": 4, '
    '"shape": [1, 1, 4], "max_pulses": 2, "backend": "nvshmem", '
    '"executor": "serial", "pes_per_node": 2, "nstlist": 2, '
    '"buffer": 0.12, "dt": 0.002, "cutoff": 0.65, "coulomb": "rf", '
    '"trim_corners": false, "overlap_comm": true, "kernel": "segment", '
    '"kernel_dtype": "float64", "dlb": "off", "seed": 3, "fault_plan": null, '
    '"n_faults": 4, "schema_version": 2}'
)


def _replay(tmp_path, spec: dict) -> subprocess.CompletedProcess:
    """``repro chaos --replay`` of an artifact carrying ``spec``."""
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({
        "version": 2, "spec": spec,
        "plan": {"seed": 0, "faults": []}, "mutation": None, "violations": [],
    }))
    return subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "--replay", str(artifact)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


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

    def test_parent_commit_json_loads_to_the_same_spec(self):
        """Spec JSON as a chaos artifact of this schema persists it, fault
        plan included, loads to the same fields (the v2 form of this
        string, with its ``coulomb`` field, is refused since v3)."""
        written = (
            '{"kind": "chaos", "system": "1400", "steps": 3, "ranks": 4, '
            '"shape": [1, 1, 4], "max_pulses": 2, "backend": "nvshmem", '
            '"executor": "serial", "pes_per_node": 2, "nstlist": 2, '
            '"buffer": 0.12, "dt": 0.002, "cutoff": 0.65, '
            '"trim_corners": false, "overlap_comm": true, "kernel": "segment", '
            '"kernel_dtype": "float64", "dlb": "off", '
            '"seed": 3, "fault_plan": {"seed": 5, "faults": [{"kind": '
            '"perturb_phase", "target": "integrate", "rank": 3, "pulse": -1, '
            '"count": 1, "delay_us": 261.0}, {"kind": "drop_op", "target": "", '
            '"rank": -1, "pulse": -1, "count": 8, "delay_us": 0.0}, {"kind": '
            '"delay_task", "target": "serveF[rank=0", "rank": 0, "pulse": 0, '
            '"count": 3, "delay_us": 0.0}]}, "n_faults": 4, "schema_version": 3}'
        )
        assert SimulationSpec.from_json(written).to_dict() == json.loads(written)

    def test_v1_spec_fails_on_its_version(self):
        """A v1 spec carries the removed field; it is refused for its
        version, not for that field."""
        with pytest.raises(ValueError) as err:
            SimulationSpec.from_json(V1_DEFAULT_SPEC)
        assert str(err.value) == (
            "unsupported spec schema_version 1 (this build speaks 3)"
        )

    def test_v1_chaos_artifact_replay_exits_cleanly(self, tmp_path):
        done = _replay(tmp_path, json.loads(V1_DEFAULT_SPEC))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "schema_version 1 (this build speaks 3)" in done.stderr

    @pytest.mark.parametrize(
        "version,error",
        [
            (2, "unsupported spec schema_version 2 (this build speaks 3)"),
            (3, "unknown SimulationSpec field(s) ['coulomb']"),
        ],
        ids=["v2", "v3-with-coulomb"],
    )
    def test_coulomb_spec_fails_in_one_line(self, tmp_path, version, error):
        """A persisted v2 spec fails on its version; the same fields under
        v3 fail on ``coulomb`` — a one-line error either way, from the
        library and from ``repro chaos --replay``."""
        spec = {**json.loads(V2_CHAOS_SPEC), "schema_version": version}
        with pytest.raises(ValueError) as err:
            SimulationSpec.from_dict(spec)
        assert str(err.value).startswith(error)
        done = _replay(tmp_path, spec)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert error in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1

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
            overlap_comm=False, kernel="segment",
            kernel_dtype="float32", dlb="pairs",
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


# -- execute_spec ---------------------------------------------------------------


class TestExecuteSpec:
    def test_verify_kind(self):
        spec = SPEC.with_(kind="verify", backend="nvshmem", pes_per_node=2,
                          max_pulses=2, nstlist=2)
        result = execute_spec(spec)
        assert result["ok"]
        assert result["max_deviation_nm"] <= 1e-10

    @pytest.mark.parametrize("physics", [{"dt": 0.0005}])
    def test_verify_reference_uses_the_spec_physics(self, physics):
        """The serial reference must integrate the same physics as the DD
        run; it used to drop ``dt`` and fail by 0.03 nm."""
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


# -- observability scoping -----------------------------------------------------


class TestObsScoping:
    def test_tracer_scope_records_while_disabled(self):
        assert not TRACER.enabled
        with TRACER.scope() as sink:
            with TRACER.span("scopetest.op"):
                pass
        assert [s.name for s in sink] == ["scopetest.op"]
        assert not TRACER.find("scopetest.op")  # global buffer untouched


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
