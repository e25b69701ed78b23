"""Rank-executor tests: serial and process must be bit-identical.

The executor layer (:mod:`repro.par`) schedules per-rank pair search,
force computation, and integration.  Because every executor runs the same
phase functions on the same per-rank data with no cross-rank reductions,
trajectories and energies must match bit-for-bit — these tests enforce
that across the whole lifecycle: mid-run neighbour-search rebuilds, PME
runs, and every halo backend exchanging in place on the executor's arrays.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.comm import backend_registry, make_backend
from repro.dd import DDSimulator
from repro.dd.grid import DDGrid
from repro.md import ReferenceSimulator, make_grappa_system, make_system
from repro.obs.metrics import METRICS
from repro.par import (
    ProcessExecutor,
    SerialExecutor,
    executor_registry,
    make_executor,
)

EXECUTORS = ("serial", "process")


def _run(system, ff, executor, *, n_ranks=4, steps=8, nstlist=3, **kwargs):
    """Run a DD trajectory, returning final state + per-step energies."""
    sim = DDSimulator(
        system, ff, n_ranks=n_ranks, executor=executor,
        nstlist=nstlist, buffer=0.12, **kwargs,
    )
    with sim:
        energies = sim.run(steps)
        assert sim.step_count == steps
        return {
            "pos": sim.system.positions.copy(),
            "vel": sim.system.velocities.copy(),
            "forces": sim.system.forces.copy(),
            "energies": energies,
        }


class TestExecutorParity:
    """Serial is the reference; process must match it exactly."""

    @pytest.mark.parametrize("executor", ("process",))
    def test_bit_identical_trajectory(self, tiny_system, ff, executor):
        # nstlist=3 over 8 steps forces mid-run neighbour-search rebuilds,
        # so rebinding the arena is exercised, not just step 0.
        ref = _run(tiny_system.copy(), ff, "serial")
        out = _run(tiny_system.copy(), ff, executor)
        assert np.array_equal(ref["pos"], out["pos"])
        assert np.array_equal(ref["vel"], out["vel"])
        assert np.array_equal(ref["forces"], out["forces"])
        assert ref["energies"] == out["energies"]

    @pytest.mark.parametrize("executor", ("process",))
    def test_bit_identical_nvshmem_backend(self, tiny_system, ff, executor):
        # The NVSHMEM backend registers the executor's arena views as its
        # symmetric put/get destinations; puts land in worker memory.
        ref = _run(tiny_system.copy(), ff, "serial", backend="nvshmem")
        out = _run(tiny_system.copy(), ff, executor, backend="nvshmem")
        assert np.array_equal(ref["pos"], out["pos"])
        assert ref["energies"] == out["energies"]

    @pytest.mark.parametrize("max_pulses,shape", [(1, (2, 2, 1)), (2, (1, 1, 4))])
    def test_backend_executor_kernel_matrix(self, tiny_system, ff, max_pulses, shape):
        """2 backends x 2 executors x 2 kernels: one trajectory, bit for
        bit, and it is the serial reference's to accumulation order."""
        outs = {
            (backend, executor, kernel): _run(
                tiny_system.copy(), ff, executor, n_ranks=0, grid=DDGrid(shape),
                steps=6, backend=backend, kernel=kernel, max_pulses=max_pulses,
            )["pos"]
            for backend in sorted(backend_registry)
            for executor in EXECUTORS
            for kernel in ("cluster", "segment")
        }
        first = next(iter(outs.values()))
        for key, pos in outs.items():
            assert np.array_equal(pos, first), key
        ref = tiny_system.copy()
        ReferenceSimulator(ref, ff, nstlist=3, buffer=0.12).run(6)
        dx = first - ref.positions
        dx -= np.rint(dx / ref.box) * ref.box
        assert np.abs(dx).max() < 1e-12

    def test_rebuilds_happened(self, tiny_system, ff):
        sim = DDSimulator(
            tiny_system, ff, n_ranks=4, executor="process", nstlist=3, buffer=0.12
        )
        with sim:
            # nstlist=3 guarantees scheduled rebuilds at steps 0, 3, 6.
            sim.run(8)
            assert sim.step_count == 8
            assert len(sim.workloads) == 4

    def test_executor_instance_accepted(self, tiny_system, ff):
        ref = _run(tiny_system.copy(), ff, "serial", steps=4)
        out = _run(tiny_system.copy(), ff, ProcessExecutor(max_workers=2), steps=4)
        assert np.array_equal(ref["pos"], out["pos"])


class TestOneOwner:
    """The executor binds, the backend exchanges in place: every rank
    array has one home shared by cluster, arena and symmetric heap."""

    @pytest.mark.parametrize("backend", sorted(backend_registry))
    def test_cluster_arena_and_heap_share_memory(self, tiny_system, ff, backend):
        ex = ProcessExecutor(max_workers=2)
        sim = DDSimulator(
            tiny_system, ff, n_ranks=4, backend=backend, executor=ex, buffer=0.12
        )
        with sim:
            sim.neighbor_search()
            cluster = sim.cluster
            for r in range(4):
                for name in ("pos", "forces"):
                    mine = getattr(cluster, f"local_{name}")[r]
                    assert np.shares_memory(mine, ex._arena[r][name])
                if backend == "nvshmem":
                    assert sim.backend._coords.on(r) is cluster.local_pos[r]
                    assert sim.backend._forces.on(r) is cluster.local_forces[r]
            # A worker's integrate write is visible in the cluster with no
            # call in between: forces are zero, so x += v * dt exactly.
            before = [p.copy() for p in cluster.local_pos]
            for vel in cluster.local_vel:
                vel[...] = 1.0  # parent write, read by the workers
            ex.run("integrate")
            for r, rp in enumerate(cluster.plan.ranks):
                moved = cluster.local_pos[r][: rp.n_home]
                assert np.array_equal(moved, before[r][: rp.n_home] + sim.dt)

    def test_serial_bind_returns_the_arrays_it_was_given(self, tiny_system, ff):
        sim = DDSimulator(tiny_system, ff, n_ranks=4, backend="nvshmem", buffer=0.12)
        with sim:
            sim.neighbor_search()
            for r, ws in enumerate(sim.executor._ws):
                assert ws.pos is sim.cluster.local_pos[r]
                assert sim.backend._coords.on(r) is ws.pos


class TestRegistry:
    def test_all_executors_registered(self):
        assert sorted(executor_registry) == sorted(EXECUTORS)
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)

    def test_unknown_executor_rejected(self):
        with pytest.raises(KeyError, match="serial"):
            make_executor("gpu")

    def test_reference_backend_registered(self):
        assert "reference" in backend_registry
        b = make_backend("reference")
        assert b.name == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="reference"):
            make_backend("infiniband")

    def test_simulator_resolves_backend_string(self, tiny_system, ff):
        direct = _run(tiny_system.copy(), ff, "serial", steps=3)
        named = DDSimulator(
            tiny_system.copy(), ff, n_ranks=4, backend="reference",
            executor="serial", nstlist=3, buffer=0.12,
        )
        with named:
            named.run(3)
            assert np.array_equal(direct["pos"], named.system.positions)

    def test_unknown_strings_rejected_at_construction(self, tiny_system, ff):
        # resolve_backend_executor turns registry misses into one actionable
        # ValueError naming both registries.
        with pytest.raises(ValueError, match="available backends"):
            DDSimulator(tiny_system, ff, n_ranks=2, backend="bogus")
        with pytest.raises(ValueError, match="available executors"):
            DDSimulator(tiny_system, ff, n_ranks=2, executor="bogus")


class TestKeywordOnlyKnobs:
    def test_tuning_knobs_are_keyword_only(self, tiny_system, ff):
        with pytest.raises(TypeError):
            # Positional nstlist after executor must be rejected.
            DDSimulator(tiny_system, ff, 2, None, None, None, 10)

    def test_backend_and_executor_are_keyword_only(self, tiny_system, ff):
        """The positional-backend deprecation shim is gone: a 5th
        positional argument is an ordinary TypeError."""
        with pytest.raises(TypeError, match="positional"):
            DDSimulator(tiny_system, ff, 2, None, "reference")

    def test_keyword_knobs_accepted(self, tiny_system, ff):
        sim = DDSimulator(tiny_system, ff, n_ranks=2, nstlist=7, buffer=0.15, dt=0.001)
        assert sim.nstlist == 7


class TestObservability:
    def test_executor_spans_recorded(self, tiny_system, ff):
        from repro.obs.tracer import TRACER

        TRACER.enable()
        TRACER.clear()
        try:
            sim = DDSimulator(
                tiny_system, ff, n_ranks=2, executor="process", buffer=0.12
            )
            with sim:
                sim.run(2)
            names = {s.name for s in TRACER.spans}
        finally:
            TRACER.disable()
            TRACER.clear()
        assert {"executor.dispatch", "executor.barrier"} <= names
        # Engine spans survive the refactor.
        assert {"dd.step", "dd.ns", "dd.forces", "dd.integrate"} <= names

    def test_phase_counters_increment(self, tiny_system, ff):
        from repro.obs.metrics import METRICS

        sim = DDSimulator(tiny_system, ff, n_ranks=2, executor="serial", buffer=0.12)
        with sim:
            before_l = METRICS.counter(
                "par.phases", executor="serial", phase="forces_local"
            ).value
            before_n = METRICS.counter(
                "par.phases", executor="serial", phase="forces_nonlocal"
            ).value
            sim.run(2)
            after_l = METRICS.counter(
                "par.phases", executor="serial", phase="forces_local"
            ).value
            after_n = METRICS.counter(
                "par.phases", executor="serial", phase="forces_nonlocal"
            ).value
        assert after_l - before_l == 2
        assert after_n - before_n == 2


class TestProcessExecutorLifecycle:
    def test_close_is_idempotent_and_restartable(self, tiny_system, ff):
        ex = ProcessExecutor(max_workers=2)
        sim = DDSimulator(tiny_system, ff, n_ranks=4, executor=ex, buffer=0.12)
        sim.run(2)
        sim.close()
        sim.close()  # second close must be a no-op

    def test_arena_survives_rebind(self, tiny_system, ff):
        # Repeated neighbour searches rebind the arena; same-size rebuilds
        # must reuse the mapping and stay bit-correct.
        ref = _run(tiny_system.copy(), ff, "serial", steps=10, nstlist=2)
        out = _run(tiny_system.copy(), ff, "process", steps=10, nstlist=2)
        assert np.array_equal(ref["pos"], out["pos"])
        assert ref["energies"] == out["energies"]

    def test_arena_growth_under_a_bound_backend_leaks_nothing(self, ff):
        """DLB on a slab grows ranks past their slots, so the arena segment
        is replaced while the previous search's NVSHMEM symmetric objects
        still hold views of the old one: the old segment must be unlinked
        at once, the run stay on the serial result, and nothing remain."""
        def run(executor):
            system = make_system("slab-1400", seed=3, ff=ff, dtype=np.float64)
            sim = DDSimulator(
                system, ff, grid=DDGrid((1, 1, 4)), backend="nvshmem",
                executor=executor, nstlist=2, buffer=0.12, max_pulses=2, dlb="pairs",
            )
            with sim:
                for _ in range(14):
                    sim.step()
                    if executor != "serial":
                        segments.add(sim.executor._shm.name.lstrip("/"))
                        live = {n for n in os.listdir("/dev/shm") if n in segments}
                        assert live == {sim.executor._shm.name.lstrip("/")}
            return system.positions

        segments: set[str] = set()
        remaps = METRICS.counter("par.arena.remaps")
        before = remaps.value
        out = run("process")
        assert remaps.value - before >= 1 and len(segments) >= 2
        assert not segments & set(os.listdir("/dev/shm"))
        assert np.array_equal(out, run("serial"))

    def test_worker_error_propagates(self):
        ex = ProcessExecutor(max_workers=1)
        from repro.par.phases import RankConfig

        ex.configure(
            RankConfig(kernel=None, integrator=None, box=np.ones(3),
                       periodic=np.ones(3, dtype=bool), r_comm=0.5),
            1,
        )
        with pytest.raises(KeyError, match="unknown phase"):
            ex.run("explode")
        with pytest.raises(RuntimeError, match="bind"):
            ex.run("forces_local")
        ex.close()

    def test_dead_worker_names_itself_and_tears_down(self, tiny_system, ff):
        """SIGKILL one of two workers between steps: the next step must
        fail with an error naming the worker, its ranks, the phase and
        the exit code — not a bare BrokenPipeError/EOFError — and leave
        neither shared memory nor worker processes behind."""
        import multiprocessing as mp
        import os
        import signal

        ex = ProcessExecutor(max_workers=2)
        sim = DDSimulator(tiny_system, ff, n_ranks=4, executor=ex, buffer=0.12)
        sim.step()
        arena = f"/dev/shm/{ex._shm.name.lstrip('/')}"
        assert os.path.exists(arena)
        victim = ex._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        with pytest.raises(RuntimeError) as err:
            sim.step()
        msg = str(err.value)
        assert "worker 0" in msg and "ranks [0, 2]" in msg
        assert "forces_local" in msg and "exit code -9" in msg
        sim.close()  # idempotent after the executor tore itself down
        assert not os.path.exists(arena)
        assert not [
            p for p in mp.active_children() if p.name.startswith("repro-par-")
        ]


class TestSplitForces:
    """The local/non-local force split and its comm–compute overlap."""

    def test_split_partition_structure(self, tiny_system, ff):
        sim = DDSimulator(tiny_system, ff, n_ranks=4, executor="serial", buffer=0.12)
        with sim:
            sim.neighbor_search()
            n_pulses = sim.cluster.plan.n_pulses
            assert n_pulses >= 1
            cfg = sim.executor._cfg
            for ws in sim.executor._ws:
                sp = ws.pairs
                nh = ws.ns.n_home
                assert sp is not None
                # Local list: both atoms home on every pair.
                assert np.all(sp.local.i < nh) and np.all(sp.local.j < nh)
                # Non-local list: at least one halo atom per pair.
                assert np.all((sp.nonlocal_.i >= nh) | (sp.nonlocal_.j >= nh))
                # Pulse partition covers the non-local list exactly, and
                # each group's pairs depend on precisely that pulse.
                po = sp.pulse_offsets
                assert po[0] == 0 and po[-1] == sp.nonlocal_.n_pairs
                assert np.all(np.diff(po) >= 0)
                assert len(po) == n_pulses + 1
                src = ws.ns.src_pulse
                for p in range(n_pulses):
                    seg = slice(int(po[p]), int(po[p + 1]))
                    req = np.maximum(src[sp.nonlocal_.i[seg]], src[sp.nonlocal_.j[seg]])
                    assert np.all(req == p)
                # Inner lists: exactly the outer pairs within r_inner, as
                # an order-preserving subsequence of the outer list.
                for half in (sp.local, sp.nonlocal_):
                    dx = ws.pos[half.i] - ws.pos[half.j]
                    dx -= np.where(cfg.periodic, np.rint(dx / cfg.box) * cfg.box, 0.0)
                    near = np.einsum("ij,ij->i", dx, dx) <= cfg.r_inner**2
                    assert np.array_equal(half.i[near], half.block.i)
                    assert np.array_equal(half.j[near], half.block.j)
                    assert 0 < half.block.n_pairs < half.n_pairs
                # ... so the evaluator's order holds: the local block sorted
                # by i, the non-local one by (pulse, i) with no segment
                # spanning two pulses.
                assert np.all(np.diff(sp.local.block.i) >= 0)
                block = sp.nonlocal_.block
                req = np.maximum(src[block.i], src[block.j])
                assert np.all(np.diff(req * block.n_atoms + block.i) >= 0)
                starts = block.seg_starts
                assert np.array_equal(
                    np.maximum.reduceat(req, starts), np.minimum.reduceat(req, starts)
                )
            w = sim.workloads[0]
            assert sum(w.pulse_pair_counts) == w.n_pairs_nonlocal

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_overlap_flag_changes_nothing(self, tiny_system, ff, executor):
        """overlap_comm=False (strict schedule) is bit-identical to the
        overlapped default, which in turn is bit-identical to serial."""
        ref = _run(tiny_system.copy(), ff, "serial")
        out = _run(tiny_system.copy(), ff, executor, overlap_comm=False)
        assert np.array_equal(ref["pos"], out["pos"])
        assert np.array_equal(ref["forces"], out["forces"])
        assert ref["energies"] == out["energies"]

    @pytest.mark.parametrize("executor", ("process",))
    def test_overlap_metrics_recorded(self, tiny_system, ff, executor):
        from repro.obs.metrics import METRICS

        halo = METRICS.histogram("par.overlap.halo_us", executor=executor)
        hidden = METRICS.histogram("par.overlap.hidden_us", executor=executor)
        h0, hid0 = halo.count, hidden.count
        _run(tiny_system.copy(), ff, executor, steps=4)
        assert halo.count - h0 == 4
        assert hidden.count - hid0 == 4
        assert halo.sum >= 0.0 and hidden.sum >= 0.0
