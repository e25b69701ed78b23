"""Cross-layer integration tests.

These exercise the whole stack: system generation -> DD -> backend halo
exchange -> forces -> integration -> migration, plus workload extraction
from a real functional run feeding the timing model, and the public API.
"""

import numpy as np
import pytest

import repro
from repro.comm import NvshmemBackend, ReferenceBackend
from repro.dd import DDGrid, DDSimulator
from repro.gpusim import render_timeline
from repro.md import ReferenceSimulator, default_forcefield, make_grappa_system
from repro.perf import DGX_H100, simulate_step
from repro.perf.workload import measured_workload


class TestEndToEnd:
    def test_long_run_nvshmem_multinode_vs_serial(self):
        """25 steps, 5 NS rebuilds, mixed NVLink/IB topology, strict signal
        checking and randomized interleavings — trajectory still bit-equal."""
        ff = default_forcefield(cutoff=0.65)
        a = make_grappa_system(2048, seed=31, ff=ff, dtype=np.float64)
        b = a.copy()
        ref = ReferenceSimulator(a, ff, nstlist=5, buffer=0.15)
        dds = DDSimulator(
            b, ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.15,
            backend=NvshmemBackend(pes_per_node=2, seed=13),
        )
        ref.run(25)
        dds.run(25)
        dx = b.positions - a.positions
        dx -= np.rint(dx / a.box) * a.box
        assert np.abs(dx).max() < 1e-10

    def test_functional_workload_feeds_timing_model(self):
        """The measured workload from a real DD run drives the schedules."""
        ff = default_forcefield(cutoff=0.65)
        sys_ = make_grappa_system(6000, seed=23, ff=ff, dtype=np.float32)
        sim = DDSimulator(sys_, ff, grid=DDGrid((2, 2, 2)), nstlist=5, buffer=0.12)
        sim.neighbor_search()
        wl = measured_workload(sim, DGX_H100)
        for backend in ("mpi", "nvshmem"):
            g, t = simulate_step(wl, DGX_H100, backend=backend)
            assert t.time_per_step > 0
            assert t.nonlocal_work > 0
        # NVSHMEM should not lose on this small latency-bound workload.
        t_mpi = simulate_step(wl, DGX_H100, backend="mpi")[1]
        t_nvs = simulate_step(wl, DGX_H100, backend="nvshmem")[1]
        assert t_nvs.time_per_step <= t_mpi.time_per_step

    def test_timeline_renders_both_schedules(self):
        from repro.perf import grappa_workload

        wl = grappa_workload(45_000, 4, DGX_H100)
        for backend in ("mpi", "nvshmem"):
            g, _ = simulate_step(wl, DGX_H100, backend=backend)
            out = render_timeline(g, width=80)
            assert "cpu" in out and "gpu.local" in out

    def test_reference_vs_nvshmem_same_physics(self):
        ff = default_forcefield(cutoff=0.65)
        base = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
        results = {}
        for name, be in [("ref", ReferenceBackend()), ("nvs", NvshmemBackend(seed=0))]:
            s = base.copy()
            DDSimulator(s, ff, grid=DDGrid((2, 1, 1)), nstlist=5, buffer=0.12, backend=be).run(5)
            results[name] = s.positions
        np.testing.assert_allclose(results["ref"], results["nvs"], atol=1e-12)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_quick_compare(self):
        tbl = repro.quick_compare("45k", gpus=4)
        assert len(tbl.rows) == 2
        by_backend = dict(zip(tbl.column("backend"), tbl.column("ns_per_day")))
        assert by_backend["nvshmem"] > by_backend["mpi"]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_make_backend_roundtrip(self):
        be = repro.make_backend("reference")
        assert isinstance(be, ReferenceBackend)
