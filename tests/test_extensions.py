"""Extension features: thread-MPI schedule, critical path, imbalance model,
three-way comparison."""

import pytest

from repro.gpusim import critical_path
from repro.perf.machines import DGX_H100, EOS
from repro.perf.model import estimate_step, simulate_step
from repro.perf.workload import grappa_workload


class TestThreadMpiSchedule:
    def test_beats_mpi_intranode(self):
        """Sec. 2.2: event-driven thread-MPI outperforms CPU-initiated MPI
        in latency-bound regimes."""
        for n in (45_000, 180_000):
            wl = grappa_workload(n, 4, DGX_H100)
            t_mpi = estimate_step(wl, DGX_H100, "mpi")
            t_tmpi = estimate_step(wl, DGX_H100, "threadmpi")
            assert t_tmpi.time_per_step < t_mpi.time_per_step

    def test_comparable_to_nvshmem_intranode(self):
        """The paper: NVSHMEM 'replicates thread-MPI's ability to overlap'
        intra-node; the two should be within a few percent."""
        wl = grappa_workload(180_000, 8, DGX_H100)
        t_tmpi = estimate_step(wl, DGX_H100, "threadmpi")
        t_nvs = estimate_step(wl, DGX_H100, "nvshmem")
        assert t_tmpi.time_per_step == pytest.approx(t_nvs.time_per_step, rel=0.1)

    def test_rejects_multinode(self):
        wl = grappa_workload(720_000, 32, EOS)  # crosses nodes
        with pytest.raises(ValueError, match="intra-node"):
            estimate_step(wl, EOS, "threadmpi")

    def test_no_cpu_syncs(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        g, _ = simulate_step(wl, DGX_H100, "threadmpi")
        assert not [t for t in g.tasks.values() if t.kind == "sync"]

    def test_graph_capture_supported(self):
        wl = grappa_workload(45_000, 8, DGX_H100)
        plain = estimate_step(wl, DGX_H100, "threadmpi", cuda_graph=False)
        graph = estimate_step(wl, DGX_H100, "threadmpi", cuda_graph=True)
        assert graph.time_per_step <= plain.time_per_step


class TestCriticalPath:
    def test_mpi_path_contains_cpu_machinery(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        g, _ = simulate_step(wl, DGX_H100, "mpi")
        cp = critical_path(g, "s3:step_end")
        kinds = cp.by_kind()
        assert kinds.get("sync", 0) > 0
        assert kinds.get("launch", 0) > 0

    def test_nvshmem_path_free_of_cpu_machinery(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        g, _ = simulate_step(wl, DGX_H100, "nvshmem")
        cp = critical_path(g, "s3:step_end")
        kinds = cp.by_kind()
        assert kinds.get("sync", 0) == 0
        assert kinds.get("launch", 0) == 0

    def test_path_is_contiguous_chain(self):
        wl = grappa_workload(180_000, 16, EOS)
        g, _ = simulate_step(wl, EOS, "nvshmem")
        cp = critical_path(g, "s3:step_end")
        assert cp.segments[-1].name == "s3:step_end"
        total = sum(s.duration + s.gap_before for s in cp.segments)
        assert total == pytest.approx(cp.length, rel=1e-6)

    def test_render(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        g, _ = simulate_step(wl, DGX_H100, "nvshmem")
        out = critical_path(g, "s3:step_end").render()
        assert "critical path" in out and "breakdown" in out

    def test_default_terminal(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        g, _ = simulate_step(wl, DGX_H100, "nvshmem")
        cp = critical_path(g)
        assert cp.length > 0


class TestImbalance:
    def test_balanced_modes_identical(self):
        wl = grappa_workload(360_000, 32, EOS)
        a = estimate_step(wl, EOS, "nvshmem", imbalance=0.0, imbalance_sync="gpu")
        b = estimate_step(wl, EOS, "nvshmem", imbalance=0.0, imbalance_sync="cpu")
        assert a.time_per_step == pytest.approx(b.time_per_step)

    def test_imbalance_always_costs(self):
        wl = grappa_workload(360_000, 32, EOS)
        base = estimate_step(wl, EOS, "nvshmem")
        worse = estimate_step(wl, EOS, "nvshmem", imbalance=0.1)
        assert worse.time_per_step > base.time_per_step

    def test_cpu_resync_wins_for_compute_heavy(self):
        """Sec. 7: the workaround pays off when SM spin is expensive."""
        wl = grappa_workload(2_880_000, 32, EOS)
        gpu = estimate_step(wl, EOS, "nvshmem", imbalance=0.1, imbalance_sync="gpu")
        cpu = estimate_step(wl, EOS, "nvshmem", imbalance=0.1, imbalance_sync="cpu")
        assert cpu.time_per_step < gpu.time_per_step

    def test_gpu_resident_wins_for_small_imbalance(self):
        """Leaving the GPU-resident regime has a fixed cost; tiny imbalance
        doesn't justify it on latency-bound workloads."""
        wl = grappa_workload(360_000, 32, EOS)
        gpu = estimate_step(wl, EOS, "nvshmem", imbalance=0.02, imbalance_sync="gpu")
        cpu = estimate_step(wl, EOS, "nvshmem", imbalance=0.02, imbalance_sync="cpu")
        assert gpu.time_per_step < cpu.time_per_step

    def test_unknown_mode(self):
        wl = grappa_workload(360_000, 32, EOS)
        with pytest.raises(ValueError, match="imbalance_sync"):
            estimate_step(wl, EOS, "nvshmem", imbalance=0.1, imbalance_sync="hope")

    def test_ablation_table(self):
        from repro.analysis import ablation_imbalance

        tbl = ablation_imbalance()
        # 2 synthetic cases x 3 imbalance levels x 2 sync modes, plus the
        # executed slab rows (dlb off/pairs x 2 sync modes).
        assert len(tbl.rows) == 16
        executed = [r for r in tbl.rows if "(executed)" in str(r[0])]
        assert len(executed) == 4
        # DLB must reduce the functionally measured imbalance fraction.
        imb = {str(r[0]): float(r[1]) for r in executed}
        assert imb["slab-1400/4r/dlb-pairs (executed)"] < imb["slab-1400/4r/dlb-off (executed)"]
        # The CPU-resync workaround wins for the compute-heavy case at 15%.
        cols = list(tbl.columns)
        step = {
            r[cols.index("sync")]: r[cols.index("step_us")] for r in tbl.rows
            if (r[cols.index("case")], r[cols.index("imbalance")]) == ("2880k/32r", 0.15)
        }
        assert step["cpu"] < step["gpu"]


class TestThreeWay:
    def test_table_orderings(self):
        from repro.analysis import intranode_three_way

        tbl = intranode_three_way()
        assert len(tbl.rows) == 4 * 2 * 3
        cols = list(tbl.columns)
        for size in ("45k", "180k"):
            perf = {
                r[cols.index("backend")]: r[cols.index("ns_per_day")]
                for r in tbl.rows
                if r[cols.index("system")] == size and r[cols.index("gpus")] == 4
            }
            assert perf["threadmpi"] > perf["mpi"]
            assert perf["nvshmem"] > perf["mpi"]
