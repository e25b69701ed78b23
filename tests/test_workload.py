"""Workload derivation: grid policy, transports, analytic-vs-measured."""

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import make_grappa_system
from repro.md.forcefield import default_forcefield
from repro.md.grappa import grappa_box_length
from repro.obs.metrics import METRICS
from repro.perf.machines import DGX_H100, EOS, GB200_NVL72
from repro.perf.workload import grappa_workload, measured_workload, paper_grid


class TestPaperGrid:
    @pytest.mark.parametrize(
        "n_atoms,ranks,ndim",
        [
            (45_000, 4, 1),
            (90_000, 8, 1),  # paper: 8 ranks -> 1D
            (180_000, 16, 2),  # 16 ranks -> 2D
            (360_000, 32, 3),  # 32 ranks -> 3D
            (720_000, 8, 1),
            (2_880_000, 32, 3),
            (5_760_000, 512, 3),  # "all configurations at scale used 3D"
        ],
    )
    def test_paper_observed_dimensionality(self, n_atoms, ranks, ndim):
        box = np.full(3, grappa_box_length(n_atoms))
        assert paper_grid(ranks, box, 1.1).ndim == ndim

    def test_falls_back_when_tier_invalid(self):
        # 45k on 8 ranks: 1D slabs would be 0.96 nm < r_comm -> must go 2D.
        box = np.full(3, grappa_box_length(45_000))
        assert paper_grid(8, box, 1.1).ndim == 2

    def test_single_rank(self):
        assert paper_grid(1, np.full(3, 10.0), 1.1).shape == (1, 1, 1)

    def test_impossible_raises(self):
        with pytest.raises(ValueError):
            paper_grid(64, np.full(3, 3.0), 1.1)


class TestTransports:
    def test_intra_node_all_nvlink(self):
        wl = grappa_workload(180_000, 8, DGX_H100)
        assert all(p.nvlink for p in wl.pulses)

    def test_mnnvl_all_nvlink(self):
        wl = grappa_workload(720_000, 32, GB200_NVL72)
        assert all(p.nvlink for p in wl.pulses)

    def test_eos_multinode_mixes_transports(self):
        wl = grappa_workload(720_000, 32, EOS)  # 8 nodes x 4 GPUs, 3D
        kinds = {p.dim: p.nvlink for p in wl.pulses}
        assert not all(kinds.values())  # at least one IB dimension

    def test_x_dim_stays_on_node(self):
        """Consecutive ranks along x pack into one node when nx <= 4."""
        wl = grappa_workload(720_000, 32, EOS)
        for p in wl.pulses:
            if p.dim == 0 and wl.grid[0] <= EOS.gpus_per_node:
                assert p.nvlink


class TestWorkloadNumbers:
    def test_basic_sanity(self):
        wl = grappa_workload(45_000, 4, DGX_H100)
        assert wl.n_home == pytest.approx(11_250)
        assert wl.n_pulses == 1
        assert wl.pairs_local > 0 and wl.pairs_nonlocal > 0
        assert wl.halo_atoms > 0

    def test_pulse_dependent_independent_split(self):
        wl = grappa_workload(360_000, 32, EOS)  # 3D
        assert wl.pulses[0].dependent_atoms == pytest.approx(0.0)
        assert wl.pulses[1].dependent_atoms > 0
        assert wl.pulses[2].dependent_atoms > wl.pulses[1].dependent_atoms

    def test_more_ranks_fewer_atoms_per_gpu(self):
        a = grappa_workload(720_000, 8, EOS)
        b = grappa_workload(720_000, 32, EOS)
        assert b.n_home < a.n_home
        assert b.pairs_local < a.pairs_local

    def test_rejects_more_ranks_than_atoms(self):
        with pytest.raises(ValueError):
            grappa_workload(4, 8, EOS)


class TestAnalyticVsMeasured:
    """Pin the analytic volume/pair model against the functional DD."""

    @pytest.fixture(scope="class")
    def sim(self):
        ff = default_forcefield(cutoff=0.65)
        sys_ = make_grappa_system(6000, seed=23, ff=ff, dtype=np.float32)
        sim = DDSimulator(sys_, ff, grid=DDGrid((2, 2, 2)), nstlist=5, buffer=0.12)
        sim.neighbor_search()
        return sim

    def test_pulse_sizes_within_15pct(self, sim):
        from repro.dd.volumes import analytic_pulse_sizes

        pulses = analytic_pulse_sizes(
            sim.system.box, (2, 2, 2), sim.dd.r_comm, sim.system.density
        )
        for pv in pulses:
            measured = np.mean(
                [w.pulse_send_sizes[pv.pulse_id] for w in sim.workloads]
            )
            assert pv.send_size == pytest.approx(measured, rel=0.15)

    def test_pair_counts_within_20pct(self, sim):
        from repro.dd.volumes import analytic_pair_counts

        local, nonlocal_ = analytic_pair_counts(
            sim.system.box, (2, 2, 2), sim._builder_cutoff if hasattr(sim, "_builder_cutoff") else 0.65,
            sim.system.density,
        )
        m_local = np.mean([w.n_pairs_local for w in sim.workloads])
        m_nl = np.mean([w.n_pairs_nonlocal for w in sim.workloads])
        # The functional engine searches at r_list = rc + buffer; rescale the
        # analytic rc^3 estimate to the buffered radius for the comparison.
        scale = ((0.65 + 0.12) / 0.65) ** 3
        assert local * scale == pytest.approx(m_local, rel=0.2)
        assert nonlocal_ * scale == pytest.approx(m_nl, rel=0.35)

    def test_model_pairs_are_the_kernels_useful_fraction(self, sim):
        """The model counts the pairs within the cutoff; the kernel
        evaluates the inner list, every pair within r_c + buffer/2
        (``md.pairs_inner``).  Their ratio is the kernel's useful
        fraction, (r_c / r_inner)³ = 0.767 for a uniform fluid; this
        system reads 0.764 (45k atoms on 8 ranks ≈0.75), so the timing
        model cannot drift from the work ``block_forces`` does."""
        sim.compute_forces()
        inner = METRICS.gauge("md.pairs_inner").value
        wl = grappa_workload(6000, 8, DGX_H100, cutoff=0.65, buffer=0.12, grid=sim.grid)
        model = (wl.pairs_local + wl.pairs_nonlocal) * sim.n_ranks
        assert model / inner == pytest.approx((0.65 / (0.65 + 0.12 / 2)) ** 3, rel=0.05)

    def test_measured_workload_roundtrip(self, sim):
        wl = measured_workload(sim, DGX_H100)
        assert wl.n_ranks == 8
        assert wl.n_pulses == 3
        assert wl.n_home == pytest.approx(750, rel=0.05)
        assert all(p.nvlink for p in wl.pulses)
