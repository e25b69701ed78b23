"""Inhomogeneous system generators and the end-to-end DLB story.

Generator coverage: exact atom counts, wrapped positions, reproducible
seeds, and the density contrast each scenario promises (slab/droplet
dense regions, the gap's true vacuum).  End to end: a slab under a
uniform z decomposition starts badly imbalanced — visible both in the
deterministic per-rank pair counts and in the wall-clock
:mod:`repro.par.imbalance` summary — and ``dlb="pairs"`` reduces the measured
imbalance by at least the documented 2x.
"""

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import (
    default_forcefield,
    density_profile,
    make_droplet_system,
    make_grappa_system,
    make_slab_system,
    make_system,
    make_vacuum_gap_system,
)
from repro.md.grappa import resolve_atoms, resolve_scenario, strip_scenario
from repro.md.inhomogeneous import GAP_FRACTION, SLAB_FRACTION
from repro.obs.metrics import METRICS
from repro.par.imbalance import summarize_imbalance

MAKERS = (make_slab_system, make_droplet_system, make_vacuum_gap_system)


class TestGenerators:
    @pytest.mark.parametrize("maker", MAKERS)
    def test_exact_atom_count(self, maker):
        for n in (100, 1400):
            sys = maker(n, seed=5)
            assert sys.n_atoms == n

    @pytest.mark.parametrize("maker", MAKERS)
    def test_positions_inside_box(self, maker):
        sys = maker(1400, seed=5)
        assert np.all(sys.positions >= 0.0)
        assert np.all(sys.positions < sys.box)

    @pytest.mark.parametrize("maker", MAKERS)
    def test_seeds_reproducible(self, maker):
        a = maker(500, seed=9)
        b = maker(500, seed=9)
        c = maker(500, seed=10)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)
        assert not np.array_equal(a.positions, c.positions)

    @pytest.mark.parametrize("maker", MAKERS)
    def test_minimum_size_enforced(self, maker):
        with pytest.raises(ValueError, match="at least 30"):
            maker(10)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="slab_fraction"):
            make_slab_system(100, slab_fraction=0.95)
        with pytest.raises(ValueError, match="diameter_fraction"):
            make_droplet_system(100, diameter_fraction=0.05)
        with pytest.raises(ValueError, match="gap_fraction"):
            make_vacuum_gap_system(100, gap_fraction=0.9)

    def test_slab_density_contrast(self):
        sys = make_slab_system(2000, seed=3)
        edges, rho = density_profile(sys, axis=2, bins=10)
        mids = (edges[:-1] + edges[1:]) / 2.0 / float(sys.box[2])
        half = SLAB_FRACTION / 2.0
        dense = rho[np.abs(mids - 0.5) < half * 0.8]
        sparse = rho[np.abs(mids - 0.5) > half * 1.3]
        assert dense.size and sparse.size
        assert dense.mean() > 5.0 * max(sparse.mean(), 1e-12)

    def test_gap_is_true_vacuum(self):
        sys = make_vacuum_gap_system(2000, seed=3)
        edges, rho = density_profile(sys, axis=2, bins=24)
        mids = (edges[:-1] + edges[1:]) / 2.0 / float(sys.box[2])
        gap = rho[np.abs(mids - 0.5) < GAP_FRACTION / 2.0 * 0.8]
        assert gap.size and np.all(gap == 0.0)

    def test_droplet_center_dense_corners_empty(self):
        sys = make_droplet_system(2000, seed=3)
        L = float(sys.box[0])
        center_r2 = np.sum((sys.positions - 0.5 * L) ** 2, axis=1)
        # Most atoms sit inside the droplet radius (0.55/2 of the edge).
        assert np.mean(center_r2 < (0.30 * L) ** 2) > 0.9
        corner = np.all(sys.positions < 0.1 * L, axis=1)
        assert corner.sum() <= 5  # at most stray vapor

    def test_density_profile_validation(self):
        sys = make_slab_system(100, seed=1)
        with pytest.raises(ValueError, match="axis"):
            density_profile(sys, axis=3)


class TestLabels:
    def test_scenario_resolution(self):
        assert resolve_scenario("slab-45k") == "slab"
        assert resolve_scenario("droplet-1400") == "droplet"
        assert resolve_scenario("gap-90k") == "gap"
        assert resolve_scenario("45k") == "uniform"
        assert resolve_scenario(45000) == "uniform"
        assert strip_scenario("slab-45k") == "45k"
        assert resolve_atoms("gap-45k") == 45_000

    def test_make_system_dispatch(self, ff):
        slab = make_system("slab-1400", seed=3, ff=ff, dtype=np.float64)
        direct = make_slab_system(1400, seed=3, ff=ff, dtype=np.float64)
        np.testing.assert_array_equal(slab.positions, direct.positions)
        uniform = make_system("1400", seed=3, ff=ff, dtype=np.float64)
        legacy = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
        np.testing.assert_array_equal(uniform.positions, legacy.positions)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_system("blob-45k")


class TestEndToEnd:
    """The DLB story on one slab: uniform decomposition starts badly
    imbalanced, the balancer cuts it by the documented >= 2x."""

    def _sim(self, ff, dlb):
        sys = make_system("slab-1400", seed=3, ff=ff, dtype=np.float64)
        return DDSimulator(
            sys, ff, grid=DDGrid((1, 1, 4)), nstlist=2, buffer=0.12,
            max_pulses=2, dlb=dlb,
        )

    def test_dlb_reduces_measured_imbalance_2x(self, ff):
        METRICS.reset()
        sim = self._sim(ff, "pairs")
        # First DLB update fires at the step-2 neighbour search, fed by
        # the step-0 pair counts of the still-uniform grid.
        sim.run(3)
        assert sim.dlb_adjustments >= 1
        start_pct = sim._dlb.last_imbalance_before
        assert start_pct > 100.0  # uniform slab: >2x slower than mean
        sim.run(18)
        end_pct = sim._dlb.last_imbalance_before
        assert end_pct < start_pct / 2.0  # the documented factor
        # The dd.dlb.* metrics tell the same story.
        gauges = {
            name: m.value
            for name, _, m in METRICS.collect("dd.dlb.imbalance")
        }
        assert gauges["dd.dlb.imbalance_before_pct"] == pytest.approx(end_pct)
        # The post-move prediction is model-based (it can sit above the
        # measured value once the cutoff floor binds) but must stay far
        # below the uniform-grid starting point.
        assert gauges["dd.dlb.imbalance_after_pct"] < start_pct / 2.0

    def test_wallclock_imbalance_surfaces_on_slab(self, ff):
        """``summarize_imbalance`` (wall-clock rank timings) sees the slab skew
        without DLB — the signal `dlb="measured"` feeds on."""
        METRICS.reset()
        sim = self._sim(ff, "off")
        sim.run(6)
        summary = summarize_imbalance(executor="serial")
        overall = summary["serial"]["overall"]["imbalance_pct"]
        assert overall > 30.0
