"""Serial reference simulator: lifecycle and physics sanity."""

import hashlib
import sys

import numpy as np
import pytest

from repro.md import ReferenceSimulator, default_forcefield, make_grappa_system


@pytest.fixture()
def sim():
    ff = default_forcefield(cutoff=0.65)
    sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    return ReferenceSimulator(sys_, ff, nstlist=5, buffer=0.15)


class TestLifecycle:
    def test_run_records_energies(self, sim):
        recs = sim.run(4)
        assert [r.step for r in recs] == [0, 1, 2, 3]
        assert sim.step_count == 4
        assert all(np.isfinite(r.total) for r in recs)

    def test_forces_finite(self, sim):
        sim.compute_forces()
        assert np.all(np.isfinite(sim.system.forces))

    def test_momentum_conserved_by_forces(self, sim):
        sim.compute_forces()
        np.testing.assert_allclose(sim.system.forces.sum(axis=0), 0.0, atol=1e-8)

    def test_negative_steps_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_pair_list_reused_between_ns(self, sim):
        sim.step()
        pl1 = sim._pairs
        sim.step()
        assert sim._pairs is pl1  # no rebuild inside the nstlist window
        for _ in range(4):
            sim.step()
        assert sim._pairs is not pl1  # rebuilt at the NS step


class TestOracleIndependence:
    def test_kernel_name_never_selects_the_cluster_search(self, monkeypatch):
        """Whatever ``kernel`` names, the oracle builds its list with the
        flat cell-list search and the trajectory is the same."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the reference simulator ran the cluster search")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and hasattr(module, "build_clusters"):
                monkeypatch.setattr(module, "build_clusters", forbidden)

        ff = default_forcefield(cutoff=0.65)
        out = {}
        for kernel in ("segment", "cluster"):
            sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
            sim = ReferenceSimulator(sys_, ff, nstlist=3, buffer=0.12, kernel=kernel)
            builds, last = 0, None
            for _ in range(8):  # builds at steps 0, 3 and 6
                sim.step()
                builds += sim._pairs is not last
                last = sim._pairs
            assert builds >= 3
            digest = hashlib.sha256(
                np.ascontiguousarray(sys_.positions).tobytes()
            ).hexdigest()
            out[kernel] = (digest, [r.total for r in sim.energies])
        assert out["cluster"] == out["segment"]


class TestPhysics:
    def test_energy_conservation_after_equilibration(self):
        """Total energy drift small once the lattice has melted (NVE)."""
        ff = default_forcefield(cutoff=0.65)
        sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
        sim = ReferenceSimulator(sys_, ff, nstlist=5, buffer=0.2, dt=0.001)
        sim.run(60)  # melt / equilibrate
        recs = sim.run(60)
        totals = np.array([r.total for r in recs])
        drift = abs(totals[-1] - totals[0])
        scale = max(1.0, abs(np.mean(totals)), np.abs(np.array([r.kinetic for r in recs])).max())
        assert drift / scale < 0.05

    def test_energies_consistent_with_step(self, sim):
        e_lj, e_coul, _ = sim.compute_forces()
        rec = sim.step()
        # The step recomputes with an identical (cached) pair list.
        assert rec.lj == pytest.approx(e_lj)
        assert rec.coulomb == pytest.approx(e_coul)
        assert rec.potential == pytest.approx(e_lj + e_coul)
