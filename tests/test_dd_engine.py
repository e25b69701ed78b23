"""DD engine vs. serial reference: forces, trajectories, migration, energy,
and the rank-decided rebuild trigger."""

import hashlib

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import ReferenceSimulator, make_grappa_system


def _pair(small_system, ff, shape, **kw):
    a = small_system.copy()
    b = small_system.copy()
    ref = ReferenceSimulator(a, ff, nstlist=5, buffer=0.12)
    dds = DDSimulator(b, ff, grid=DDGrid(shape), nstlist=5, buffer=0.12, **kw)
    return a, b, ref, dds


GRIDS = [(2, 1, 1), (2, 2, 1), (2, 2, 2)]


class TestForces:
    @pytest.mark.parametrize("shape", GRIDS)
    def test_forces_match_reference(self, small_system, ff, shape):
        a, b, ref, dds = _pair(small_system, ff, shape)
        ref.compute_forces()
        dds.neighbor_search()
        dds.compute_forces()
        f = dds.gathered_forces()
        scale = np.abs(a.forces).max()
        np.testing.assert_allclose(f, a.forces, atol=1e-10 * scale)

    def test_forces_match_with_trim(self, small_system, ff):
        a, b, ref, dds = _pair(small_system, ff, (2, 2, 2), trim_corners=True)
        ref.compute_forces()
        dds.neighbor_search()
        dds.compute_forces()
        scale = np.abs(a.forces).max()
        np.testing.assert_allclose(dds.gathered_forces(), a.forces, atol=1e-10 * scale)

    def test_energies_match_reference(self, small_system, ff):
        a, b, ref, dds = _pair(small_system, ff, (2, 2, 2))
        e_ref = ref.compute_forces()
        dds.neighbor_search()
        e_dd = dds.compute_forces()
        assert e_dd[0] == pytest.approx(e_ref[0], rel=1e-9)
        assert e_dd[1] == pytest.approx(e_ref[1], rel=1e-9)


class TestTrajectories:
    @pytest.mark.parametrize("shape", GRIDS)
    def test_trajectory_matches_over_rebuilds(self, small_system, ff, shape):
        """12 steps spanning two NS rebuilds (migration included)."""
        a, b, ref, dds = _pair(small_system, ff, shape)
        ref.run(12)
        dds.run(12)
        dx = b.positions - a.positions
        dx -= np.rint(dx / a.box) * a.box
        assert np.abs(dx).max() < 1e-12

    def test_energy_records_match(self, small_system, ff):
        a, b, ref, dds = _pair(small_system, ff, (2, 2, 1))
        er = ref.run(6)
        ed = dds.run(6)
        for x, y in zip(er, ed):
            assert y.potential == pytest.approx(x.potential, rel=1e-9)
            assert y.kinetic == pytest.approx(x.kinetic, rel=1e-9)

    def test_migration_happens(self, small_system, ff):
        """Across NS rebuilds, some atoms change owners."""
        _, _, _, dds = _pair(small_system, ff, (2, 2, 2))
        dds.run(1)
        first = [set(rp.global_ids[: rp.n_home].tolist()) for rp in dds.cluster.plan.ranks]
        dds.run(10)  # crosses a rebuild at step 5 and 10
        second = [set(rp.global_ids[: rp.n_home].tolist()) for rp in dds.cluster.plan.ranks]
        assert any(a != b for a, b in zip(first, second))


#: Search steps of the hot 1400-atom run below: step 0, then each step
#: after which some atom had moved more than buffer/2 since the last
#: search (``nstlist=50`` never fires in 30 steps).
DRIFT_SEARCHES = [0, 6, 10, 14, 18, 21, 25, 28]


def _drift_run(ff, executor, nudge_at=None):
    """Search steps and final-position digest of a 30-step run; with
    ``nudge_at``, ``system.positions`` is moved 1 nm before that step."""
    system = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    searches = []
    with DDSimulator(system, ff, n_ranks=4, executor=executor, nstlist=50,
                     buffer=0.12, dt=0.002) as sim:
        search = sim.neighbor_search

        def spy():
            searches.append(sim.step_count)
            search()

        sim.neighbor_search = spy
        for k in range(30):
            if k == nudge_at:
                sim.system.positions += 1.0
            sim.step()
        return searches, hashlib.sha256(sim.system.positions.tobytes()).digest()


class TestRebuildTrigger:
    """The buffer/2 rebuild rule, decided from the ranks' own maxima (CI
    runs this class in its executor job)."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_drift_rebuild_steps_are_pinned(self, ff, executor):
        assert _drift_run(ff, executor)[0] == DRIFT_SEARCHES

    def test_gathered_system_is_not_read_between_searches(self, ff):
        """Step 12 is mid-interval: moving the gathered copy before it
        changes no decision, and step 12's gather overwrites it."""
        assert _drift_run(ff, "serial", nudge_at=12) == _drift_run(ff, "serial")


class TestSetup:
    def test_auto_grid_selection(self, small_system, ff):
        dds = DDSimulator(small_system.copy(), ff, n_ranks=4, nstlist=5, buffer=0.12)
        assert dds.grid.n_ranks == 4

    def test_requires_ranks_or_grid(self, small_system, ff):
        with pytest.raises(ValueError):
            DDSimulator(small_system.copy(), ff)

    def test_workload_stats_populated(self, small_system, ff):
        dds = DDSimulator(small_system.copy(), ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.12)
        dds.neighbor_search()
        assert len(dds.workloads) == 4
        w = dds.workloads[0]
        assert w.n_home > 0 and w.n_halo > 0
        assert w.n_pairs_local > 0 and w.n_pairs_nonlocal > 0
        assert len(w.pulse_send_sizes) == dds.cluster.plan.n_pulses

    def test_negative_steps_rejected(self, small_system, ff):
        dds = DDSimulator(small_system.copy(), ff, n_ranks=2, nstlist=5, buffer=0.12)
        with pytest.raises(ValueError):
            dds.run(-1)

    def test_float32_close_to_reference(self, small_system_f32, ff):
        a = small_system_f32.copy()
        b = small_system_f32.copy()
        ref = ReferenceSimulator(a, ff, nstlist=5, buffer=0.12)
        dds = DDSimulator(b, ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.12)
        ref.run(3)
        dds.run(3)
        dx = (b.positions - a.positions).astype(np.float64)
        dx -= np.rint(dx / a.box) * a.box
        # f32 accumulation order differs between engines: small tolerance.
        assert np.abs(dx).max() < 5e-5
