"""Two-pulse-per-dimension halo exchange (paper Sec. 2.2's second-neighbour
communication: domains thinner than the communication cutoff)."""

import numpy as np
import pytest

from repro.comm import MpiBackend, NvshmemBackend
from repro.dd import DDGrid, DDSimulator
from repro.dd.decomposition import DomainDecomposition
from repro.dd.halo import build_halo_plan
from repro.md import ReferenceSimulator, default_forcefield, make_grappa_system


@pytest.fixture(scope="module")
def ff():
    return default_forcefield(cutoff=0.65)


@pytest.fixture(scope="module")
def system(ff):
    # box ~3.91 nm; 8 slabs along z are 0.489 nm thick < r_comm=0.77.
    return make_grappa_system(6000, seed=7, ff=ff, dtype=np.float64)


class TestValidation:
    def test_single_pulse_rejects_thin_domains(self, system, ff):
        with pytest.raises(ValueError, match="pulses"):
            DomainDecomposition(grid=DDGrid((1, 1, 8)), box=system.box, r_comm=0.77)

    def test_two_pulses_accepts(self, system):
        dd = DomainDecomposition(
            grid=DDGrid((1, 1, 8)), box=system.box, r_comm=0.77, max_pulses=2
        )
        assert dd.npulses == (0, 0, 2)

    def test_pulses_must_stay_below_domain_count(self, system):
        # 2 domains cannot support 2 pulses: data would wrap to its owner.
        with pytest.raises(ValueError, match="wrap"):
            DomainDecomposition(
                grid=DDGrid((1, 1, 2)), box=system.box, r_comm=2.1, max_pulses=2
            )

    def test_max_pulses_validated(self, system):
        with pytest.raises(ValueError):
            DomainDecomposition(
                grid=DDGrid((1, 1, 2)), box=system.box, r_comm=0.7, max_pulses=0
            )


class TestPlanStructure:
    @pytest.fixture(scope="class")
    def plan(self, system):
        dd = DomainDecomposition(
            grid=DDGrid((1, 1, 8)), box=system.box, r_comm=0.77, max_pulses=2
        )
        system.wrap()
        return build_halo_plan(dd, system.positions)

    def test_two_pulses_same_dim(self, plan):
        assert plan.pulse_dims == [2, 2]
        p0, p1 = plan.ranks[0].pulses
        assert (p0.dim, p0.pulse_in_dim) == (2, 0)
        assert (p1.dim, p1.pulse_in_dim) == (2, 1)

    def test_second_pulse_fully_dependent_on_first(self, plan):
        for rp in plan.ranks:
            p1 = rp.pulses[1]
            assert p1.dep_offset == 0
            assert p1.depends_on == (0,)

    def test_zone_shift_reaches_two(self, plan):
        for rp in plan.ranks:
            assert rp.zone_shift[:, 2].max() == 2

    def test_second_pulse_carries_second_neighbour_atoms(self, plan, system):
        """Atoms delivered by pulse 1 originate two domains away."""
        dd = plan.dd
        rp = plan.ranks[0]
        p1 = rp.pulses[1]
        ids = rp.global_ids[p1.atom_offset : p1.atom_offset + p1.recv_size]
        owners = dd.assign_atoms(system.positions[ids])
        coords = {dd.grid.coords_of_rank(int(o))[2] for o in owners}
        assert coords == {2}  # rank 0's second neighbour along z

    def test_pulse0_covers_full_thin_domain(self, plan):
        """With extent < r_comm, pulse 0 sends every home atom."""
        for rp in plan.ranks:
            assert rp.pulses[0].dep_offset == rp.pulses[0].send_size == rp.n_home


class TestCorrectness:
    GRIDS = [((1, 1, 8), None), ((1, 4, 4), None), ((2, 2, 4), None)]

    @pytest.mark.parametrize("shape,_", GRIDS)
    def test_forces_match_reference(self, system, ff, shape, _):
        a = system.copy()
        b = system.copy()
        ref = ReferenceSimulator(a, ff, nstlist=5, buffer=0.12)
        dds = DDSimulator(b, ff, grid=DDGrid(shape), nstlist=5, buffer=0.12, max_pulses=2)
        ref.compute_forces()
        dds.neighbor_search()
        dds.compute_forces()
        scale = np.abs(a.forces).max()
        np.testing.assert_allclose(dds.gathered_forces(), a.forces, atol=1e-10 * scale)

    @pytest.mark.parametrize(
        "backend",
        [MpiBackend(), NvshmemBackend(pes_per_node=4, seed=5), NvshmemBackend(pes_per_node=1, seed=2)],
        ids=["mpi", "nvshmem-mixed", "nvshmem-allIB"],
    )
    def test_trajectory_matches_all_backends(self, system, ff, backend):
        a = system.copy()
        b = system.copy()
        ReferenceSimulator(a, ff, nstlist=5, buffer=0.12).run(8)
        DDSimulator(
            b, ff, grid=DDGrid((1, 1, 8)), nstlist=5, buffer=0.12,
            max_pulses=2, backend=backend,
        ).run(8)
        dx = b.positions - a.positions
        dx -= np.rint(dx / a.box) * a.box
        assert np.abs(dx).max() < 1e-11

    def test_trim_corners_with_two_pulses(self, system, ff):
        a = system.copy()
        b = system.copy()
        ReferenceSimulator(a, ff, nstlist=5, buffer=0.12).run(5)
        DDSimulator(
            b, ff, grid=DDGrid((1, 4, 4)), nstlist=5, buffer=0.12,
            max_pulses=2, trim_corners=True,
        ).run(5)
        dx = b.positions - a.positions
        dx -= np.rint(dx / a.box) * a.box
        assert np.abs(dx).max() < 1e-11

    def test_auto_grid_with_max_pulses(self, system, ff):
        """choose_grid admits finer grids when two pulses are allowed."""
        sim = DDSimulator(system.copy(), ff, n_ranks=8, nstlist=5, buffer=0.12, max_pulses=2)
        assert sim.grid.n_ranks == 8
        sim.run(2)
