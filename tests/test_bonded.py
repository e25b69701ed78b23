"""Bonded interactions: kernels, topology, exclusions, DD assignment."""

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import ReferenceSimulator, default_forcefield
from repro.md.bonded import angle_forces, bond_forces, exclusion_correction
from repro.md.cells import periodic_cell_list
from repro.md.topology import Topology, make_molecular_grappa_system
from tests.test_kernels import assert_each_pair_once, global_pairs


@pytest.fixture(scope="module")
def ff():
    return default_forcefield(cutoff=0.65)


class TestBondKernel:
    def test_equilibrium_zero_force(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        f, e = bond_forces(pos, np.array([[0, 1]]), np.array([0.1]), np.array([1000.0]))
        assert e == pytest.approx(0.0)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_stretched_bond(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        f, e = bond_forces(pos, np.array([[0, 1]]), np.array([0.1]), np.array([1000.0]))
        assert e == pytest.approx(0.5 * 1000 * 0.1**2)
        assert f[0, 0] > 0 and f[1, 0] < 0  # pulled together
        np.testing.assert_allclose(f[0], -f[1])

    def test_numeric_gradient(self):
        rng = np.random.default_rng(0)
        pos = rng.random((2, 3))
        bonds = np.array([[0, 1]])
        r0, k = np.array([0.25]), np.array([500.0])
        _, e0 = bond_forces(pos, bonds, r0, k)
        f, _ = bond_forces(pos, bonds, r0, k)
        h = 1e-7
        for dim in range(3):
            p = pos.copy()
            p[0, dim] += h
            _, e1 = bond_forces(p, bonds, r0, k)
            assert f[0, dim] == pytest.approx(-(e1 - e0) / h, rel=1e-4, abs=1e-6)

    def test_minimum_image_across_boundary(self):
        box = np.array([2.0, 2.0, 2.0])
        pos = np.array([[0.05, 1.0, 1.0], [1.95, 1.0, 1.0]])  # 0.1 apart via PBC
        _, e = bond_forces(pos, np.array([[0, 1]]), np.array([0.1]), np.array([1000.0]), box=box)
        assert e == pytest.approx(0.0, abs=1e-10)

    def test_empty(self):
        f, e = bond_forces(np.zeros((3, 3)), np.empty((0, 2), np.int64), np.empty(0), np.empty(0))
        assert e == 0.0 and np.all(f == 0)


class TestAngleKernel:
    def _water(self, theta):
        return np.array(
            [
                [0.1 * np.cos(theta / 2), 0.1 * np.sin(theta / 2), 0.0],
                [0.0, 0.0, 0.0],  # vertex
                [0.1 * np.cos(theta / 2), -0.1 * np.sin(theta / 2), 0.0],
            ]
        )

    def test_equilibrium_zero(self):
        t0 = np.deg2rad(104.5)
        pos = self._water(t0)
        f, e = angle_forces(pos, np.array([[0, 1, 2]]), np.array([t0]), np.array([400.0]))
        assert e == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(f, 0.0, atol=1e-9)

    def test_energy_quadratic(self):
        t0 = np.deg2rad(104.5)
        pos = self._water(t0 + 0.2)
        _, e = angle_forces(pos, np.array([[0, 1, 2]]), np.array([t0]), np.array([400.0]))
        assert e == pytest.approx(0.5 * 400 * 0.2**2, rel=1e-9)

    def test_numeric_gradient(self):
        rng = np.random.default_rng(2)
        pos = rng.random((3, 3))
        angles = np.array([[0, 1, 2]])
        t0, k = np.array([1.9]), np.array([300.0])
        f, e0 = angle_forces(pos, angles, t0, k)
        h = 1e-7
        for atom in range(3):
            for dim in range(3):
                p = pos.copy()
                p[atom, dim] += h
                _, e1 = angle_forces(p, angles, t0, k)
                assert f[atom, dim] == pytest.approx(
                    -(e1 - e0) / h, rel=1e-4, abs=1e-5
                )

    def test_net_force_and_torque_free(self):
        rng = np.random.default_rng(3)
        pos = rng.random((3, 3))
        f, _ = angle_forces(pos, np.array([[0, 1, 2]]), np.array([1.8]), np.array([250.0]))
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12)
        torque = np.cross(pos, f).sum(axis=0)
        np.testing.assert_allclose(torque, 0.0, atol=1e-10)


class TestExclusionCorrection:
    def test_rf_numeric_gradient(self, ff):
        pos = np.array([[0.0, 0.0, 0.0], [0.12, 0.05, 0.0]])
        q = np.array([-0.4, 0.2])
        i, j = np.array([0]), np.array([1])
        f, e0 = exclusion_correction(pos, i, j, q, ff)
        h = 1e-7
        p = pos.copy()
        p[0, 0] += h
        _, e1 = exclusion_correction(p, i, j, q, ff)
        assert f[0, 0] == pytest.approx(-(e1 - e0) / h, rel=1e-4, abs=1e-7)



class TestTopology:
    def test_molecules_derived_from_bonds(self):
        top = Topology(
            n_atoms=7,
            bonds=np.array([[0, 1], [0, 2], [3, 4], [4, 5]]),
            bond_r0=np.ones(4) * 0.1,
            bond_k=np.ones(4),
            angles=np.empty((0, 3), np.int64),
            angle_theta0=np.empty(0),
            angle_k=np.empty(0),
        )
        mol = top.molecule_of
        assert mol[0] == mol[1] == mol[2]
        assert mol[3] == mol[4] == mol[5]
        assert mol[0] != mol[3] != mol[6]

    def test_exclusion_pairs_per_molecule(self):
        _, top = make_molecular_grappa_system(10, seed=1)
        i, j = top.exclusion_pairs()
        assert len(i) == 10 * 3  # 3 intramolecular pairs per triatomic
        assert np.all(top.molecule_of[i] == top.molecule_of[j])
        assert np.all(i < j)

    def test_generator_geometry(self, ff):
        sys_, top = make_molecular_grappa_system(50, seed=2, ff=ff)
        assert sys_.n_atoms == 150
        assert top.n_bonds == 100 and top.n_angles == 50
        # Bonds start at their equilibrium length (min image!).
        i, j = top.bonds[:, 0], top.bonds[:, 1]
        dx = sys_.positions[i] - sys_.positions[j]
        dx -= np.rint(dx / sys_.box) * sys_.box
        r = np.linalg.norm(dx, axis=1)
        np.testing.assert_allclose(r, top.bond_r0, rtol=1e-10)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(
                n_atoms=2, bonds=np.array([[0, 5]]), bond_r0=np.ones(1),
                bond_k=np.ones(1), angles=np.empty((0, 3), np.int64),
                angle_theta0=np.empty(0), angle_k=np.empty(0),
            )


class TestDdBonded:
    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_forces_match_serial(self, ff, shape):
        sys_a, top = make_molecular_grappa_system(500, seed=5, ff=ff)
        sys_b = sys_a.copy()
        ref = ReferenceSimulator(sys_a, ff, nstlist=5, buffer=0.15, topology=top)
        dds = DDSimulator(
            sys_b, ff, grid=DDGrid(shape), nstlist=5, buffer=0.15, topology=top
        )
        ref.compute_forces()
        dds.neighbor_search()
        dds.compute_forces()
        scale = np.abs(sys_a.forces).max()
        np.testing.assert_allclose(
            dds.gathered_forces(), sys_a.forces, atol=1e-11 * scale
        )

    def test_trajectory_and_energies_match(self, ff):
        sys_a, top = make_molecular_grappa_system(500, seed=5, ff=ff)
        sys_b = sys_a.copy()
        ra = ReferenceSimulator(
            sys_a, ff, nstlist=5, buffer=0.15, dt=0.001, topology=top
        ).run(10)
        rb = DDSimulator(
            sys_b, ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.15, dt=0.001,
            topology=top,
        ).run(10)
        dx = sys_b.positions - sys_a.positions
        dx -= np.rint(dx / sys_a.box) * sys_a.box
        assert np.abs(dx).max() < 1e-12
        for x, y in zip(ra, rb):
            assert y.bonded == pytest.approx(x.bonded, rel=1e-10)
            assert y.coulomb == pytest.approx(x.coulomb, rel=1e-10)

    def test_exclusion_lists_are_sorted_and_kernel_independent(self, ff):
        """``exclusion_correction`` accumulates in list order, so the lists
        leave the search (i, j)-sorted — never in tile order.  In global
        ids they are the serial reference's: of its cell list's pairs
        within ``r_comm``, the same-molecule ones are excluded on exactly
        one rank and the rest are listed on exactly one rank."""
        sys_, top = make_molecular_grappa_system(500, seed=5, ff=ff)
        with DDSimulator(
            sys_, ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.15,
            topology=top,
        ) as dds:
            dds.neighbor_search()
            excl = [
                part
                for ws in dds.executor._ws
                for part in (ws.pairs.excl_local, ws.pairs.excl_nonlocal)
            ]
            got = global_pairs(dds), global_pairs(dds, ("excl_local", "excl_nonlocal"))
            pos, r_comm = dds.system.positions, dds.dd.r_comm
            i, j = periodic_cell_list(dds.system.box, r_comm).pairs_within(pos, r_comm)
        assert sum(ci.size for ci, _ in excl) > 0
        for ci, cj in excl:
            assert np.all(ci < cj)
            order = np.lexsort((cj, ci))
            assert np.array_equal(order, np.arange(ci.size))
        same = top.molecule_of[i] == top.molecule_of[j]
        assert_each_pair_once(got[0], i[~same], j[~same], n=pos.shape[0])
        assert_each_pair_once(got[1], i[same], j[same], n=pos.shape[0])

    def test_every_bond_assigned_exactly_once(self, ff):
        sys_, top = make_molecular_grappa_system(400, seed=8, ff=ff)
        dds = DDSimulator(
            sys_, ff, grid=DDGrid((2, 2, 2)), nstlist=5, buffer=0.15, topology=top
        )
        dds.neighbor_search()
        n_bonds = sum(len(b["bonds"]) for b in dds._bonded)
        n_angles = sum(len(b["angles"]) for b in dds._bonded)
        assert n_bonds == top.n_bonds
        assert n_angles == top.n_angles

    def test_bonded_with_nvshmem(self, ff):
        """Molecules through the fused NVSHMEM halo (NVLink and proxied
        pulses) against the serial reference."""
        from repro.comm import NvshmemBackend

        sys_a, top = make_molecular_grappa_system(400, seed=9, ff=ff)
        sys_b = sys_a.copy()
        ReferenceSimulator(
            sys_a, ff, nstlist=5, buffer=0.15, dt=0.001, topology=top
        ).run(6)
        DDSimulator(
            sys_b, ff, grid=DDGrid((2, 2, 1)), nstlist=5, buffer=0.15, dt=0.001,
            topology=top, backend=NvshmemBackend(pes_per_node=2, seed=6),
        ).run(6)
        dx = sys_b.positions - sys_a.positions
        dx -= np.rint(dx / sys_a.box) * sys_a.box
        assert np.abs(dx).max() < 1e-11

    def test_energy_conservation_molecular(self, ff):
        sys_, top = make_molecular_grappa_system(300, seed=4, ff=ff)
        sim = ReferenceSimulator(sys_, ff, nstlist=5, buffer=0.2, dt=0.0005, topology=top)
        sim.run(60)
        recs = sim.run(60)
        totals = np.array([r.total for r in recs])
        scale = max(abs(totals.mean()), np.abs([r.kinetic for r in recs]).max())
        assert abs(totals[-1] - totals[0]) / scale < 0.05
