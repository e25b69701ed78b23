"""Spatial domains and home-atom assignment."""

import warnings

import numpy as np
import pytest

from repro.dd.decomposition import DomainDecomposition
from repro.dd.grid import DDGrid


@pytest.fixture()
def dd():
    return DomainDecomposition(grid=DDGrid((2, 2, 2)), box=np.full(3, 4.0), r_comm=1.0)


class TestBounds:
    def test_domains_tile_box(self, dd):
        vol = sum(float(np.prod(dd.bounds_of_rank(r).extent)) for r in range(8))
        assert vol == pytest.approx(64.0)

    def test_top_domain_closes_box(self, dd):
        top = dd.grid.rank_of_coords((1, 1, 1))
        np.testing.assert_allclose(dd.bounds_of_rank(top).hi, dd.box)

    def test_contains(self, dd):
        b = dd.bounds_of_rank(0)
        assert b.contains(np.array([[0.1, 0.1, 0.1]]))[0]
        assert not b.contains(np.array([[2.1, 0.1, 0.1]]))[0]

    def test_thin_domain_rejected(self):
        with pytest.raises(ValueError):
            DomainDecomposition(grid=DDGrid((8, 1, 1)), box=np.full(3, 4.0), r_comm=1.0)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            DomainDecomposition(grid=DDGrid((1, 1, 1)), box=np.array([1.0, -1.0, 1.0]), r_comm=0.5)


class TestAssignment:
    def test_every_atom_assigned_once(self, dd):
        rng = np.random.default_rng(0)
        pos = rng.random((500, 3)) * 4.0
        home = dd.home_indices(pos)
        all_ids = np.concatenate(home)
        assert sorted(all_ids.tolist()) == list(range(500))

    def test_assignment_matches_bounds(self, dd):
        rng = np.random.default_rng(1)
        pos = rng.random((200, 3)) * 4.0
        owners = dd.assign_atoms(pos)
        for r in range(8):
            b = dd.bounds_of_rank(r)
            mask = owners == r
            assert np.all(b.contains(pos[mask]))

    def test_unwrapped_positions_handled(self, dd):
        pos = np.array([[4.5, -0.5, 1.0]])  # outside primary cell
        owner = dd.assign_atoms(pos)[0]
        b = dd.bounds_of_rank(owner)
        wrapped = np.mod(pos, 4.0)
        assert b.contains(wrapped)[0]

    @pytest.mark.parametrize("edges", [None, [0.0, 1.5, 4.0]])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_position_is_refused_by_name(self, dd, edges, bad):
        """Uniform cells and DLB edges alike: one ValueError naming the
        first non-finite atom, no cast warning and no home for it."""
        if edges is not None:
            dd.set_boundaries(0, np.array(edges))
        pos = np.random.default_rng(3).random((50, 3)) * 4.0
        pos[17, 1] = bad
        pos[31, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^atom 17 has a non-finite position"):
                dd.assign_atoms(pos)
            with pytest.raises(ValueError, match="atom 17"):
                dd.home_indices(pos)

    def test_boundary_atom_goes_to_upper_domain(self, dd):
        pos = np.array([[2.0, 0.0, 0.0]])  # exactly on the x midplane
        owner = dd.assign_atoms(pos)[0]
        assert dd.grid.coords_of_rank(owner)[0] == 1

    def test_load_roughly_balanced_for_uniform_density(self, dd):
        rng = np.random.default_rng(2)
        pos = rng.random((8000, 3)) * 4.0
        home = dd.home_indices(pos)
        counts = np.array([len(h) for h in home])
        assert counts.min() > 0.8 * counts.mean()
