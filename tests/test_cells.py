"""Cell-list pair search: correctness against brute force and KDTree."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.md.cells import CellList, periodic_cell_list
from tests.oracles import CellGrid


def brute_force_pairs(positions, cutoff, box=None, periodic=None):
    """O(N^2) reference with per-dimension minimum image."""
    n = len(positions)
    out = set()
    for i in range(n):
        dx = positions[i] - positions[i + 1 :]
        if box is not None:
            shift = np.rint(dx / box) * box
            if periodic is not None:
                shift *= periodic
            dx = dx - shift
        r2 = (dx * dx).sum(axis=1)
        for k in np.nonzero(r2 <= cutoff * cutoff)[0]:
            out.add((i, i + 1 + int(k)))
    return out


def as_set(i, j):
    return set(zip(i.tolist(), j.tolist()))


def open_grid(positions, cutoff):
    """Fully non-periodic grid over the bounding box of ``positions``."""
    return CellGrid.for_rank(positions, np.ones(3), np.zeros(3, bool), cutoff)


class TestPeriodic:
    @pytest.mark.parametrize("n", [0, 1, 2, 50, 400])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        box = np.array([3.0, 3.5, 4.0])
        pos = rng.random((n, 3)) * box
        cl = periodic_cell_list(box, 0.9)
        got = as_set(*cl.pairs_within(pos, 0.9))
        want = brute_force_pairs(pos, 0.9, box, np.ones(3))
        assert got == want

    def test_matches_kdtree(self):
        rng = np.random.default_rng(5)
        box = np.array([4.0, 4.0, 4.0])
        pos = rng.random((500, 3)) * box
        cl = periodic_cell_list(box, 1.0)
        got = as_set(*cl.pairs_within(pos, 1.0))
        tree = cKDTree(pos, boxsize=box)
        want = {(min(a, b), max(a, b)) for a, b in tree.query_pairs(1.0)}
        assert got == want

    def test_cross_boundary_pair_found(self):
        box = np.array([4.0, 4.0, 4.0])
        pos = np.array([[0.05, 1.0, 1.0], [3.95, 1.0, 1.0]])
        cl = periodic_cell_list(box, 1.0)
        i, j = cl.pairs_within(pos, 1.0)
        assert as_set(i, j) == {(0, 1)}

    def test_rejects_small_periodic_extent(self):
        with pytest.raises(ValueError):
            periodic_cell_list(np.array([1.0, 4.0, 4.0]), 0.9)

    def test_two_cells_per_dim_no_duplicates(self):
        """ncells=2 wraps +1 and -1 offsets onto the same neighbour."""
        rng = np.random.default_rng(9)
        box = np.array([2.0, 2.0, 2.0])
        pos = rng.random((120, 3)) * box
        cl = periodic_cell_list(box, 1.0)
        i, j = cl.pairs_within(pos, 1.0)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(set(pairs))
        assert as_set(i, j) == brute_force_pairs(pos, 1.0, box, np.ones(3))


class TestOpenAndMixed:
    def test_open_matches_kdtree(self):
        rng = np.random.default_rng(2)
        pos = rng.random((300, 3)) * 5.0
        cl = open_grid(pos, 0.8)
        got = as_set(*cl.pairs_within(pos, 0.8))
        tree = cKDTree(pos)
        want = {(min(a, b), max(a, b)) for a, b in tree.query_pairs(0.8)}
        assert got == want

    def test_mixed_periodicity(self):
        """Periodic along x only (an undecomposed dimension), open in y/z —
        the geometry of a rank-local search with halo atoms outside the box."""
        rng = np.random.default_rng(4)
        box = np.array([3.0, 3.0, 3.0])
        pos = rng.random((200, 3)) * box
        pos[:, 1] += rng.uniform(-0.5, 0.5, 200)  # spill outside along y
        periodic = np.array([True, False, False])
        lo = np.array([0.0, pos[:, 1].min() - 1e-9, pos[:, 2].min() - 1e-9])
        hi = np.array([3.0, pos[:, 1].max() + 1e-9, pos[:, 2].max() + 1e-9])
        cl = CellList(lo=lo, hi=hi, cutoff=0.8, periodic=periodic)
        got = as_set(*cl.pairs_within(pos, 0.8))
        want = brute_force_pairs(pos, 0.8, box, periodic.astype(float))
        assert got == want

    def test_smaller_search_cutoff_is_subset(self):
        rng = np.random.default_rng(1)
        pos = rng.random((150, 3)) * 4.0
        cl = open_grid(pos, 1.0)
        big = as_set(*cl.pairs_within(pos, 1.0))
        small = as_set(*cl.pairs_within(pos, 0.5))
        assert small <= big

    def test_search_cutoff_cannot_exceed_cell_budget(self):
        pos = np.random.default_rng(0).random((10, 3))
        cl = open_grid(pos, 0.5)
        with pytest.raises(ValueError):
            cl.pairs_within(pos, 0.8)

    def test_canonical_ordering(self):
        rng = np.random.default_rng(8)
        pos = rng.random((100, 3)) * 3.0
        cl = open_grid(pos, 0.9)
        i, j = cl.pairs_within(pos, 0.9)
        assert np.all(i < j)
        order = np.lexsort((j, i))
        np.testing.assert_array_equal(order, np.arange(len(i)))
