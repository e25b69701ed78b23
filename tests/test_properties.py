"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dd.decomposition import DomainDecomposition
from repro.dd.grid import DDGrid
from repro.dd.halo import build_halo_plan
from repro.md.cells import BuildBudget, CellList, periodic_cell_list
from repro.md.forcefield import default_forcefield
from repro.md.nonbonded import DualList
from repro.md.system import minimum_image, wrap_positions
from repro.par.phases import (
    RankConfig, RankNsData, RankWorkspace, _guard, _prune, pair_search,
)
from tests import oracles
from tests.oracles import build_clusters, cluster_pair_candidates, cluster_tile_pairs
from tests.test_halo_plan import random_dlb_edges

# -- strategies ---------------------------------------------------------------

boxes = st.tuples(
    st.floats(2.2, 6.0), st.floats(2.2, 6.0), st.floats(2.2, 6.0)
).map(np.array)

seeds = st.integers(0, 2**31 - 1)


def _random_positions(seed, n, box):
    return np.random.default_rng(seed).random((n, 3)) * box


# -- PBC helpers -----------------------------------------------------------------


class TestPbcProperties:
    @given(seed=seeds, box=boxes)
    @settings(max_examples=50, deadline=None)
    def test_wrap_idempotent_and_in_box(self, seed, box):
        pos = np.random.default_rng(seed).uniform(-20, 20, (40, 3))
        w = wrap_positions(pos, box)
        assert np.all(w >= 0) and np.all(w < box)
        np.testing.assert_allclose(wrap_positions(w, box), w, atol=1e-12)

    @given(seed=seeds, box=boxes)
    @settings(max_examples=50, deadline=None)
    def test_wrap_preserves_image_class(self, seed, box):
        """Wrapping shifts by exact integer box multiples."""
        pos = np.random.default_rng(seed).uniform(-20, 20, (20, 3))
        w = wrap_positions(pos, box)
        k = (pos - w) / box
        np.testing.assert_allclose(k, np.rint(k), atol=1e-9)

    @given(seed=seeds, box=boxes)
    @settings(max_examples=50, deadline=None)
    def test_minimum_image_smallest(self, seed, box):
        dx = np.random.default_rng(seed).uniform(-15, 15, (30, 3))
        mi = minimum_image(dx.copy(), box)
        assert np.all(np.abs(mi) <= box / 2 + 1e-9)
        # Same image class.
        k = (dx - mi) / box
        np.testing.assert_allclose(k, np.rint(k), atol=1e-9)


# -- cell list vs brute force ---------------------------------------------------------


class TestCellListProperties:
    @given(
        seed=seeds,
        n=st.integers(2, 120),
        cutoff=st.floats(0.4, 1.0),
        box=boxes,
    )
    @settings(max_examples=40, deadline=None)
    def test_periodic_pairs_match_brute_force(self, seed, n, cutoff, box):
        pos = _random_positions(seed, n, box)
        cl = periodic_cell_list(box, cutoff)
        i, j = cl.pairs_within(pos, cutoff)
        got = set(zip(i.tolist(), j.tolist()))
        want = set()
        for a in range(n):
            dx = pos[a] - pos[a + 1 :]
            dx -= np.rint(dx / box) * box
            r2 = (dx * dx).sum(axis=1)
            for k in np.nonzero(r2 <= cutoff * cutoff)[0]:
                want.add((a, a + 1 + int(k)))
        assert got == want

    @given(seed=seeds, n=st.integers(2, 100), cutoff=st.floats(0.3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_open_pairs_symmetric_under_translation(self, seed, n, cutoff):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3)) * 4.0
        shift = rng.uniform(-3, 3, 3)

        def pairs(p):
            lo = p.min(axis=0) - 1e-9
            hi = np.maximum(p.max(axis=0) + 1e-9, lo + cutoff)
            cl = CellList(lo=lo, hi=hi, cutoff=cutoff, periodic=np.zeros(3, bool))
            i, j = cl.pairs_within(p, cutoff)
            return set(zip(i.tolist(), j.tolist()))

        assert pairs(pos) == pairs(pos + shift)


# -- cluster search vs brute force ---------------------------------------------------


def _aabb_candidates(a, b, r_list, box, periodic, same):
    """The candidate oracle: the bounding-box gap test over *all* cluster
    pairs — quadratic, and sharing nothing with the column search."""
    dc = np.abs(a.centers[:, None, :] - b.centers[None, :, :])
    dc = np.where(periodic, np.minimum(dc, box - dc), dc)
    gap = np.maximum(dc - (a.half[:, None, :] + b.half[None, :, :]), 0.0)
    keep = (gap * gap).sum(axis=-1) <= r_list * r_list
    if same:
        keep = np.triu(keep)
    return set(zip(*(v.tolist() for v in np.nonzero(keep))))


def _atom_pairs(pos, rows_a, rows_b, r_list, box, periodic, same):
    """The atom oracle: every (i, j) across two row sets within ``r_list``
    by minimum image (i < j when the sets are the same)."""
    dx = pos[rows_a][:, None, :] - pos[rows_b][None, :, :]
    dx -= np.where(periodic, np.rint(dx / box) * box, 0.0)
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2 + dx[..., 2] ** 2
    keep = r2 <= r_list * r_list
    if same:
        keep = np.triu(keep, k=1)
    ia, ib = np.nonzero(keep)
    return set(zip(rows_a[ia].tolist(), rows_b[ib].tolist()))


class TestClusterSearchProperties:
    """Column + z-window candidates and the slot-major tile test, over
    every periodicity, wrapping boxes, home/halo layout pairs, padding."""

    R_LIST = 0.5

    @given(
        seed=seeds,
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()).map(np.array),
        # Down to 1.2 r_list: a widened window then exceeds the box and
        # its three images overlap each other.
        box=st.tuples(*[st.floats(0.6, 2.4)] * 3).map(np.array),
        n_home=st.integers(0, 160),
        n_halo=st.integers(0, 120),
        tight_grid=st.booleans(),
        # Tuned chunk lengths, or tiny ones that cut every stage often.
        chunks=st.sampled_from([{}, {"CHUNK_A_CLUSTERS": 1, "CHUNK_CANDIDATES": 7,
                                     "CHUNK_TILES": 64}]),
    )
    @settings(max_examples=120, deadline=None)
    def test_candidates_and_tile_pairs_match_oracles(
        self, seed, periodic, box, n_home, n_halo, tight_grid, chunks
    ):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in chunks.items():
                mp.setattr(oracles, name, value)
            self._check(seed, periodic, box, n_home, n_halo, tight_grid)

    def _check(self, seed, periodic, box, n_home, n_halo, tight_grid):
        rng = np.random.default_rng(seed)
        r_list = self.R_LIST
        # Home rows inside the box; halo rows beyond it along the
        # non-periodic (decomposed) dimensions, as shifted copies are.
        home = rng.random((n_home, 3)) * box
        reach = np.where(periodic, 0.0, r_list)
        halo = rng.random((n_halo, 3)) * (box + reach)
        pos = np.vstack([home, halo])
        n = n_home + n_halo
        # The column grid need not cover the atoms (they clip onto its
        # edge columns); periodic dimensions always span the box.
        lo = np.zeros(3)
        hi = np.where(periodic | ~tight_grid, box + reach, 0.5 * box)
        lay_home = build_clusters(home, lo, hi, 4, n_total=n)
        lay_halo = build_clusters(halo, lo, hi, 4, index_offset=n_home, n_total=n)
        rows_home, rows_halo = np.arange(n_home), np.arange(n_home, n)

        for a, b, rows_a, rows_b in (
            (lay_home, lay_home, rows_home, rows_home),
            (lay_home, lay_halo, rows_home, rows_halo),
            (lay_halo, lay_halo, rows_halo, rows_halo),
        ):
            same = a is b
            budget = BuildBudget()
            ci, cj = cluster_pair_candidates(
                a, b, r_list, box, periodic, same, budget=budget
            )
            got = list(zip(ci.tolist(), cj.tolist()))
            assert len(set(got)) == len(got), "cluster pair emitted twice"
            assert budget.candidates >= len(got)
            assert np.all(np.diff(ci) >= 0), "candidates not ordered by ci"
            if same:
                assert np.all(ci <= cj)
            # Exactly the box-gap set, up to rounding at the threshold.
            assert set(got) >= _aabb_candidates(a, b, r_list, box, periodic, same)
            assert set(got) <= _aabb_candidates(
                a, b, r_list * 1.0002, box, periodic, same
            )

            want = _atom_pairs(pos, rows_a, rows_b, r_list, box, periodic, same)
            cluster_of = {}
            for lay in (a, b):
                for c, row in enumerate(lay.atoms.tolist()):
                    cluster_of.update({atom: c for atom in row if atom < n})
            for i, j in want:
                pair = (cluster_of[i], cluster_of[j])
                assert pair in set(got) or (same and pair[::-1] in set(got))

            # Zone bits on the halo-halo group only, as build_split does.
            bits = rng.integers(0, 8, n).astype(np.uint8) if a is lay_halo else None
            pi, pj = cluster_tile_pairs(
                pos, a, b, ci, cj, r_list, box, periodic, same, budget=budget,
                zone_bits=bits,
            )
            pairs = list(zip(np.minimum(pi, pj).tolist(), np.maximum(pi, pj).tolist()))
            assert len(set(pairs)) == len(pairs), "atom pair listed twice"
            assert set(pairs) == {
                (min(p), max(p)) for p in want
                if bits is None or not bits[p[0]] & bits[p[1]]
            }


class TestDualListProperties:
    """The rank prune and its guard over every periodicity and box: the
    search leaves exactly the outer pairs within ``r_inner``, and drift
    just under the guard's ``buffer/4`` never hides a cutoff pair."""

    CUTOFF, BUFFER = 0.4, 0.16

    @given(
        seed=seeds,
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()).map(np.array),
        box=st.tuples(*[st.floats(0.6, 2.4)] * 3).map(np.array),
        n=st.integers(2, 150),
        under=st.floats(0.5, 0.999999),
    )
    @settings(max_examples=80, deadline=None)
    def test_drift_under_the_guard_never_drops_a_cutoff_pair(
        self, seed, periodic, box, n, under
    ):
        rng = np.random.default_rng(seed)
        cutoff, r_list = self.CUTOFF, self.CUTOFF + self.BUFFER
        pos = rng.random((n, 3)) * box
        rows = np.arange(n)
        outer = np.array(
            sorted(_atom_pairs(pos, rows, rows, r_list, box, periodic, True)),
            dtype=np.int32,
        ).reshape(-1, 2)
        ff = default_forcefield(cutoff=cutoff)
        cfg = RankConfig(
            ff=ff, dtype="float64", integrator=None, box=box, periodic=periodic,
            r_comm=r_list,
        )
        ws = RankWorkspace(
            cfg=cfg, ns=RankNsData(rank=0, n_home=n, zone_shift=np.zeros((n, 3))),
            pos=pos.copy(), vel=np.zeros((n, 3)), forces=np.zeros((n, 3)),
            types=np.zeros(n, np.int32), charges=np.zeros(n), masses=np.ones(n),
        )
        half = DualList(outer[:, 0], outer[:, 1], rows=n)
        _prune(ws, half)
        inner = set(zip(half.block.i.tolist(), half.block.j.tolist()))

        # Each atom heads straight for the partner of its closest pruned
        # pair (random direction if it has none), by just under buffer/4.
        step = rng.normal(size=(n, 3))
        dx = pos[outer[:, 1]] - pos[outer[:, 0]]
        dx -= np.where(periodic, np.rint(dx / box) * box, 0.0)
        r = np.linalg.norm(dx, axis=1)
        for k in np.argsort(-r):
            a, b = outer[k]
            if (a, b) not in inner:
                step[a], step[b] = dx[k], -dx[k]
        step *= under * cfg.prune_drift / np.linalg.norm(step, axis=1, keepdims=True)
        ws.pos += step
        assert not _guard(ws, half)
        near = _atom_pairs(ws.pos, rows, rows, cutoff, box, periodic, True)
        assert near <= inner

    @given(
        seed=seeds,
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()).map(np.array),
        # Periodic extents of at least 2 r_comm, as the rank grid requires.
        box=st.tuples(*[st.floats(1.3, 2.4)] * 3).map(np.array),
        n_home=st.integers(1, 120),
        n_halo=st.integers(0, 100),
        # Positions on a 1/8 nm lattice put pairs at exactly r_inner.
        lattice=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_search_inner_lists_are_the_prune_at_the_search_positions(
        self, seed, periodic, box, n_home, n_halo, lattice
    ):
        """The outer lists ``pair_search`` leaves are the pairs the O(N²)
        oracle puts within ``r_comm`` that pass the zone rule (disjoint
        zone bits), each once; the inner blocks are the outer pairs the
        oracle puts within ``r_inner`` at the search's positions, in the
        outer lists' order, for both halves.  Cutoff and buffer are
        dyadic, so ``r_inner² = 0.25`` exactly and a lattice pair there
        tells ``<=`` from ``<``."""
        rng = np.random.default_rng(seed)
        cutoff, r_comm = 0.375, 0.625
        n = n_home + n_halo
        reach = np.where(periodic, 0.0, r_comm)
        pos = np.vstack([rng.random((n_home, 3)) * box,
                         rng.random((n_halo, 3)) * (box + reach)])
        if lattice:
            pos = np.floor(pos * 8.0) / 8.0
        zone_shift = np.zeros((n, 3), np.int8)
        zone_shift[n_home:] = rng.integers(0, 2, (n_halo, 3)) * ~periodic
        ns = RankNsData(
            rank=0, n_home=n_home, zone_shift=zone_shift,
            src_pulse=np.concatenate([np.full(n_home, -1), rng.integers(0, 3, n_halo)]),
            n_pulses=3,
        )
        ff = default_forcefield(cutoff=cutoff)
        rows = np.arange(n)
        near = _atom_pairs(pos, rows, rows, 0.5, box, periodic, True)
        bits = (zone_shift != 0) @ np.array([1, 2, 4])
        ours = {
            p for p in _atom_pairs(pos, rows, rows, r_comm, box, periodic, True)
            if not bits[p[0]] & bits[p[1]]
        }
        cfg = RankConfig(
            ff=ff, dtype="float64", integrator=None, box=box, periodic=periodic,
            r_comm=r_comm,
        )
        assert cfg.r_inner == 0.5
        ws = RankWorkspace(
            cfg=cfg, ns=ns, pos=pos.copy(), vel=np.zeros((n, 3)),
            forces=np.zeros((n, 3)), types=np.zeros(n, np.int32),
            charges=np.zeros(n), masses=np.ones(n),
        )
        pair_search(ws)
        sp = ws.pairs
        got = [(min(p), max(p)) for half in (sp.local, sp.nonlocal_)
               for p in zip(half.i.tolist(), half.j.tolist())]
        assert len(set(got)) == len(got) and set(got) == ours
        for half in (sp.local, sp.nonlocal_):
            keep = np.array([
                (min(p), max(p)) in near
                for p in zip(half.i.tolist(), half.j.tolist())
            ], dtype=bool).reshape(-1)
            assert np.array_equal(half.block.i, half.i[keep])
            assert np.array_equal(half.block.j, half.j[keep])


# -- halo exchange invariants ------------------------------------------------------------


#: (grid, max_pulses) pairs a 3.2 nm box with r_comm 0.8 admits; (1, 1, 5)
#: has 0.64 nm slabs and needs the second pulse.
HALO_SHAPES = [
    ((2, 1, 1), 1), ((1, 2, 1), 1), ((2, 2, 1), 1), ((2, 2, 2), 1),
    ((1, 1, 4), 2), ((1, 3, 2), 2), ((1, 1, 5), 2), ((3, 2, 1), 2),
]


class TestHaloProperties:
    @given(
        seed=seeds,
        shape=st.sampled_from(HALO_SHAPES),
        trim=st.booleans(),
        dlb=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_coverage_random_configs(self, seed, shape, trim, dlb):
        """The eighth-shell invariant on random configurations, uniform or
        with random DLB edges, one or two pulses per dim: every pair within
        the cutoff is claimable on exactly one rank, and no pulse sends a
        row twice."""
        shape, max_pulses = shape
        box = np.full(3, 3.2)
        rng = np.random.default_rng(seed)
        n = 250
        pos = rng.random((n, 3)) * box
        r_comm = 0.8
        rc = 0.75
        dd = DomainDecomposition(
            grid=DDGrid(shape), box=box, r_comm=r_comm, max_pulses=max_pulses, dlb=dlb
        )
        if dlb:
            random_dlb_edges(dd, rng)
        plan = build_halo_plan(dd, pos, trim_corners=trim)

        # Global pairs.
        cl = periodic_cell_list(box, rc)
        gi, gj = cl.pairs_within(pos, rc)
        want = set(zip(gi.tolist(), gj.tolist()))

        periodic = np.array([shape[d] == 1 for d in range(3)])
        claimed: dict[tuple, int] = {}
        for rp in plan.ranks:
            for p in rp.pulses:
                assert np.unique(p.index_map).size == p.index_map.size
            if rp.n_local < 2:
                continue
            lo = np.where(periodic, 0.0, rp.positions.min(axis=0) - 1e-9)
            hi = np.where(periodic, box, rp.positions.max(axis=0) + 1e-9)
            hi = np.maximum(hi, lo + r_comm)
            lcl = CellList(lo=lo, hi=hi, cutoff=r_comm, periodic=periodic)
            i, j = lcl.pairs_within(rp.positions, rc)
            keep = np.all(np.minimum(rp.zone_shift[i], rp.zone_shift[j]) == 0, axis=1)
            for a, b in zip(rp.global_ids[i[keep]].tolist(), rp.global_ids[j[keep]].tolist()):
                key = (min(a, b), max(a, b))
                claimed[key] = claimed.get(key, 0) + 1

        assert set(claimed) == want
        assert all(c == 1 for c in claimed.values())

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_halo_sizes_symmetric(self, seed):
        box = np.full(3, 3.2)
        pos = np.random.default_rng(seed).random((200, 3)) * box
        dd = DomainDecomposition(grid=DDGrid((2, 2, 1)), box=box, r_comm=0.8)
        plan = build_halo_plan(dd, pos)
        for rp in plan.ranks:
            for p in rp.pulses:
                peer = plan.ranks[p.send_rank].pulses[p.pulse_id]
                assert peer.recv_size == p.send_size


class TestRankTableProperties:
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        seed=seeds,
        dlb=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_table(self, shape, seed, dlb):
        """One table for rank <-> cell: ``coords @ stride`` is the rank, the
        +-1 neighbours undo each other, and every atom's assigned rank owns
        a domain (from the ``lo``/``hi`` tables) that contains it."""
        grid = DDGrid(shape)
        ranks = np.arange(grid.n_ranks)
        assert np.array_equal(grid.coords @ grid.stride, ranks)
        assert np.array_equal(grid.rank_of_coords(grid.coords), ranks)
        for r in ranks.tolist():
            assert grid.rank_of_coords(grid.coords_of_rank(r)) == r
        for d in range(3):
            down, up = grid.neighbor_ranks(d, -1), grid.neighbor_ranks(d, +1)
            assert np.array_equal(up[down], ranks)
            assert np.array_equal(down[up], ranks)
            assert [grid.neighbor_rank(r, d, +1) for r in ranks.tolist()] == up.tolist()

        rng = np.random.default_rng(seed)
        box = np.full(3, 6.0)
        dd = DomainDecomposition(grid=grid, box=box, r_comm=0.5, dlb=dlb)
        if dlb:
            random_dlb_edges(dd, rng)
        pos = rng.random((400, 3)) * box
        owner = dd.assign_atoms(pos)
        assert np.all((pos >= dd.lo[owner]) & (pos < dd.hi[owner]))
        for r in ranks.tolist():
            bounds = dd.bounds_of_rank(r)
            assert np.array_equal(bounds.lo, dd.lo[r])
            assert np.array_equal(bounds.hi, dd.hi[r])


# -- randomized backend interleavings ---------------------------------------------------


class TestBackendProperties:
    @given(seed=seeds, ppn=st.sampled_from([1, 2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_nvshmem_exchange_schedule_independent(self, seed, ppn, request):
        """Any scheduler interleaving + any proxy delivery order produces
        the reference halo contents."""
        from repro.comm import NvshmemBackend
        from repro.dd.exchange import build_cluster, reference_coordinate_exchange
        from repro.md import default_forcefield, make_grappa_system

        ff = default_forcefield(cutoff=0.65)
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        dd = DomainDecomposition(
            grid=DDGrid((2, 2, 1)), box=system.box, r_comm=ff.cutoff + 0.12
        )
        want = build_cluster(system.copy(), dd, fresh_halo=False)
        reference_coordinate_exchange(want)

        got = build_cluster(system.copy(), dd, fresh_halo=False)
        be = NvshmemBackend(pes_per_node=ppn, seed=seed)
        be.bind(got)
        be.exchange_coordinates(got)
        for r in range(got.n_ranks):
            np.testing.assert_allclose(got.local_pos[r], want.local_pos[r], atol=1e-12)


class TestChaosInterleavings:
    """Seeded schedule fuzzing: the same exchange under >=50 injected
    interleavings per backend stays bit-identical to the serial reference
    (pulse counts >= 2, so forwarding and the depOffset chain are live)."""

    @pytest.mark.parametrize(
        "shape,ppn",
        [((1, 1, 4), 2), ((1, 2, 4), 4)],
        ids=["2pulse-z", "3pulse-yz"],
    )
    @pytest.mark.parametrize(
        "backend_name", ["reference", "nvshmem"]
    )
    def test_exchange_bit_identical_under_50_interleavings(self, backend_name, shape, ppn):
        from repro.chaos import ChaosInjector, FaultPlan
        from repro.comm import NvshmemBackend, make_backend
        from repro.dd.exchange import build_cluster, reference_coordinate_exchange
        from repro.md import default_forcefield, make_grappa_system

        ff = default_forcefield(cutoff=0.65)
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        dd = DomainDecomposition(
            grid=DDGrid(shape), box=system.box, r_comm=ff.cutoff + 0.12, max_pulses=2
        )
        want = build_cluster(system.copy(), dd, fresh_halo=False)
        reference_coordinate_exchange(want)
        n_pulses = want.plan.n_pulses
        assert n_pulses >= 2

        got = build_cluster(system.copy(), dd, fresh_halo=False)
        for seed in range(50):
            plan = FaultPlan.generate(
                seed, n_ranks=got.n_ranks, n_pulses=n_pulses, backend=backend_name
            )
            if backend_name == "nvshmem":
                be = NvshmemBackend(pes_per_node=ppn, seed=seed)
            else:
                be = make_backend(backend_name)
            # The injector NaN-poisons the halo before each exchange and
            # checks coverage after it; home rows carry over untouched.
            with ChaosInjector(plan, backend=be):
                be.bind(got)
                be.exchange_coordinates(got)
            for r in range(got.n_ranks):
                np.testing.assert_array_equal(got.local_pos[r], want.local_pos[r])
