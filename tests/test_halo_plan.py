"""Eighth-shell halo-plan invariants — the algorithmic heart of the paper.

The defining property: every within-cutoff atom pair in the periodic system
must be *visible* (both atoms present, elementwise-min of zone shifts zero)
on exactly one rank.  Tested directly against a global periodic pair search
for 1D/2D/3D grids, with and without the corner-distance trim.
"""

import numpy as np
import pytest

from repro.dd.decomposition import DomainDecomposition
from repro.dd.grid import DDGrid
from repro.dd.halo import HaloExchangePlan, RankHaloPlan, build_halo_plan
from repro.dd.pulse import PulseData
from repro.md.cells import periodic_cell_list
from repro.md import default_forcefield, make_grappa_system

GRIDS = [(2, 1, 1), (1, 2, 1), (1, 1, 3), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


@pytest.fixture(scope="module")
def config():
    ff = default_forcefield(cutoff=0.65)
    sys_ = make_grappa_system(3000, seed=17, ff=ff, dtype=np.float64)
    sys_.wrap()
    return sys_, 0.75  # r_comm slightly above the cutoff (buffered)


def _plan(config, shape, trim=False):
    sys_, r_comm = config
    dd = DomainDecomposition(grid=DDGrid(shape), box=sys_.box, r_comm=r_comm)
    return sys_, dd, build_halo_plan(dd, sys_.positions, trim_corners=trim)


def _global_pairs(sys_, rc):
    cl = periodic_cell_list(sys_.box, rc)
    i, j = cl.pairs_within(sys_.positions, rc)
    return set(zip(i.tolist(), j.tolist()))


def _assignment_counts(sys_, dd, plan, rc):
    """For each global within-cutoff pair, how many ranks claim it."""
    from collections import Counter

    claimed = Counter()
    periodic = np.array([dd.grid.shape[d] == 1 for d in range(3)])
    for rp in plan.ranks:
        pos = rp.positions
        lo = np.where(periodic, 0.0, pos.min(axis=0) - 1e-9)
        hi = np.where(periodic, dd.box, pos.max(axis=0) + 1e-9)
        hi = np.maximum(hi, lo + rc)
        from repro.md.cells import CellList

        cl = CellList(lo=lo, hi=hi, cutoff=max(rc, dd.r_comm), periodic=periodic)
        i, j = cl.pairs_within(pos, rc)
        zs = rp.zone_shift
        keep = np.all(np.minimum(zs[i], zs[j]) == 0, axis=1)
        gi = rp.global_ids[i[keep]]
        gj = rp.global_ids[j[keep]]
        for a, b in zip(gi.tolist(), gj.tolist()):
            claimed[(min(a, b), max(a, b))] += 1
    return claimed


class TestCoverage:
    @pytest.mark.parametrize("shape", GRIDS)
    def test_every_pair_exactly_once(self, config, shape):
        sys_, dd, plan = _plan(config, shape)
        rc = 0.7  # interaction range below r_comm
        want = _global_pairs(sys_, rc)
        claimed = _assignment_counts(sys_, dd, plan, rc)
        missing = want - set(claimed)
        assert not missing, f"{len(missing)} pairs not covered on grid {shape}"
        dup = {p: c for p, c in claimed.items() if c > 1}
        assert not dup, f"{len(dup)} pairs double-counted on grid {shape}"
        extra = set(claimed) - want
        assert not extra, f"{len(extra)} spurious pairs on grid {shape}"

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 2, 2)])
    def test_trimmed_plan_still_covers(self, config, shape):
        sys_, dd, plan = _plan(config, shape, trim=True)
        rc = 0.7
        want = _global_pairs(sys_, rc)
        claimed = _assignment_counts(sys_, dd, plan, rc)
        assert want == set(claimed)
        assert all(c == 1 for c in claimed.values())

    def test_trim_reduces_volume(self, config):
        _, _, plain = _plan(config, (2, 2, 2), trim=False)
        _, _, trimmed = _plan(config, (2, 2, 2), trim=True)
        assert trimmed.total_sent() < plain.total_sent()


class TestStructure:
    def test_pulse_order_z_y_x(self, config):
        _, _, plan = _plan(config, (2, 2, 2))
        assert plan.pulse_dims == [2, 1, 0]
        assert plan.n_pulses == 3

    def test_undecomposed_dims_have_no_pulse(self, config):
        _, _, plan = _plan(config, (2, 1, 1))
        assert plan.pulse_dims == [0]

    def test_sizes_are_symmetric(self, config):
        """My send size to peer == peer's expected recv size."""
        _, dd, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            for p in rp.pulses:
                peer = plan.ranks[p.send_rank].pulses[p.pulse_id]
                assert peer.recv_size == p.send_size
                assert peer.recv_rank == rp.rank

    def test_halo_appended_contiguously(self, config):
        _, _, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            offset = rp.n_home
            for p in rp.pulses:
                assert p.atom_offset == offset
                offset += p.recv_size
            assert offset == rp.n_local

    def test_dep_split_semantics(self, config):
        """Independent entries are home atoms; dependent entries reference
        atoms delivered by exactly the pulses in depends_on."""
        _, _, plan = _plan(config, (2, 2, 2))
        saw_dependent = False
        for rp in plan.ranks:
            for p in rp.pulses:
                ind, dep = p.independent_map, p.dependent_map
                assert np.all(ind < rp.n_home)
                if dep.size:
                    saw_dependent = True
                    assert np.all(dep >= rp.n_home)
                    src = set(rp.src_pulse[dep].tolist())
                    assert src == set(p.depends_on)
                    assert all(k < p.pulse_id for k in src)
                else:
                    assert p.depends_on == ()
        assert saw_dependent, "3D plan must forward some dependent data"

    def test_first_pulse_fully_independent(self, config):
        _, _, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            p0 = rp.pulses[0]
            assert p0.dep_offset == p0.send_size
            assert p0.first_dependent_pulse is None

    def test_coord_shifts_are_box_multiples(self, config):
        sys_, _, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            for p in rp.pulses:
                for d in range(3):
                    s = p.coord_shift[d]
                    assert s == 0.0 or s == pytest.approx(sys_.box[d])

    def test_halo_positions_are_shifted_originals(self, config):
        """Every halo coordinate equals its owner's coordinate plus an
        integer multiple of the box."""
        sys_, _, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            halo = slice(rp.n_home, rp.n_local)
            orig = sys_.positions[rp.global_ids[halo]]
            delta = (rp.positions[halo] - orig) / sys_.box
            np.testing.assert_allclose(delta, np.rint(delta), atol=1e-9)

    def test_zone_shifts_bounded(self, config):
        _, _, plan = _plan(config, (2, 2, 2))
        for rp in plan.ranks:
            assert rp.zone_shift.min() >= 0
            assert rp.zone_shift.max() <= 1  # one pulse per dimension
            # Home atoms have zero shift.
            assert np.all(rp.zone_shift[: rp.n_home] == 0)


# -- plan identity pins --------------------------------------------------------------


def _plan_digest(plan) -> str:
    """sha256 over every plan field, each with its dtype and shape."""
    import hashlib

    h = hashlib.sha256()

    def put(value):
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())

    put(np.asarray(plan.pulse_dims, dtype=np.int64))
    for rp in plan.ranks:
        put(np.int64(rp.rank))
        put(np.int64(rp.n_home))
        put(rp.global_ids)
        put(rp.positions)
        put(rp.zone_shift)
        put(rp.src_pulse)
        for p in rp.pulses:
            put(np.asarray([p.pulse_id, p.dim, p.pulse_in_dim], dtype=np.int64))
            put(p.index_map)
            put(np.int64(p.dep_offset))
            put(np.asarray(p.depends_on, dtype=np.int64))
            put(np.asarray([p.send_rank, p.recv_rank], dtype=np.int64))
            put(p.coord_shift)
            put(np.asarray([p.atom_offset, p.recv_size], dtype=np.int64))
    return h.hexdigest()


def random_dlb_edges(dd, rng):
    """Random DLB cell edges on every decomposed dim, each width at or
    above the cutoff floor ``r_comm / npulses[d]``."""
    for d in range(3):
        n = dd.grid.shape[d]
        if n == 1:
            continue
        floor = dd.width_floor(d)
        share = rng.random(n) + 0.05
        widths = floor + (dd.box[d] - n * floor) * share / share.sum()
        dd.set_boundaries(d, np.concatenate([[0.0], np.cumsum(widths)]))


def _nonuniform(dd):
    """Install fixed non-uniform edges on every decomposed dimension."""
    for d in range(3):
        n = dd.grid.shape[d]
        if n == 1:
            continue
        w = np.linspace(0.7, 1.3, n)
        edges = np.concatenate([[0.0], np.cumsum(w / w.sum() * dd.box[d])])
        dd.set_boundaries(d, edges)
    return dd


#: (system, grid, trim_corners, max_pulses, dlb edges) -> plan digest.  The
#: digests were recorded before the plan construction was vectorised; any change
#: to a selection, an ordering, a dtype or a shift shows here by name.
PLAN_PINS = [
    ("12k", (4, 4, 4), False, 1, False,
     "ba5846dda7092fc6b792130186d2f277822ff3a362f725844089c74b7420c64d"),
    ("6k", (2, 4, 4), True, 1, False,
     "cfc2c07a741cfbba52501d02949686db9f6a36f0a15467691dec3369af4fafd4"),
    ("45k", (1, 2, 4), True, 1, False,
     "9e35c5e8da5baaea1b6c3ff7ff5ca70c59251489acd9a8bd790d286de08ad53c"),
    ("6k", (1, 1, 8), False, 2, False,
     "8626d885f2e48950a5f2461af0982f39495eff048b5c696c61ab334627edb2d0"),
    ("6k", (2, 2, 4), True, 2, True,
     "fb96c262832e7f10b2842e0b29e793ad30ab7abe6e4e8290f947f42444968033"),
]


class TestPlanPins:
    @pytest.mark.parametrize(
        "label,shape,trim,max_pulses,dlb,want",
        PLAN_PINS,
        ids=[f"{p[0]}-{'x'.join(map(str, p[1]))}{'-trim' if p[2] else ''}"
             f"{'-p2' if p[3] == 2 else ''}{'-dlb' if p[4] else ''}" for p in PLAN_PINS],
    )
    def test_plan_digest(self, label, shape, trim, max_pulses, dlb, want):
        from repro.md import make_system

        sys_ = make_system(label, seed=2025, ff=default_forcefield(cutoff=0.65),
                           dtype=np.float64)
        sys_.wrap()
        dd = DomainDecomposition(grid=DDGrid(shape), box=sys_.box, r_comm=0.77,
                                 max_pulses=max_pulses, dlb=dlb)
        if dlb:
            _nonuniform(dd)
        plan = build_halo_plan(dd, sys_.positions, trim_corners=trim)
        assert _plan_digest(plan) == want


# -- the per-rank loop reference ---------------------------------------------------


def _loop_plan(dd, positions, trim_corners=False) -> HaloExchangePlan:
    """The per-rank loop form of :func:`build_halo_plan`: each rank selects
    from its whole local array at every pulse, and the delivered rows are
    stacked onto the receiver's arrays.  ``build_halo_plan`` must match it
    field for field."""
    grid, box, r_comm = dd.grid, dd.box, dd.r_comm
    plans = [
        RankHaloPlan(
            rank=rank, n_home=ids.size, global_ids=ids, positions=positions[ids],
            zone_shift=np.zeros((ids.size, 3), dtype=np.int8),
            src_pulse=np.full(ids.size, -1, dtype=np.int32),
        )
        for rank, ids in enumerate(dd.home_indices(positions))
    ]
    pulse_dims, pulse_id = [], 0
    for dim in (2, 1, 0):
        for k in range(dd.npulses[dim]):
            payloads = {}
            for plan in plans:
                rank = plan.rank
                bounds = dd.bounds_of_rank(rank)
                pos = plan.positions
                mask = pos[:, dim] < bounds.lo[dim] + r_comm
                if k == 0:
                    mask &= plan.zone_shift[:, dim] == 0
                else:
                    mask &= plan.src_pulse == pulse_id - 1
                if trim_corners:
                    d2 = np.maximum(pos[:, dim] - bounds.lo[dim], 0.0) ** 2
                    for e in range(3):
                        shifted = plan.zone_shift[:, e] > 0
                        if e != dim and shifted.any():
                            excess = np.where(shifted, pos[:, e] - bounds.hi[e], 0.0)
                            d2 += np.maximum(excess, 0.0) ** 2
                    mask &= d2 <= r_comm * r_comm
                sel = np.nonzero(mask)[0]
                dep = plan.src_pulse[sel] >= 0
                depends_on = tuple(sorted(set(plan.src_pulse[sel[dep]].tolist())))
                sel = np.concatenate([sel[~dep], sel[dep]])
                send = grid.neighbor_rank(rank, dim, -1)
                shift = np.zeros(3)
                if grid.coords_of_rank(rank)[dim] == 0:
                    shift[dim] = box[dim]
                plan.pulses.append(PulseData(
                    pulse_id=pulse_id, dim=dim, pulse_in_dim=k, rank=rank,
                    send_rank=send, recv_rank=grid.neighbor_rank(rank, dim, +1),
                    index_map=sel, dep_offset=int(np.count_nonzero(~dep)),
                    depends_on=depends_on,
                    coord_shift=shift, atom_offset=0, recv_size=0,
                ))
                zs = plan.zone_shift[sel]
                zs[:, dim] += 1
                payloads[send] = (plan.positions[sel] + shift, plan.global_ids[sel], zs)
            for plan in plans:
                pos, ids, zs = payloads[plan.rank]
                p = plan.pulses[pulse_id]
                p.atom_offset, p.recv_size = plan.n_local, ids.size
                plan.positions = np.vstack([plan.positions, pos])
                plan.global_ids = np.concatenate([plan.global_ids, ids])
                plan.zone_shift = np.vstack([plan.zone_shift, zs])
                plan.src_pulse = np.concatenate(
                    [plan.src_pulse, np.full(ids.size, pulse_id, dtype=np.int32)]
                )
            pulse_dims.append(dim)
            pulse_id += 1
    return HaloExchangePlan(dd=dd, r_comm=r_comm, ranks=plans, pulse_dims=pulse_dims)


#: (grid, max_pulses) drawn by the loop-reference cases; a 3.2-4.2 nm box
#: with r_comm 0.8 admits every one.
LOOP_SHAPES = [
    ((2, 1, 1), 1), ((1, 2, 1), 1), ((2, 2, 1), 1), ((2, 2, 2), 1), ((1, 1, 4), 2),
    ((1, 3, 2), 2), ((1, 1, 5), 2), ((3, 2, 1), 2), ((3, 3, 3), 2), ((2, 3, 4), 2),
]


class TestLoopReference:
    @pytest.mark.parametrize("case", range(30))
    def test_flat_plan_matches_loop(self, case):
        """Random grid, pulse count, trim, DLB edges and atom count; two
        cases in five put atoms exactly on the low box faces or exactly on
        the selection planes (the slab test is strict)."""
        rng = np.random.default_rng(case)
        shape, max_pulses = LOOP_SHAPES[case % len(LOOP_SHAPES)]
        box = 3.2 * (1.0 + 0.3 * rng.random(3))
        dlb = case % 3 == 0
        dd = DomainDecomposition(grid=DDGrid(shape), box=box, r_comm=0.8,
                                 max_pulses=max_pulses, dlb=dlb)
        if dlb:
            random_dlb_edges(dd, rng)
        pos = rng.random((int(rng.integers(50, 600)), 3)) * box
        if case % 5 == 0:
            pos[:5] = 0.0
        if case % 5 == 1:
            for d in range(3):
                planes = dd.lo[:, d] + dd.r_comm
                planes = planes[planes < box[d]]
                pos[: planes.size, d] = planes
        trim = bool(case % 2)
        want = _loop_plan(dd, pos, trim_corners=trim)
        got = build_halo_plan(dd, pos, trim_corners=trim)
        assert _plan_digest(got) == _plan_digest(want)
