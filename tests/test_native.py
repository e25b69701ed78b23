"""The compiled code against its NumPy oracles, bit for bit, and its build.

``repro.md.nonbonded.block_forces`` runs ``nonbonded.c``;
``block_forces_numpy`` is the chain it was written from.  Every drawn
case must give the same bytes: forces (signed zeros and NaN payloads
included), ``e_lj``, ``e_coul``, and on an overlap the same error with
the same partial ``out_forces``.

``repro.md.kernels.build_split`` runs one rank's whole cluster-pair
search in ``pairsearch.c``, two C calls per rank; the ``build_split``
composition of ``tests/oracles.py`` — the NumPy it replaced — is its
oracle.  A drawn rank must give the same bytes: both outer lists
(``int32``), the pulse offsets, and the candidate and tile counts.

The rank passes of a DD step run compiled code too: the drift guard
(``nonbonded.drift_guard``) and the re-prune (``PairBlock.pruned``) in
``pairsearch.c``, the leap-frog (``LeapFrogIntegrator.bind``) in
``nonbonded.c``.  Their oracles are the NumPy they replaced: the guard's
``einsum`` test, ``within_radius`` + ``PairBlock.__init__``, and
``LeapFrogIntegrator.step`` + ``kinetic_energy`` + the displacement
``einsum``.  A drawn case must give the same decision, the same seven
block arrays, the same positions, velocities, kinetic energy and
displacement, byte for byte.

The build tests cover what a host sees the first time: an empty cache,
two processes building at once, no compiler at all, and cache keys that
follow every input of a build.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dd import DDSimulator, DDGrid
from repro.md import integrator, kernels, make_grappa_system, native, nonbonded
from repro.md.forcefield import default_forcefield
from repro.md.integrator import LeapFrogIntegrator, kinetic_energy
from repro.md.nonbonded import (
    PairBlock,
    block_forces,
    block_forces_numpy,
    drift_guard,
    within_radius,
)
from repro.par import phases
from tests import oracles

ROOT = Path(__file__).resolve().parents[1]

#: Cutoff 1.0 makes r_c² the dummy distance 1.0 itself.
FORCEFIELDS = {cutoff: default_forcefield(cutoff=cutoff) for cutoff in (0.65, 1.0)}


def _spy(monkeypatch) -> list[str]:
    """Route the compiled library through a spy; returns the entry
    points called, in order."""
    lib, calls = native.library(), []

    class Spy:
        def __getattr__(self, name):
            def call(*args):
                calls.append(name)
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(native, "_lib", Spy())
    return calls


def _outcome(fn, pos, block, ff, out, **kw):
    """Everything a call leaves behind, as bytes."""
    try:
        f, e_lj, e_coul = fn(pos, block, ff, out_forces=out, **kw)
    except FloatingPointError as err:
        return "raised", str(err), None if out is None else out.tobytes()
    return "ok", f.dtype.str, f.tobytes(), np.float64([e_lj, e_coul]).tobytes()


@st.composite
def cases(draw):
    """A block, its positions and a call: sizes on both sides of the
    chunk length (patched down for small blocks), group-key segments,
    all 8 periodic masks with and without a box, far-apart chunks that
    interact nowhere, NaN / inf / huge coordinates, overlaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = draw(st.integers(0, 9)) == 0
    if big:  # around the real chunk length: one chunk or two
        m = draw(st.integers(nonbonded.CHUNK_PAIRS - 1500, nonbonded.CHUNK_PAIRS + 1500))
        n = draw(st.integers(200, 3000))
        chunk = None
    else:
        m = draw(st.integers(0, 400))
        n = draw(st.integers(2, 300))
        chunk = draw(st.one_of(st.none(), st.integers(1, 300)))
    ff = FORCEFIELDS[draw(st.sampled_from(sorted(FORCEFIELDS)))]
    side = draw(st.sampled_from([1.3, 2.5, 12.0]))  # dense ... nothing interacts
    box = rng.uniform(0.8, 1.2, 3) * side
    pos = rng.uniform(0.0, 1.0, (n, 3)) * box
    i = np.sort(rng.integers(0, n, m))
    j = rng.integers(0, n, m)
    j = np.where(j == i, (j + 1) % n, j)
    group = None
    if draw(st.booleans()):
        group = rng.integers(0, draw(st.integers(1, 4)), m)
        order = np.lexsort((j, i, group))
        i, j, group = i[order], j[order], group[order]
    bad = draw(st.sampled_from([None, "nan", "inf", "huge"]))
    if bad is not None and m:
        atoms = rng.choice(i, size=min(3, m))
        value = {"nan": np.nan, "inf": np.inf, "huge": 10.0 ** rng.uniform(10, 80)}[bad]
        dims = rng.random(3) < 0.5
        dims[rng.integers(3)] = True
        pos[np.ix_(atoms, np.flatnonzero(dims))] = value * rng.choice([-1, 1])
    overlap = draw(st.sampled_from([None, "last", "any"])) if m else None
    if overlap is not None:
        k = m - 1 if overlap == "last" else int(rng.integers(m))
        pos[j[k]] = pos[i[k]]
    pos_dtype = draw(st.sampled_from(["float64", "float32"]))
    out_dtype = draw(st.sampled_from([None, "float64", "float32"]))
    if overlap is not None and out_dtype is None:
        out_dtype = "float64"  # keep the partial sums observable
    out = None
    if out_dtype is not None:
        out = rng.standard_normal((n, 3)).astype(out_dtype)
        out[rng.random((n, 3)) < 0.2] = 0.0
        out[rng.random((n, 3)) < 0.2] = -0.0
    with_box = draw(st.booleans())
    periodic = draw(st.one_of(st.none(), st.tuples(*[st.booleans()] * 3)))
    tid = rng.integers(0, ff.n_types, n).astype(np.int32)
    block = PairBlock(i, j, tid, ff.charges_for(tid), ff, n_atoms=n, group_key=group)
    return dict(
        pos=pos.astype(pos_dtype), block=block, ff=ff, out=out, chunk=chunk,
        fresh=draw(st.booleans()),
        kw=dict(
            box=box if with_box else None,
            periodic=None if periodic is None else np.array(periodic),
            dtype=draw(st.sampled_from(["float64", "float32"])),
        ),
    )


class TestOracle:
    @given(case=cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_numpy_chain(self, case):
        block, ff, out = case["block"], case["ff"], case["out"]
        with pytest.MonkeyPatch.context() as mp:
            if case["chunk"] is not None:
                mp.setattr(nonbonded, "CHUNK_PAIRS", case["chunk"])
            if case["fresh"]:  # a segment longer than the scratch grows it
                mp.setattr(nonbonded._scratch, "by_dtype", {})
            want = _outcome(
                block_forces_numpy, case["pos"], block, ff,
                None if out is None else out.copy(), **case["kw"],
            )
            got = _outcome(
                block_forces, case["pos"], block, ff,
                None if out is None else out.copy(), **case["kw"],
            )
        assert got == want

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_compute_block_reaches_the_compiled_evaluator(self, monkeypatch, dtype):
        """The evaluator the engines call, ``block_forces`` at a kernel
        dtype, runs the C chain, and only it."""
        ff = FORCEFIELDS[0.65]
        calls = _spy(monkeypatch)
        monkeypatch.setattr(nonbonded, "block_forces_numpy", None)
        pos = np.array([[0.0, 0, 0], [0.3, 0, 0], [0, 0.4, 0]])
        block = PairBlock(
            np.array([0, 0]), np.array([1, 2]), np.zeros(3, np.int32),
            np.array([0.2, -0.1, 0.3]), ff, n_atoms=3,
        )
        f, e_lj, _ = block_forces(pos, block, ff, dtype=dtype)
        assert calls == ["nb_block_forces_f" + dtype[-2:]]
        assert np.any(f != 0.0) and e_lj != 0.0

    def test_copied_block_takes_its_own_addresses(self):
        ff = FORCEFIELDS[0.65]
        pos = np.array([[0.0, 0, 0], [0.3, 0, 0], [0, 0.4, 0]])
        block = PairBlock(
            np.array([0, 0]), np.array([1, 2]), np.zeros(3, np.int32),
            np.array([0.2, -0.1, 0.3]), ff, n_atoms=3,
        )
        want = block_forces(pos, block, ff)
        for other in (copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
            assert other.args != block.args
            got = block_forces(pos, other, ff)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_out_forces_it_cannot_write_raise(self):
        ff = FORCEFIELDS[0.65]
        pos = np.zeros((3, 3))
        pos[1, 0] = 0.3
        block = PairBlock(
            np.array([0]), np.array([1]), np.zeros(3, np.int32), np.zeros(3), ff,
            n_atoms=3,
        )
        for out in (np.zeros((3, 3), np.float16), np.zeros((3, 6))[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous float32 or float64"):
                block_forces(pos, block, ff, out_forces=out)


class TestAddress:
    def test_equals_the_ctypes_address(self):
        """Writable, read-only, empty, sliced, strided and Fortran-ordered
        arrays: the fast path where it applies, ``.ctypes.data`` elsewhere."""
        base = np.arange(24.0).reshape(4, 6)
        frozen = base.copy()
        frozen.flags.writeable = False
        arrays = [
            base, frozen, np.zeros(0), np.zeros((0, 3)), base[1:], base[1:, 2:],
            base[:, ::2], base.T, np.asfortranarray(base), base.ravel()[5:6],
            np.zeros(3, np.int32), np.zeros(5, bool),
        ]
        for a in arrays:
            assert native.address(a) == a.ctypes.data


# -- the compiled rank search against its NumPy oracle --------------------------


def _rank(pos, n_home, box, periodic, r_list, zone_shift, src_pulse, n_pulses):
    """What ``build_split`` reads of a rank workspace."""
    return SimpleNamespace(
        pos=pos,
        cfg=SimpleNamespace(box=box, periodic=periodic, r_comm=r_list),
        ns=phases.RankNsData(
            rank=0, n_home=n_home, zone_shift=zone_shift, src_pulse=src_pulse,
            n_pulses=n_pulses,
        ),
    )


def _search_bytes(split):
    """Everything the oracle fixes of a search, as bytes and counts."""
    return (
        *(np.asarray(a).dtype.str + ":" + np.asarray(a).tobytes().hex() for a in (
            split["local"].i, split["local"].j, split["nonlocal_"].i,
            split["nonlocal_"].j, split["pulse_offsets"],
        )),
        split["local"].rows, split["nonlocal_"].rows,
        *(split["stats"][k] for k in ("n_local", "n_nonlocal", "pulse_pairs",
                                      "n_candidates", "n_tiles")),
    )


@st.composite
def ranks(draw):
    """One rank as ``build_split`` sees it: home rows in the box and halo
    rows beyond it along the open (decomposed) dimensions, every periodic
    mask, boxes down to 1.2 r_list (window images overlap; a periodic
    side under 2 r_list is refused), empty home or empty halo, atoms on a
    lattice of r_list / 2 whose neighbours sit exactly r_list apart, zone
    shifts on any row, ``src_pulse`` over 1-3 pulses or none, and a
    search buffer that starts from 0 to 40 pairs long."""
    r_list = 0.5
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periodic = np.array(draw(st.tuples(*[st.booleans()] * 3)))
    box = np.array(draw(st.tuples(*[st.floats(0.6, 2.4)] * 3)))
    n_home, n_halo = draw(st.integers(0, 160)), draw(st.integers(0, 120))
    assume(n_home + n_halo > 0)
    reach = np.where(periodic, 0.0, r_list)
    if draw(st.booleans()):
        home = rng.random((n_home, 3)) * box
        halo = rng.random((n_halo, 3)) * (box + 2 * reach) - reach
    else:
        sites = np.stack(np.meshgrid(
            *(np.arange(0.0, top, r_list / 2) for top in box + reach), indexing="ij",
        ), axis=-1).reshape(-1, 3)
        inside = np.all(sites < box, axis=1)
        home = rng.permutation(sites[inside])[:n_home]
        halo = rng.permutation(sites[~inside] if rng.random() < 0.5 else sites)[:n_halo]
        n_home, n_halo = len(home), len(halo)
        assume(n_home + n_halo > 0)
    n = n_home + n_halo
    zone_shift = rng.integers(0, 2, (n, 3)) * (rng.random((n, 1)) < 0.7)
    n_pulses = draw(st.sampled_from([0, 1, 2, 3]))
    src_pulse = None
    if n_pulses:
        src_pulse = np.concatenate([
            np.full(n_home, -1), rng.integers(0, n_pulses, n_halo),
        ]).astype(draw(st.sampled_from([np.int32, np.int64])))
    return dict(
        ws=_rank(np.vstack([home, halo]), n_home, box, periodic, r_list,
                 zone_shift, src_pulse, n_pulses),
        capacity=draw(st.one_of(st.none(), st.integers(0, 40))),
    )


class TestSearchOracle:
    @given(case=ranks())
    @settings(max_examples=400, deadline=None)
    def test_same_pairs_and_counts_as_the_numpy_stages(self, case):
        """The whole rank search: the C pass and the oracle composition
        give the same bytes, or both refuse the grid."""
        ws = case["ws"]
        try:
            want = _search_bytes(oracles.build_split(ws))
        except ValueError as err:
            assert "periodic extent" in str(err)
            with pytest.raises(ValueError, match="periodic extent"):
                kernels.build_split(ws)
            return
        with pytest.MonkeyPatch.context() as mp:
            if case["capacity"] is not None:
                mp.setattr(kernels, "_capacity", lambda *_: case["capacity"])
            got = _search_bytes(kernels.build_split(ws))
        assert got == want

    def test_rows_the_search_cannot_bin_are_refused(self):
        """A non-finite coordinate, a pulse outside [-1, n_pulses) or a
        short per-row array raises before any pair is searched."""
        rng = np.random.default_rng(0)
        pos = rng.random((40, 3)) * 2.0
        src = np.r_[np.full(30, -1), np.zeros(10, int)]
        args = (30, np.full(3, 2.0), np.zeros(3, bool), 0.5, np.zeros((40, 3), int))
        kernels.build_split(_rank(pos, *args, src, 1))
        for bad in (np.nan, np.inf):
            rows = pos.copy()
            rows[35, 2] = bad
            with pytest.raises(ValueError, match="not finite"):
                kernels.build_split(_rank(rows, *args, src, 1))
        with pytest.raises(ValueError, match="src_pulse"):
            kernels.build_split(_rank(pos, *args, src + 1, 1))
        with pytest.raises(ValueError, match="cover all 40 rows"):
            kernels.build_split(_rank(pos, *args, src[:-1], 1))

    def test_a_one_pair_buffer_grows_to_the_same_lists(self, small_system, ff, monkeypatch):
        """A buffer that starts one pair long grows in C, many times per
        rank, to the lists and counts of one that never grows; every
        buffer it held is accounted."""
        def search():
            with DDSimulator(
                small_system.copy(), ff, grid=DDGrid((2, 2, 2)), nstlist=10,
                buffer=0.12,
            ) as sim:
                sim.neighbor_search()
                return [kernels.build_split(ws) for ws in sim.executor._ws]

        whole = search()
        monkeypatch.setattr(kernels, "_capacity", lambda *_: 1)
        grown = search()
        assert len(whole) == len(grown) == 8
        for a, b in zip(whole, grown):
            assert _search_bytes(a) == _search_bytes(b)
            pairs = b["stats"]["n_local"] + b["stats"]["n_nonlocal"]
            assert pairs > 0
            assert b["stats"]["build_peak_bytes"] >= b["stats"]["pairlist_bytes"] + 8 * pairs

    def test_build_split_and_prune_reach_the_compiled_search(self, tiny_system, ff, monkeypatch):
        """An engine's search and prune run pairsearch.c, and only it: the
        NumPy oracles are unreachable."""
        calls = _spy(monkeypatch)
        for module, name in ((oracles, "build_split"), (oracles, "build_clusters"),
                             (oracles, "cluster_pair_candidates"),
                             (oracles, "cluster_tile_pairs"),
                             (nonbonded, "within_radius")):
            monkeypatch.setattr(module, name, None)
        with DDSimulator(
            tiny_system.copy(), ff, n_ranks=2, backend="reference",
            executor="serial", nstlist=5, buffer=0.12,
        ) as sim:
            sim.step()
        # Two ranks: one search of two calls and two halves each.
        assert calls.count("ps_rank_search") == 2
        assert calls.count("ps_rank_fill") == 2
        assert calls.count("ps_prune_count_f64") == 4
        assert calls.count("ps_prune_fill") == 4

    def test_one_search_is_two_search_calls_per_rank(self, small_system, ff, monkeypatch):
        """One engine search of 8 ranks: at most two calls into the search
        per rank, whatever their names, and two prune calls per half."""
        calls = _spy(monkeypatch)
        with DDSimulator(
            small_system.copy(), ff, grid=DDGrid((2, 2, 2)), backend="reference",
            executor="serial", nstlist=10, buffer=0.12,
        ) as sim:
            del calls[:]
            sim.neighbor_search()
        search = [c for c in calls if not c.startswith(("ps_prune", "ps_drifted", "nb_"))]
        assert 0 < len(search) <= 2 * 8, search
        assert calls.count("ps_prune_count_f64") == 2 * 8
        assert calls.count("ps_prune_fill") == 2 * 8


# -- the rank passes against their NumPy oracles --------------------------------


def _guard_oracle(pos, ref, limit):
    """The guard as ``par/phases.py`` wrote it in NumPy."""
    d = pos[: ref.shape[0]] - ref
    if not d.size:
        return False
    return not np.einsum("ij,ij->i", d, d).max() <= limit * limit


@st.composite
def guards(draw):
    """Rows and their reference rows in both dtypes: zero rows, more
    position rows than reference rows, NaN and ±inf on either side, and
    rows whose drift is exactly the limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    rows = draw(st.integers(0, 300))
    n = rows + draw(st.integers(0, 20))
    limit = float(rng.uniform(0.005, 0.1))
    pos = rng.uniform(-5.0, 5.0, (n, 3))
    ref = pos[:rows] + rng.normal(0.0, limit * draw(st.sampled_from([0.2, 0.5, 1.0])), (rows, 3))
    if rows and draw(st.booleans()):  # drift exactly at the limit
        k = rng.integers(rows, size=3)
        ref[k] = 0.0
        pos[k] = 0.0
        pos[k, rng.integers(3)] = np.dtype(dtype).type(limit)
    if rows and draw(st.booleans()):  # one drifted row, decided by rounding
        row, limit = _rounding_decides(rng, dtype, limit)
        ref[:] = pos[:rows]
        k = rng.integers(rows)
        ref[k] = 0.0
        pos[k] = row
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2)):
        if rows:
            target = pos if rng.random() < 0.5 else ref
            target[rng.integers(rows), rng.integers(3)] = value
    return pos.astype(dtype), ref.astype(dtype), limit


def _rounding_decides(rng, dtype, scale) -> tuple[np.ndarray, float]:
    """A drift row whose squares sum to two different values in the two
    associations ``(x² + z²) + y²`` and ``(x² + y²) + z²`` of the dtype,
    and a limit whose square, rounded to the dtype, is the smaller one:
    the row has drifted in one association and not in the other."""
    t = np.dtype(dtype).type
    while True:
        d = (rng.uniform(-1.0, 1.0, 3) * scale).astype(dtype)
        x2, y2, z2 = d * d
        sums = ((x2 + z2) + y2, (x2 + y2) + z2)
        if sums[0] == sums[1]:
            continue
        lim2 = min(sums)
        root = float(np.sqrt(np.float64(lim2)))
        for limit in (root, np.nextafter(root, 0.0), np.nextafter(root, 1.0)):
            if t(float(limit) * float(limit)) == lim2:
                return d.astype(np.float64), float(limit)


def _block_bytes(block):
    """Everything a block holds, as bytes."""
    return block.n_atoms, [
        (name, a.dtype.str, a.shape, a.tobytes())
        for name, a in (
            (name, getattr(block, name))
            for name in ("i", "j", "seg_starts", "seg_i", "c6", "c12", "qq")
        )
    ]


def _prune_oracle(pos, i, j, radius, types, charges, ff, box, periodic, src):
    """The re-prune as ``par/phases.py`` wrote it in NumPy: the mask of
    ``within_radius``, then ``PairBlock.__init__`` over the kept pairs."""
    n = pos.shape[0]
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        return "raised"
    keep = within_radius(pos, i, j, radius, box=box, periodic=periodic)
    ki, kj = i[keep], j[keep]
    key = None if src is None else np.maximum(src[ki], src[kj])
    return _block_bytes(PairBlock(ki, kj, types, charges, ff, n_atoms=n, group_key=key))


@st.composite
def prunes(draw):
    """Outer lists as a search leaves them (sorted by i, or by pulse
    group then i) and as they are not: empty lists, lists the radius
    prunes to nothing, pairs exactly the radius apart on a lattice, NaN /
    inf coordinates, every periodic mask with and without a box, pulse
    groups or none, and indices out of range on either side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ff = FORCEFIELDS[0.65]
    n = draw(st.integers(1, 200))
    m = draw(st.sampled_from([0, 1, 7, 60, 600]))
    box = rng.uniform(0.8, 3.0, 3)
    pos = rng.uniform(-0.5, 1.5, (n, 3)) * box
    radius = float(draw(st.sampled_from([rng.uniform(0.1, 1.5), 1e-6])))
    if draw(st.booleans()):
        radius = 0.5
        pos = rng.integers(-2, 8, (n, 3)) * 0.25
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3)):
        pos[rng.integers(n), rng.integers(3)] = value
    i, j = rng.integers(0, n, (2, m))
    src = None
    if draw(st.booleans()):  # a half that reads halo rows
        src = rng.integers(-1, 4, n).astype(np.int32)
        order = np.lexsort((j, i, np.maximum(src[i], src[j])))
    else:
        order = np.lexsort((j, i))
    if draw(st.booleans()):
        i, j = i[order], j[order]
    if m and draw(st.integers(0, 5)) == 0:
        side = i if rng.random() < 0.5 else j
        side[rng.integers(m)] = draw(st.sampled_from([-1, -3, n, n + 2]))
    tid = rng.integers(0, ff.n_types, n).astype(np.int32)
    return dict(
        pos=pos.astype(draw(st.sampled_from(["float64", "float32"]))),
        i=i.astype(np.int32), j=j.astype(np.int32), radius=radius,
        types=tid, charges=ff.charges_for(tid), ff=ff,
        box=box if draw(st.booleans()) else None,
        periodic=draw(st.one_of(
            st.none(), st.tuples(*[st.booleans()] * 3).map(np.array),
        )),
        src=src,
    )


def _leapfrog_oracle(pos, vel, forces, masses, ref, dt):
    """The leap-frog as ``par/phases.py`` wrote it in NumPy, in place."""
    nh = vel.shape[0]
    x, v = LeapFrogIntegrator(dt=dt).step(pos[:nh], vel, forces[:nh], masses)
    pos[:nh] = x
    vel[:] = v
    d = (pos[:nh] - ref).astype(np.float64, copy=False)
    disp2 = np.einsum("ij,ij->i", d, d).max(initial=0.0)
    return kinetic_energy(v, masses), float(disp2)


@st.composite
def leapfrogs(draw):
    """A rank's home rows and the halo rows after them, in both dtypes
    (float64 masses always): no home rows, one, and more than a pairwise
    block; NaN forces; rows that stand still."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    nh = draw(st.sampled_from([0, 1, 5, 8, 9, 127, 128, 129, 300, 1100]))
    n = nh + draw(st.integers(0, 30))
    pos = rng.uniform(-1.0, 6.0, (n, 3))
    vel = rng.normal(0.0, 0.6, (nh, 3))
    forces = rng.normal(0.0, 10.0 ** draw(st.integers(0, 4)), (n, 3))
    masses = rng.choice([1.008, 12.011, 15.999, 18.0], nh) * rng.uniform(0.5, 2.0, nh)
    ref = pos[:nh] + rng.normal(0.0, 0.01, (nh, 3))
    if nh and draw(st.booleans()):
        forces[rng.integers(nh), rng.integers(3)] = np.nan
    if nh and draw(st.booleans()):
        k = rng.integers(nh, size=2)
        vel[k] = 0.0
        forces[k] = 0.0
        ref[k] = pos[k]
    dt = float(draw(st.sampled_from([0.0005, 0.002, rng.uniform(1e-4, 5e-3)])))
    return [a.astype(dtype) for a in (pos, vel, forces)] + [masses, ref.astype(dtype), dt]


class TestGuardOracle:
    @given(case=guards())
    @settings(max_examples=300, deadline=None)
    def test_same_decision_as_the_einsum_test(self, case):
        pos, ref, limit = case
        with np.errstate(invalid="ignore", over="ignore"):
            want = _guard_oracle(pos, ref, limit)
        assert drift_guard(pos, ref, limit)() is want

    def test_float32_compares_with_the_limit_rounded_to_float32(self):
        """A float32 drift² equal to float32(limit²) but above limit² in
        float64: NumPy compares in float32, so it has not drifted."""
        d = np.float32(0.03)
        r2 = d * d  # float32
        limit = float(np.nextafter(np.sqrt(np.float64(r2)), 0.0))
        # Compared in float64 the row has drifted; in float32 it has not.
        assert limit * limit < float(r2) and np.float32(limit * limit) == r2
        pos = np.zeros((4, 3), np.float32)
        pos[2, 0] = d
        ref = np.zeros((3, 3), np.float32)
        assert _guard_oracle(pos, ref, limit) is False
        guard = drift_guard(pos, ref, limit)
        assert guard() is False
        # Bound once, the guard reads the rows as they are at each call.
        pos[1, 2] = np.float32(0.5)
        assert guard() is True

    def test_arrays_it_cannot_read_raise(self):
        pos, ref = np.zeros((4, 3)), np.zeros((3, 3))
        for bad_pos, bad_ref in (
            (np.zeros((8, 3))[::2], ref), (pos, np.zeros((6, 3))[::2]),
            (pos.astype(np.float32), ref), (pos, np.zeros((5, 3))),
            (pos.astype(np.float16), ref.astype(np.float16)),
        ):
            with pytest.raises(ValueError, match="drift_guard takes"):
                drift_guard(bad_pos, bad_ref, 0.1)


class TestPruneOracle:
    @given(case=prunes())
    @settings(max_examples=300, deadline=None)
    def test_same_block_as_within_radius_and_pair_block(self, case):
        args = (case["pos"], case["i"], case["j"], case["radius"])
        params = (case["types"], case["charges"], case["ff"])
        kw = dict(box=case["box"], periodic=case["periodic"])
        with np.errstate(invalid="ignore", over="ignore"):
            want = _prune_oracle(*args, *params, case["box"], case["periodic"], case["src"])
        try:
            got = _block_bytes(PairBlock.pruned(*args, *params, **kw, src_pulse=case["src"]))
        except ValueError as err:
            assert "pair indices must lie in" in str(err)
            got = "raised"
        assert got == want

    def test_pairs_without_rows_raise(self, ff):
        """No position rows: the oracle's gathers raise, and the compiled
        prune raises ``PairBlock``'s error."""
        pairs = np.zeros(2, np.int32)
        with pytest.raises(IndexError):
            within_radius(np.zeros((0, 3)), pairs, pairs, 1.0)
        with pytest.raises(ValueError, match=r"\[0, 0\)"):
            PairBlock.pruned(
                np.zeros((0, 3)), pairs, pairs, 1.0, np.zeros(0, np.int32),
                np.zeros(0), ff,
            )

    def test_per_atom_arrays_it_cannot_read_raise(self, ff):
        """The C passes read types, charges and pulses at every pair's
        atoms: too short an array, or a type id the tables lack, raises."""
        pos = np.zeros((4, 3))
        pairs = np.arange(4, dtype=np.int32)
        types, charges = np.zeros(4, np.int32), np.zeros(4)
        for bad in (
            dict(type_ids=types[:3]), dict(charges=charges[:3]),
            dict(src_pulse=np.zeros(3, np.int32)),
            dict(type_ids=np.full(4, ff.n_types, np.int32)),
            dict(type_ids=np.full(4, -1, np.int32)),
        ):
            args = dict(type_ids=types, charges=charges, src_pulse=None) | bad
            with pytest.raises(ValueError, match="position rows"):
                PairBlock.pruned(pos, pairs, pairs[::-1].copy(), 1.0, ff=ff, **args)


class TestLeapFrogOracle:
    @given(case=leapfrogs())
    @settings(max_examples=300, deadline=None)
    def test_same_step_as_the_numpy_integrator(self, case):
        pos, vel, forces, masses, ref, dt = case
        want_pos, want_vel = pos.copy(), vel.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            want = _leapfrog_oracle(want_pos, want_vel, forces, masses, ref, dt)
        got = LeapFrogIntegrator(dt=dt).bind(pos, vel, forces, masses, ref)()
        assert pos.tobytes() == want_pos.tobytes()
        assert vel.tobytes() == want_vel.tobytes()
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_arrays_it_cannot_step_raise(self):
        integ = LeapFrogIntegrator()
        pos, vel, forces, ref = (np.zeros((3, 3)) for _ in range(4))
        masses = np.ones(3)
        for bad in (
            dict(pos=pos.astype(np.float32)), dict(masses=masses.astype(np.float32)),
            dict(vel=np.zeros((6, 3))[::2]), dict(ref=np.zeros((2, 3))),
            dict(pos=np.zeros((2, 3))),
        ):
            args = dict(pos=pos, vel=vel, forces=forces, masses=masses, ref=ref) | bad
            with pytest.raises(ValueError, match="bind takes"):
                integ.bind(*args.values())


class TestRankPhases:
    def test_guard_prune_and_integrate_reach_the_compiled_code(self, ff, monkeypatch):
        """With every NumPy oracle gone, a hot DD run still guards,
        re-prunes and integrates: through the compiled entry points."""
        calls = _spy(monkeypatch)
        monkeypatch.setattr(nonbonded, "within_radius", None)
        monkeypatch.setattr(PairBlock, "__init__", None)
        monkeypatch.setattr(LeapFrogIntegrator, "step", None)
        monkeypatch.setattr(integrator, "kinetic_energy", None)
        monkeypatch.setattr(phases, "np", None)
        system = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=4, backend="reference", executor="serial",
            nstlist=10, buffer=0.15, dt=0.002,
        ) as sim:
            sim.run(6)
        assert calls.count("ps_drifted_f64") == 6 * 4 * 2
        assert calls.count("nb_leapfrog_f64") == 6 * 4
        # Eight prunes at the search, and the guard re-pruned since.
        assert calls.count("ps_prune_count_f64") == calls.count("ps_prune_fill") > 8


#: The environment a child interpreter runs this checkout with.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}


#: Build into the directory in argv[1], load, and check one block, one
#: prune and one rank search against their oracles; prints the library's
#: path.
_BUILD_AND_CHECK = """
import sys
from types import SimpleNamespace
import numpy as np
from repro.md import kernels, native, nonbonded
from repro.md.forcefield import default_forcefield
from repro.par.phases import RankNsData
from tests import oracles
path = native.build(sys.argv[1])
native._lib = native.load(path)
ff = default_forcefield(cutoff=0.65)
rng = np.random.default_rng(3)
pos = rng.uniform(0.0, 2.0, (200, 3))
i = np.sort(rng.integers(0, 200, 3000))
j = (i + 1 + rng.integers(0, 199, 3000)) % 200
tid = np.zeros(200, np.int32)
block = nonbonded.PairBlock(i, j, tid, ff.charges_for(tid), ff, n_atoms=200)
for dtype in ("float64", "float32"):
    a = nonbonded.block_forces(pos, block, ff, box=np.full(3, 2.0), dtype=dtype)
    b = nonbonded.block_forces_numpy(pos, block, ff, box=np.full(3, 2.0), dtype=dtype)
    assert a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:], dtype
box = np.full(3, 2.0)
pruned = nonbonded.PairBlock.pruned(
    pos, i.astype(np.int32), j.astype(np.int32), 0.5, tid, ff.charges_for(tid), ff, box=box,
)
keep = nonbonded.within_radius(pos, i, j, 0.5, box=box)
assert np.array_equal(pruned.j, j[keep]) and np.array_equal(pruned.i, i[keep])
rank = SimpleNamespace(
    pos=pos, cfg=SimpleNamespace(box=box, periodic=np.ones(3, bool), r_comm=0.5),
    ns=RankNsData(rank=0, n_home=150, zone_shift=np.zeros((200, 3), int),
                  src_pulse=np.r_[np.full(150, -1), np.zeros(50, int)], n_pulses=1),
)
got, want = kernels.build_split(rank), oracles.build_split(rank)
for half in ("local", "nonlocal_"):
    assert np.array_equal(got[half].i, want[half].i)
    assert np.array_equal(got[half].j, want[half].j)
assert np.array_equal(got["pulse_offsets"], want["pulse_offsets"])
print(path)
"""


class TestBuild:
    def test_empty_cache_builds_a_library_that_matches(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_CHECK, str(tmp_path)],
            capture_output=True, text=True, timeout=300, env=ENV,
        )
        assert done.returncode == 0, done.stderr
        path = Path(done.stdout.strip())
        assert path.parent == tmp_path and path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_two_processes_building_at_once_both_load(self, tmp_path):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _BUILD_AND_CHECK, str(tmp_path)], env=ENV, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        results = [p.communicate(timeout=300) + (p.returncode,) for p in procs]
        for out, err, code_ in results:
            assert code_ == 0, err
        paths = {out.strip() for out, _, _ in results}
        assert len(paths) == 1
        # No temporary file is left behind, whichever process won.
        assert [p.name for p in tmp_path.iterdir()] == [Path(paths.pop()).name]

    def test_missing_compiler_is_one_line(self, tmp_path):
        """A PATH without ``cc``: the MD command exits 1 with one line
        naming the compiler, not a traceback; nothing is written."""
        (tmp_path / "bin").mkdir()
        cache = tmp_path / "cache"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "verify", "--atoms", "1400",
             "--ranks", "2", "--steps", "1"],
            capture_output=True, text=True, timeout=300,
            env={**ENV, "PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(cache)},
        )
        assert done.returncode == 1
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "'cc'" in lines[0] and "C compiler" in lines[0]
        # It names what needs the compiler.
        assert "nonbonded.c" in lines[0] and "pairsearch.c" in lines[0]
        assert "Traceback" not in done.stderr
        assert not cache.exists()

    def test_timing_layer_commands_build_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        for argv in (["critical", "--gpus", "16", "--backend", "nvshmem"],
                     ["profile", "--ranks", "16", "--backend", "nvshmem"]):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=300,
                env={**ENV, "XDG_CACHE_HOME": str(cache)},
            )
            assert done.returncode == 0, done.stderr
        assert not cache.exists()

    def test_every_input_of_a_build_moves_the_cache_key(self, tmp_path):
        cc = native.compiler()
        sources = tuple(p.read_bytes() for p in native.SOURCES)
        base = (sources, (*native.FLAGS, native.isa_flag()),
                native.compiler_id(cc), native.host_cpu())
        key = native.cache_key(*base)
        assert native.cache_key(*base) == key
        # Another compiler binary behind the name, or the same one upgraded.
        other = tmp_path / "cc"
        other.write_bytes(Path(os.path.realpath(cc)).read_bytes()[:4096])
        upgraded = tmp_path / "cc-upgraded"
        upgraded.write_bytes(other.read_bytes() + b"\0")
        evaluator, search = sources
        changed = [
            ((evaluator + b"\n", search), *base[1:]),
            ((evaluator, search + b"\n"), *base[1:]),
            # Text moved from one source to the other.
            ((evaluator + search[:1], search[1:]), *base[1:]),
            (base[0], base[1][:-1], *base[2:]),
            (base[0], (*base[1][:-1], "-march=x86-64"), *base[2:]),
            (*base[:2], native.compiler_id(str(other)), base[3]),
            (*base[:2], native.compiler_id(str(upgraded)), base[3]),
            (*base[:3], base[3] + " avx512f"),
        ]
        keys = {native.cache_key(*c) for c in changed}
        assert key not in keys and len(keys) == len(changed)

    def test_a_cached_build_starts_no_process(self, monkeypatch):
        """A child's ru_maxrss reports its parent's RSS, so finding the
        library must not spawn ``cc``."""
        native.build()  # cached by now

        def spawn(*args, **kwargs):
            raise AssertionError("a cached build spawned a process")

        monkeypatch.setattr(subprocess, "run", spawn)
        monkeypatch.setattr(subprocess, "Popen", spawn)
        assert native.build().exists()

    def test_cache_dir_is_per_user(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.cache_dir() == tmp_path / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert native.cache_dir() == Path.home() / ".cache" / "repro"
