"""The compiled code against its NumPy oracles, bit for bit, and its build.

``repro.md.nonbonded.block_forces`` runs ``nonbonded.c``;
``block_forces_numpy`` is the chain it was written from.  Every drawn
case must give the same bytes: forces (signed zeros and NaN payloads
included), ``e_lj``, ``e_coul``, and on an overlap the same error with
the same partial ``out_forces``.

``repro.md.cells.cluster_pairs`` and ``repro.md.nonbonded.prune_mask``
run ``pairsearch.c``; the NumPy stages they were written from —
``cluster_pair_candidates``, the halo cluster cut, ``cluster_tile_pairs``
and ``within_radius`` — are their oracles.  A drawn search must give the
same sorted pair keys and the same candidate and tile counts, a drawn
prune the same mask.

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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dd import DDSimulator
from repro.md import cells, make_grappa_system, native, nonbonded
from repro.md.cells import (
    BuildBudget,
    build_clusters,
    cluster_pair_candidates,
    cluster_pairs,
    cluster_tile_pairs,
)
from repro.md.forcefield import default_forcefield
from repro.md.nonbonded import (
    NonbondedKernel,
    PairBlock,
    block_forces,
    block_forces_numpy,
    prune_mask,
    within_radius,
)

ROOT = Path(__file__).resolve().parents[1]

#: Cutoff 1.0 makes r_c² the dummy distance 1.0 itself.
FORCEFIELDS = {cutoff: default_forcefield(cutoff=cutoff) for cutoff in (0.65, 1.0)}


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
        """The kernel the engines call runs the C chain, and only it."""
        ff = FORCEFIELDS[0.65]
        lib, calls = native.library(), []

        class Spy:
            def __getattr__(self, name):
                def call(*args):
                    calls.append(name)
                    return getattr(lib, name)(*args)
                return call

        monkeypatch.setattr(native, "_lib", Spy())
        monkeypatch.setattr(nonbonded, "block_forces_numpy", None)
        kern = NonbondedKernel(ff, dtype=dtype)
        pos = np.array([[0.0, 0, 0], [0.3, 0, 0], [0, 0.4, 0]])
        block = kern.make_block(
            np.array([0, 0]), np.array([1, 2]), np.zeros(3, np.int32),
            np.array([0.2, -0.1, 0.3]), n_atoms=3,
        )
        f, e_lj, _ = kern.compute_block(pos, block)
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


# -- the compiled search and prune against their NumPy oracles -----------------


def _oracle_search(pos, a, b, r_list, box, periodic, zone_bits):
    """Sorted keys, candidates and tiles of the NumPy stages composed as
    ``build_split`` composed them: candidates, the cluster zone cut, tiles."""
    same = a is b
    budget = BuildBudget()
    ci, cj = cluster_pair_candidates(a, b, r_list, box, periodic, same, budget=budget)
    if zone_bits is not None:
        cut_a = cells._cluster_zone_bits(a, zone_bits)
        cut_b = cells._cluster_zone_bits(b, zone_bits)
        keep = (cut_a[ci] & cut_b[cj]) == 0
        ci, cj = ci[keep], cj[keep]
    pi, pj = cluster_tile_pairs(
        pos, a, b, ci, cj, r_list, box, periodic, same, zone_bits=zone_bits,
    )
    stride = a.n_total + 1
    keys = np.sort(np.minimum(pi, pj) * stride + np.maximum(pi, pj))
    return keys, budget.candidates, int(ci.size)


@st.composite
def searches(draw):
    """Home and halo layouts as a rank builds them: every periodic mask,
    boxes down to 1.2 r_list (window images overlap), empty layouts,
    padding slots, grids that do not cover the atoms, zone bits on any
    layout pair, output buffers a few keys long, and atoms on a lattice
    of r_list / 2 whose neighbours sit exactly r_list apart."""
    r_list = 0.5
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periodic = np.array(draw(st.tuples(*[st.booleans()] * 3)))
    box = np.array(draw(st.tuples(*[st.floats(0.6, 2.4)] * 3)))
    n_home, n_halo = draw(st.integers(0, 160)), draw(st.integers(0, 120))
    reach = np.where(periodic, 0.0, r_list)
    if draw(st.booleans()):
        home = rng.random((n_home, 3)) * box
        halo = rng.random((n_halo, 3)) * (box + reach)
    else:
        sites = np.stack(np.meshgrid(
            *(np.arange(0.0, top, r_list / 2) for top in box + reach), indexing="ij",
        ), axis=-1).reshape(-1, 3)
        inside = np.all(sites < box, axis=1)
        home = rng.permutation(sites[inside])[:n_home]
        halo = rng.permutation(sites[~inside] if rng.random() < 0.5 else sites)[:n_halo]
        n_home, n_halo = len(home), len(halo)
    n = n_home + n_halo
    tight_grid = draw(st.booleans())
    lo = np.zeros(3)
    hi = np.where(periodic | ~tight_grid, box + reach, 0.5 * box)
    lay_home = build_clusters(home, lo, hi, 4, n_total=n)
    lay_halo = build_clusters(halo, lo, hi, 4, index_offset=n_home, n_total=n)
    group = draw(st.sampled_from(["home-home", "home-halo", "halo-halo"]))
    a, b = {
        "home-home": (lay_home, lay_home), "home-halo": (lay_home, lay_halo),
        "halo-halo": (lay_halo, lay_halo),
    }[group]
    bits = rng.integers(0, 8, n).astype(np.uint8) if draw(st.booleans()) else None
    return dict(
        pos=np.vstack([home, halo]), a=a, b=b, r_list=r_list, box=box,
        periodic=periodic, zone_bits=bits,
        capacity=draw(st.one_of(st.none(), st.integers(0, 40))),
    )


@st.composite
def prunes(draw):
    """Pairs with indices out of range on both sides, NaN / inf
    coordinates, every periodic mask with and without a box, and pairs
    exactly the radius apart on a lattice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    m = draw(st.integers(0, 600))
    box = rng.uniform(0.8, 3.0, 3)
    pos = rng.uniform(-0.5, 1.5, (n, 3)) * box
    radius = float(rng.uniform(0.1, 1.5))
    if draw(st.booleans()):
        radius = 0.5
        pos = rng.integers(-2, 8, (n, 3)) * 0.25
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3)):
        pos[rng.integers(n), rng.integers(3)] = value
    i, j = rng.integers(-3, n + 3, (2, m))
    return dict(
        pos=pos.astype(draw(st.sampled_from(["float64", "float32"]))),
        i=i.astype(draw(st.sampled_from(["int32", "int64"]))), j=j.astype(np.int32),
        radius=radius,
        box=box if draw(st.booleans()) else None,
        periodic=draw(st.one_of(
            st.none(), st.tuples(*[st.booleans()] * 3).map(np.array),
        )),
    )


class TestSearchOracle:
    @given(case=searches())
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_and_counts_as_the_numpy_stages(self, case):
        want = _oracle_search(
            case["pos"], case["a"], case["b"], case["r_list"], case["box"],
            case["periodic"], case["zone_bits"],
        )
        budget = BuildBudget()
        with pytest.MonkeyPatch.context() as mp:
            if case["capacity"] is not None:
                mp.setattr(cells, "_initial_capacity", lambda *_: case["capacity"])
            keys = cluster_pairs(
                case["pos"], case["a"], case["b"], case["r_list"], case["box"],
                case["periodic"], budget, zone_bits=case["zone_bits"],
            )
        assert keys.dtype == np.int64
        assert np.array_equal(np.sort(keys), want[0])
        assert (budget.candidates, budget.tiles) == want[1:]

    @given(case=prunes())
    @settings(max_examples=300, deadline=None)
    def test_same_mask_as_within_radius(self, case):
        args = (case["pos"], case["i"], case["j"], case["radius"])
        kw = dict(box=case["box"], periodic=case["periodic"])
        with np.errstate(invalid="ignore", over="ignore"):
            want = within_radius(*args, **kw)
        got = prune_mask(*args, **kw)
        assert got.dtype == bool and np.array_equal(got, want)

    def test_no_rows_raises_as_the_oracle_does(self):
        for fn in (within_radius, prune_mask):
            with pytest.raises(IndexError):
                fn(np.zeros((0, 3)), np.zeros(2, np.int32), np.zeros(2, np.int32), 1.0)

    def test_a_full_buffer_resumes_at_a_cluster(self, small_system, ff, monkeypatch):
        """Three keys to start with: the search stops and resumes many
        times, and gives the keys and counts of one uninterrupted pass."""
        pos, box = small_system.positions, small_system.box
        periodic = np.ones(3, dtype=bool)
        lay = build_clusters(pos, np.zeros(3), box, 4)
        r_list = ff.cutoff + 0.12
        whole = BuildBudget()
        want = np.sort(cluster_pairs(pos, lay, lay, r_list, box, periodic, whole))
        lib, calls = native.library(), []

        class Spy:
            def __getattr__(self, name):
                def call(*args):
                    calls.append(name)
                    return getattr(lib, name)(*args)
                return call

        monkeypatch.setattr(cells, "_initial_capacity", lambda *_: 3)
        monkeypatch.setattr(native, "_lib", Spy())
        parts = BuildBudget()
        got = np.sort(cluster_pairs(pos, lay, lay, r_list, box, periodic, parts))
        assert calls.count("ps_cluster_pairs") > 10
        assert np.array_equal(got, want) and want.size > 0
        assert (parts.candidates, parts.tiles) == (whole.candidates, whole.tiles)
        # Every buffer the search held is accounted, the last one included.
        assert parts.peak_bytes >= 8 * got.size

    def test_build_split_and_prune_reach_the_compiled_search(self, tiny_system, ff, monkeypatch):
        """An engine's search and prune run pairsearch.c, and only it."""
        lib, calls = native.library(), []

        class Spy:
            def __getattr__(self, name):
                def call(*args):
                    calls.append(name)
                    return getattr(lib, name)(*args)
                return call

        monkeypatch.setattr(native, "_lib", Spy())
        for module, name in ((cells, "cluster_pair_candidates"),
                             (cells, "cluster_tile_pairs"),
                             (nonbonded, "within_radius")):
            monkeypatch.setattr(module, name, None)
        with DDSimulator(
            tiny_system.copy(), ff, n_ranks=2, backend="reference",
            executor="serial", nstlist=5, buffer=0.12, kernel="cluster",
        ) as sim:
            sim.step()
        # Two ranks: three layout pairs and two halves each.
        assert calls.count("ps_cluster_pairs") >= 6
        assert calls.count("ps_within_radius") == 4


#: The environment a child interpreter runs this checkout with.
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


#: Build into the directory in argv[1], load, and check one block against
#: the NumPy chain; prints the library's path.
_BUILD_AND_CHECK = """
import sys
import numpy as np
from repro.md import cells, native, nonbonded
from repro.md.forcefield import default_forcefield
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
keep = nonbonded.prune_mask(pos, i.astype(np.int32), j.astype(np.int32), 0.5, box=box)
assert np.array_equal(keep, nonbonded.within_radius(pos, i, j, 0.5, box=box))
lay = cells.build_clusters(pos, np.zeros(3), box, 4)
periodic = np.ones(3, dtype=bool)
budget = cells.BuildBudget()
keys = np.sort(cells.cluster_pairs(pos, lay, lay, 0.5, box, periodic, budget))
ci, cj = cells.cluster_pair_candidates(lay, lay, 0.5, box, periodic, True)
pi, pj = cells.cluster_tile_pairs(pos, lay, lay, ci, cj, 0.5, box, periodic, True)
assert np.array_equal(keys, np.sort(np.minimum(pi, pj) * 201 + np.maximum(pi, pj)))
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
