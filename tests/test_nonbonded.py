"""Non-bonded kernel: forces, energies, and physical invariants."""

import hashlib
import threading

import numpy as np
import pytest

from repro.md import nonbonded
from repro.md.cells import periodic_cell_list
from repro.md.forcefield import COULOMB_FACTOR, default_forcefield
from repro.md.nonbonded import NonbondedKernel, PairBlock, block_forces, pair_forces
from repro.obs.metrics import METRICS


@pytest.fixture(scope="module")
def ff():
    return default_forcefield(cutoff=1.0)


def two_atoms(ff, r, q=(0.0, 0.0), types=(0, 0)):
    pos = np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]])
    i = np.array([0])
    j = np.array([1])
    tid = np.array(types, dtype=np.int32)
    charges = np.array(q)
    return pair_forces(pos, i, j, tid, charges, ff)


class TestTwoBody:
    def test_newton_third_law(self, ff):
        f, _, _ = two_atoms(ff, 0.3, q=(0.2, -0.2))
        np.testing.assert_allclose(f[0], -f[1], rtol=1e-12)

    def test_lj_repulsive_inside_minimum(self, ff):
        sigma = ff.types[0].sigma
        f, _, _ = two_atoms(ff, 0.8 * sigma)
        assert f[0][0] < 0  # pushed apart (atom 0 toward -x)
        assert f[1][0] > 0

    def test_lj_attractive_outside_minimum(self, ff):
        sigma = ff.types[0].sigma
        f, _, _ = two_atoms(ff, 1.5 * sigma)
        assert f[0][0] > 0  # pulled together

    def test_lj_force_zero_at_minimum(self, ff):
        rmin = 2 ** (1 / 6) * ff.types[0].sigma
        f, _, _ = two_atoms(ff, rmin)
        np.testing.assert_allclose(f[0], 0.0, atol=1e-8)

    def test_beyond_cutoff_zero(self, ff):
        f, e_lj, e_c = two_atoms(ff, ff.cutoff * 1.01, q=(0.4, 0.4))
        assert np.all(f == 0.0) and e_lj == 0.0 and e_c == 0.0

    def test_coulomb_rf_sign(self, ff):
        f_pp, _, e_pp = two_atoms(ff, 0.5, q=(0.3, 0.3))
        f_pm, _, e_pm = two_atoms(ff, 0.5, q=(0.3, -0.3))
        # Like charges repel relative to opposite charges.
        assert f_pp[1][0] > f_pm[1][0]
        assert e_pp > e_pm

    def test_rf_energy_zero_at_cutoff(self, ff):
        _, _, e_c = two_atoms(ff, ff.cutoff - 1e-9, q=(0.5, 0.5))
        assert abs(e_c) < 1e-6

    def test_force_matches_numeric_gradient(self, ff):
        """F = -dV/dr for the combined LJ + RF interaction."""
        r = 0.31
        h = 1e-6
        q = (0.3, -0.2)

        def energy(rr):
            _, e_lj, e_c = two_atoms(ff, rr, q=q)
            return e_lj + e_c

        f, _, _ = two_atoms(ff, r, q=q)
        dvdr = (energy(r + h) - energy(r - h)) / (2 * h)
        assert f[1][0] == pytest.approx(-dvdr, rel=1e-5)

    def test_overlap_raises(self, ff):
        with pytest.raises(FloatingPointError):
            two_atoms(ff, 0.0)


class TestBulk:
    def _bulk(self, ff, n=200, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        box = np.array([3.0, 3.0, 3.0])
        # Jittered lattice to avoid overlaps.
        side = int(np.ceil(n ** (1 / 3)))
        idx = rng.choice(side**3, n, replace=False)
        pos = np.stack([idx // side**2, (idx // side) % side, idx % side], axis=1)
        pos = (pos + 0.5) * (3.0 / side) + rng.uniform(-0.05, 0.05, (n, 3))
        pos = np.mod(pos, box).astype(dtype)
        tid = rng.integers(0, 3, n).astype(np.int32)
        q = ff.charges_for(tid)
        cl = periodic_cell_list(box, ff.cutoff)
        i, j = cl.pairs_within(pos, ff.cutoff)
        return pos, i, j, tid, q, box

    def test_momentum_conservation(self, ff):
        pos, i, j, tid, q, box = self._bulk(ff)
        f, _, _ = pair_forces(pos, i, j, tid, q, ff, box=box)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9)

    def test_buffered_list_gives_identical_forces(self, ff):
        """Extra out-of-range pairs in a buffered list contribute nothing."""
        pos, i, j, tid, q, box = self._bulk(ff)
        f1, e1, c1 = pair_forces(pos, i, j, tid, q, ff, box=box)
        cl = periodic_cell_list(box, ff.cutoff + 0.2)
        ib, jb = cl.pairs_within(pos, ff.cutoff + 0.2)
        f2, e2, c2 = pair_forces(pos, ib, jb, tid, q, ff, box=box)
        np.testing.assert_allclose(f1, f2, atol=1e-9)
        assert e1 == pytest.approx(e2) and c1 == pytest.approx(c2)

    def test_empty_pairs(self, ff):
        pos = np.zeros((3, 3))
        f, e, c = pair_forces(
            pos, np.empty(0, np.int64), np.empty(0, np.int64),
            np.zeros(3, np.int32), np.zeros(3), ff,
        )
        assert np.all(f == 0) and e == 0 and c == 0

    def test_out_forces_accumulates_into_given_buffer(self, ff):
        pos, i, j, tid, q, box = self._bulk(ff, n=50)
        buf = np.zeros((50, 3))
        out, _, _ = pair_forces(pos, i, j, tid, q, ff, box=box, out_forces=buf)
        assert out is buf
        assert np.any(buf != 0)

    def test_out_forces_shape_checked(self, ff):
        pos, i, j, tid, q, box = self._bulk(ff, n=50)
        with pytest.raises(ValueError):
            pair_forces(pos, i, j, tid, q, ff, box=box, out_forces=np.zeros((3, 3)))

    def test_float32_forces_close_to_float64(self, ff):
        pos, i, j, tid, q, box = self._bulk(ff, n=200)
        f64, _, _ = pair_forces(pos, i, j, tid, q, ff, box=box)
        f32, _, _ = pair_forces(
            pos.astype(np.float32), i, j, tid, q, ff, box=box
        )
        scale = np.abs(f64).max()
        np.testing.assert_allclose(f32, f64, atol=2e-4 * scale)

    def test_coulomb_factor_value(self):
        assert COULOMB_FACTOR == pytest.approx(138.935458)


class TestOverlapHandling:
    """A genuine in-cutoff overlap (r == 0) fails loudly on both
    precision paths; a NaN or huge distance is masked like any pair
    beyond the cutoff, and hides no overlap beside it."""

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_unmasked_in_cutoff_overlap_raises(self, ff, dtype):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
        block = PairBlock(
            np.array([0, 0]), np.array([1, 2]), np.zeros(3, dtype=np.int32),
            np.array([0.2, -0.1, 0.3]), ff, n_atoms=3,
        )
        with pytest.raises(FloatingPointError, match="overlapping"):
            block_forces(pos, block, ff, dtype=dtype)

    # sha256 of the forces (NaN canonicalised) and (e_lj, e_coul) of the
    # blown-up chunks below, computed at commit 48fd9da — when every chunk
    # ran the dummy-distance pass and the overlap test was a mask — and
    # pasted in.
    NONFINITE_PINNED = {
        ("far", "float32"): "1ca0a2d1ff38bdb29d83275cdf8180fcabcf896f62b1b734f5410bbefda2cb1f",
        ("far", "float64"): "cfc8defd840cf49f4eb3821ea77629f66e68b5c19503b2d4bfe0169bd5d6728c",
        ("nan", "float32"): "29991cdda2ad8b46cb104a17ef412c88de8d68e5ec73646544f9ddb5f8a44387",
        ("nan", "float64"): "6da66fd850fde02945caa5d03e696cfc1cea91ff6646c8429ea6cc66369d1437",
    }

    @staticmethod
    def _blown_up(ff, case):
        """One chunk in which atom 5 has NaN coordinates (``"nan"``) or
        the charged atom 3 has flown 1e19 nm off (``"far"``); it keeps its
        listed pairs, now beyond the cutoff.  Far in float32, r² ≈ 3e38 is
        finite but k_rf·r²·qq is not."""
        pos, i, j, tid, q, _ = _sorted_bulk(ff, seed=10, n=120)
        atom = 5 if case == "nan" else 3
        pos[atom] = np.nan if case == "nan" else 1e19
        assert np.isin(atom, i) and q[atom] != 0.0
        return pos, i, j, PairBlock(i, j, tid, q, ff, n_atoms=pos.shape[0])

    @pytest.mark.parametrize("case,dtype", sorted(NONFINITE_PINNED))
    def test_non_finite_distances_give_the_parents_results(self, ff, case, dtype):
        pos, _, _, block = self._blown_up(ff, case)
        f, e, c = block_forces(pos, block, ff, dtype=dtype)
        assert np.isfinite([e, c]).all()
        assert np.isnan(f[5]).all() if case == "nan" else np.isfinite(f).all()
        digest = hashlib.sha256(np.where(np.isnan(f), np.nan, f).tobytes())
        digest.update(np.array([e, c]).tobytes())
        assert digest.hexdigest() == self.NONFINITE_PINNED[case, dtype]

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_overlap_beside_a_nan_distance_still_raises(self, ff, dtype):
        pos, i, j, block = self._blown_up(ff, "nan")
        k = np.flatnonzero((i != 5) & (j != 5))[0]
        pos[j[k]] = pos[i[k]]
        with pytest.raises(FloatingPointError, match="overlapping"):
            block_forces(pos, block, ff, dtype=dtype)


def _sorted_bulk(ff, n=250, seed=0, extra=0.2):
    """A jittered-lattice system with its (i, j)-sorted buffered pair list."""
    rng = np.random.default_rng(seed)
    box = np.array([3.0, 3.0, 3.0])
    side = int(np.ceil(n ** (1 / 3)))
    idx = rng.choice(side**3, n, replace=False)
    pos = np.stack([idx // side**2, (idx // side) % side, idx % side], axis=1)
    pos = (pos + 0.5) * (3.0 / side) + rng.uniform(-0.05, 0.05, (n, 3))
    pos = np.mod(pos, box)
    tid = rng.integers(0, 3, n).astype(np.int32)
    q = ff.charges_for(tid)
    # Buffered radius: the list carries out-of-cutoff pairs the kernel
    # must mask to zero, exactly like a Verlet-buffered list.
    cl = periodic_cell_list(box, ff.cutoff + extra)
    i, j = cl.pairs_within(pos, ff.cutoff + extra)
    order = np.lexsort((j, i))
    return pos, i[order], j[order], tid, q, box


class TestSegmentReduction:
    """The reduceat/bincount hot path against the add.at scatter reference.

    Per-pair arithmetic in :func:`block_forces` keeps the exact evaluation
    order of :func:`pair_forces`, so the only difference is the per-atom
    accumulation order — results must agree to a few ulps of the largest
    force component, on random buffered pair lists.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_forces_match_scatter_within_ulps(self, ff, seed):
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=seed)
        f_ref, e_ref, c_ref = pair_forces(pos, i, j, tid, q, ff, box=box)
        block = PairBlock(i, j, tid, q, ff, n_atoms=pos.shape[0])
        f_blk, e_blk, c_blk = block_forces(pos, block, ff, box=box)
        tol = 4.0 * np.spacing(np.abs(f_ref).max())
        assert np.max(np.abs(f_blk - f_ref)) <= tol
        assert e_blk == pytest.approx(e_ref, rel=1e-12)
        assert c_blk == pytest.approx(c_ref, rel=1e-12)

    def test_disjoint_pairs_bit_identical_to_the_oracle(self, ff):
        """Per-pair forces equal the oracle's bit for bit.

        Every atom is in exactly one pair, so no accumulation order is
        involved: each force is one pair's ``fscal · dx``.  The kernel sums
        ``r²`` from coordinate columns in the association NumPy's
        ``einsum("ij,ij->i")`` uses in float64, ``(x² + z²) + y²``; a NumPy
        whose ``einsum`` associates differently fails here.
        """
        rng = np.random.default_rng(17)
        box = np.full(3, 6.0)
        n = 600
        a = rng.uniform(0.0, 6.0, (n, 3))
        v = rng.standard_normal((n, 3))
        v *= rng.uniform(0.3, 0.95, (n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        b = a + v
        a[0], b[0] = [0.1, 3.0, 3.0], [5.7, 3.1, 2.9]  # across the x boundary
        a[1], b[1] = [1.0, 1.0, 1.0], [1.0, 2.2, 1.0]  # beyond the cutoff
        pos = np.empty((2 * n, 3))
        pos[0::2], pos[1::2] = a, np.mod(b, box)
        i, j = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
        tid = rng.integers(0, 3, 2 * n).astype(np.int32)
        q = ff.charges_for(tid)
        f_ref, _, _ = pair_forces(pos, i, j, tid, q, ff, box=box)
        block = PairBlock(i, j, tid, q, ff, n_atoms=2 * n)
        f, _, _ = block_forces(pos, block, ff, box=box)
        assert np.any(f[0] != 0.0) and np.all(f[2:4] == 0.0)
        assert np.array_equal(f, f_ref)

    def test_group_key_partition_matches(self, ff):
        """Group-key boundaries (the per-pulse partition) change only the
        segment structure, never the result."""
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=3)
        f_ref, e_ref, c_ref = pair_forces(pos, i, j, tid, q, ff, box=box)
        # An arbitrary grouping: resort by (group, i) as pair_search does.
        group = (np.arange(i.size) * 7919) % 3
        order = np.lexsort((j, i, group))
        gi, gj, gg = i[order], j[order], group[order]
        block = PairBlock(gi, gj, tid, q, ff, n_atoms=pos.shape[0], group_key=gg)
        # seg_i repeats across group boundaries; add.at on segment sums
        # must still produce the right per-atom totals.
        assert block.seg_i.size >= np.unique(gi).size
        f_blk, e_blk, c_blk = block_forces(pos, block, ff, box=box)
        tol = 8.0 * np.spacing(np.abs(f_ref).max())
        assert np.max(np.abs(f_blk - f_ref)) <= tol
        assert e_blk == pytest.approx(e_ref, rel=1e-12)
        assert c_blk == pytest.approx(c_ref, rel=1e-12)

    def test_unsorted_list_still_correct(self, ff):
        """Correctness never depends on sortedness — only speed does."""
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=5, n=120)
        rng = np.random.default_rng(11)
        perm = rng.permutation(i.size)
        f_ref, e_ref, c_ref = pair_forces(pos, i, j, tid, q, ff, box=box)
        block = PairBlock(i[perm], j[perm], tid, q, ff, n_atoms=pos.shape[0])
        f_blk, e_blk, c_blk = block_forces(pos, block, ff, box=box)
        tol = 8.0 * np.spacing(np.abs(f_ref).max())
        assert np.max(np.abs(f_blk - f_ref)) <= tol
        assert e_blk == pytest.approx(e_ref, rel=1e-12)

    def test_scratch_buffers_reused_across_steps(self, ff):
        """One scratch per process: steps and blocks share it, and a block
        holds nothing the evaluator could write to."""
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=2, n=100)
        block = PairBlock(i, j, tid, q, ff, n_atoms=pos.shape[0])
        other = PairBlock(i[::2], j[::2], tid, q, ff, n_atoms=pos.shape[0])
        stored = block.nbytes
        f1, e1, c1 = block_forces(pos, block, ff, box=box)
        bufs = {name: id(arr) for name, arr in nonbonded._scratch.by_dtype["float64"].items()}
        block_forces(pos, other, ff, box=box)
        f2, e2, c2 = block_forces(pos, block, ff, box=box)
        assert {
            name: id(arr) for name, arr in nonbonded._scratch.by_dtype["float64"].items()
        } == bufs
        np.testing.assert_array_equal(f1, f2)
        assert (e1, c1) == (e2, c2)
        assert block.nbytes == stored
        assert not any("scratch" in slot or slot == "buf" for slot in block.__slots__)
        with pytest.raises(AttributeError):
            block._scratch = {}
        # Another thread gets arrays of its own.
        theirs = {}

        def evaluate():
            block_forces(pos, other, ff, box=box)
            held = nonbonded._scratch.by_dtype["float64"]
            theirs.update({name: id(arr) for name, arr in held.items()})

        worker = threading.Thread(target=evaluate)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and theirs.keys() == bufs.keys()
        assert not set(theirs.values()) & set(bufs.values())

    def test_kernel_compute_block_equivalent(self, ff):
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=9, n=100)
        k = NonbondedKernel(ff)
        block = k.make_block(i, j, tid, q, n_atoms=pos.shape[0])
        f1, e1, c1 = k.compute_block(pos, block, box=box)
        f2, e2, c2 = block_forces(pos, block, ff, box=box)
        np.testing.assert_array_equal(f1, f2)
        assert (e1, c1) == (e2, c2)

    def test_empty_block(self, ff):
        block = PairBlock(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.zeros(3, np.int32), np.zeros(3), ff, n_atoms=3,
        )
        pos = np.zeros((3, 3))
        f, e, c = block_forces(pos, block, ff)
        assert np.all(f == 0) and e == 0.0 and c == 0.0

    @pytest.mark.parametrize("i,j", [([0, 3], [1, 2]), ([-1], [1]), ([0], [3])])
    def test_out_of_range_indices_raise(self, ff, i, j):
        """Indices are checked once, here: the evaluator's gathers clip."""
        with pytest.raises(ValueError, match=r"pair indices must lie in \[0, 3\)"):
            PairBlock(
                np.array(i), np.array(j), np.zeros(4, np.int32), np.zeros(4), ff,
                n_atoms=3,
            )

    @pytest.mark.parametrize("periodic", ([True] * 3, [False, True, False], None))
    def test_within_radius_is_the_distance_test(self, ff, monkeypatch, periodic):
        """The prune pass keeps exactly the pairs within the radius, by
        the same minimum image as the kernel, however it is chunked."""
        pos, i, j, _, _, box = _sorted_bulk(ff, seed=6)
        periodic = None if periodic is None else np.array(periodic)
        dx = pos[i] - pos[j]
        wrap = np.ones(3, bool) if periodic is None else periodic
        dx -= np.where(wrap, np.rint(dx / box) * box, 0.0)
        want = np.einsum("ij,ij->i", dx, dx) <= 1.05**2
        assert 0 < want.sum() < want.size
        got = nonbonded.within_radius(pos, i, j, 1.05, box=box, periodic=periodic)
        assert np.array_equal(got, want)
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 7)
        got = nonbonded.within_radius(
            pos, i.astype(np.int32), j.astype(np.int32), 1.05, box=box,
            periodic=periodic,
        )
        assert np.array_equal(got, want)

    def test_n_atoms_mismatch_raises(self, ff):
        block = PairBlock(
            np.array([0]), np.array([1]),
            np.zeros(4, np.int32), np.zeros(4), ff, n_atoms=4,
        )
        with pytest.raises(ValueError, match="built for"):
            block_forces(np.zeros((3, 3)), block, ff)


class TestChunking:
    """Cache-blocked evaluation: the chunk size is not an input of the
    forces.  The constant is patched down so tier-1 blocks really split."""

    def _case(self, ff, case):
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=4)
        group = None
        if case == "grouped":
            group = (np.arange(i.size) * 7919) % 3
            order = np.lexsort((j, i, group))
            i, j, group = i[order], j[order], group[order]
        elif case == "unsorted":
            perm = np.random.default_rng(11).permutation(i.size)
            i, j = i[perm], j[perm]
        elif case == "long_segment":
            # Atom 0 paired with everyone: one segment of n - 1 pairs.
            star = np.arange(1, pos.shape[0])
            keep = i != 0
            i = np.concatenate([np.zeros_like(star), i[keep]])
            j = np.concatenate([star, j[keep]])
        block = PairBlock(i, j, tid, q, ff, n_atoms=pos.shape[0], group_key=group)
        return pos, block, tid, q, box

    @pytest.mark.parametrize("chunk", (7, 64, 1000))
    @pytest.mark.parametrize("case", ("local", "grouped", "unsorted", "long_segment"))
    def test_forces_do_not_depend_on_chunk_size(self, ff, monkeypatch, case, chunk):
        pos, block, tid, q, box = self._case(ff, case)
        assert block.n_pairs < nonbonded.CHUNK_PAIRS  # the reference is one chunk
        f_one, e_one, c_one = block_forces(pos, block, ff, box=box)
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", chunk)
        sizes = [hi - lo for lo, hi, _, _ in nonbonded._chunks(block, chunk)]
        assert len(sizes) > 3 and sum(sizes) == block.n_pairs
        if case == "long_segment" and chunk < pos.shape[0] - 1:
            assert sizes[0] == pos.shape[0] - 1  # longer than a chunk, never cut
        elif case == "unsorted":
            assert block.seg_starts.size > 0.9 * block.n_pairs
        f, e, c = block_forces(pos, block, ff, box=box)
        assert np.array_equal(f, f_one)
        assert e == pytest.approx(e_one, rel=1e-12)
        assert c == pytest.approx(c_one, rel=1e-12)
        # ... and the scatter oracle still agrees as it did unchunked.
        f_ref, e_ref, c_ref = pair_forces(pos, block.i, block.j, tid, q, ff, box=box)
        assert np.max(np.abs(f - f_ref)) <= 8.0 * np.spacing(np.abs(f_ref).max())
        assert e == pytest.approx(e_ref, rel=1e-12)
        assert c == pytest.approx(c_ref, rel=1e-12)

    @pytest.mark.parametrize("chunk", (7, 64, 1000))
    def test_float32_stays_within_its_tolerance(self, ff, monkeypatch, chunk):
        pos, block, tid, q, box = self._case(ff, "local")
        f_ref, e_ref, c_ref = pair_forces(pos, block.i, block.j, tid, q, ff, box=box)
        f_one, e_one, c_one = block_forces(pos, block, ff, box=box, dtype="float32")
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", chunk)
        f, e, c = block_forces(pos, block, ff, box=box, dtype="float32")
        assert np.array_equal(f, f_one)
        assert np.abs(f - f_ref).max() < 5e-5 * np.abs(f_ref).max()
        assert e == pytest.approx(e_ref, rel=5e-6)
        assert c == pytest.approx(c_ref, rel=5e-6)

    # sha256 of the forces and (e_lj, e_coul) of one grouped block in
    # 64-pair chunks, computed at commit 9e2695a — when PairBlock still
    # cached 12*C12, 6*C6 and the LJ shift — and pasted in.  Reaction
    # field only: its chain is IEEE-exact arithmetic, no libm call.
    DERIVED_PINNED = {
        "float64": "4cc6b5e466e16fd0ca9af38a490226506db5effb9d09876f5cfd7b77f562f058",
        "float32": "bd47785fd05b88fa8459ce2dd90297f2aaedda2366408f8ab97dc84cc7ea1f5c",
    }

    @pytest.mark.parametrize("dtype", sorted(DERIVED_PINNED))
    def test_derived_parameters_match_the_cached_columns(self, ff, monkeypatch, dtype):
        """Deriving the three LJ columns per chunk (float32: in float64,
        rounded once) reproduces the cached columns' results bit for bit."""
        pos, i, j, tid, q, box = _sorted_bulk(ff, seed=8)
        group = (np.arange(i.size) * 7919) % 3
        order = np.lexsort((j, i, group))
        block = PairBlock(
            i[order], j[order], tid, q, ff, n_atoms=pos.shape[0], group_key=group[order]
        )
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 64)
        f, e, c = block_forces(pos, block, ff, box=box, dtype=dtype)
        digest = hashlib.sha256(f.tobytes())
        digest.update(np.array([e, c]).tobytes())
        assert digest.hexdigest() == self.DERIVED_PINNED[dtype]

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_overlap_in_the_last_chunk_still_raises(self, ff, monkeypatch, dtype):
        n = 30
        pos = np.zeros((n, 3))
        pos[:, 0] = 0.3 * np.arange(n)
        pos[n - 1] = pos[n - 2]  # the last pair of the list overlaps
        i = np.arange(n - 1)
        block = PairBlock(i, i + 1, np.zeros(n, np.int32), np.zeros(n), ff, n_atoms=n)
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 7)
        chunks = list(nonbonded._chunks(block, 7))
        assert len(chunks) == 5 and chunks[-1][0] <= n - 2 < chunks[-1][1]
        with pytest.raises(FloatingPointError, match="overlapping"):
            block_forces(pos, block, ff, dtype=dtype)

    def test_chunk_beyond_the_cutoff_leaves_nothing_behind(self, ff, monkeypatch):
        """A chunk with no interacting pair skips the chain; it must still
        clear its span of the shared force buffer (the whole-block bincount
        reads it) and keep the energies of the chunks before it."""
        base = np.array([[0.0, 0, 0], [0.3, 0, 0], [0, 0.3, 0], [0, 0, 0.3]])
        close = np.concatenate([base + 10.0 * g for g in range(3)])
        apart = close.copy()
        apart[4:8] = 10.0 + 5.0 * base  # the middle group, far beyond the cutoff
        pi = np.concatenate([4 * g + np.array([0, 0, 0, 1]) for g in range(3)])
        pj = np.concatenate([4 * g + np.array([1, 2, 3, 2]) for g in range(3)])
        tid = np.zeros(12, np.int32)
        q = np.tile([0.2, -0.1, 0.3, -0.4], 3)
        block = PairBlock(pi, pj, tid, q, ff, n_atoms=12)
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 4)
        assert [c[:2] for c in nonbonded._chunks(block, 4)] == [(0, 4), (4, 8), (8, 12)]
        for pos in (close, apart):  # the first call fills the middle span
            f, e, c = block_forces(pos, block, ff)
            f_ref, e_ref, c_ref = pair_forces(pos, pi, pj, tid, q, ff)
            np.testing.assert_allclose(f, f_ref, rtol=1e-13, atol=1e-12)
            assert e == pytest.approx(e_ref, rel=1e-12)
            assert c == pytest.approx(c_ref, rel=1e-12)
        assert np.all(f[4:8] == 0.0) and e_ref != 0.0

    def test_scratch_is_bounded_by_a_chunk_plus_the_largest_block(self, ff, monkeypatch):
        """Evaluator memory: one chunk-sized scratch whatever the block,
        plus 24 B per pair of the largest block evaluated."""
        monkeypatch.setattr(nonbonded._scratch, "by_dtype", {})
        rng = np.random.default_rng(5)
        box = np.full(3, 3.1)
        pos = rng.uniform(0.0, 3.1, size=(3000, 3))
        tid = rng.integers(0, 3, 3000).astype(np.int32)
        i, j = periodic_cell_list(box, 0.86).pairs_within(pos, 0.86)
        small = PairBlock(i[:20000], j[:20000], tid, ff.charges_for(tid), ff, n_atoms=3000)
        big = PairBlock(i, j, tid, ff.charges_for(tid), ff, n_atoms=3000)
        assert big.n_pairs > 350_000

        def evaluate(block):
            # Random positions overlap nowhere exactly but come close;
            # only the memory is under test, so forces are not checked.
            block_forces(pos, block, ff, box=box)
            held = nonbonded._scratch.by_dtype["float64"]
            return nonbonded.scratch_nbytes() - held["fvec"].nbytes

        chunk_bytes = evaluate(small)
        assert chunk_bytes == 130 * nonbonded.CHUNK_PAIRS
        assert nonbonded.scratch_nbytes() == chunk_bytes + 24 * small.n_pairs
        assert evaluate(big) == chunk_bytes
        assert nonbonded.scratch_nbytes() == chunk_bytes + 24 * big.n_pairs
        assert METRICS.gauge("md.kernel.scratch_bytes").value == nonbonded.scratch_nbytes()
        assert evaluate(small) == chunk_bytes  # grow-only: nothing moves back
        assert nonbonded.scratch_nbytes() == chunk_bytes + 24 * big.n_pairs
