"""Cross-parity suite for the non-bonded kernel registry.

Both registered kernels ("segment", "cluster") are checked against
:func:`pair_forces` on the same pair list, under both coulomb modes, on
flat and per-pulse partitioned blocks, to the documented tolerance gates
(also recorded in DESIGN.md):

* float64 kernels vs ``pair_forces``: max force component within
  ``F64_FORCE_RTOL`` of the force scale and energies within
  ``F64_ENERGY_RTOL`` relative — reduction-order rounding only.
* float32 fast path vs the float64 reference: forces within
  ``F32_FORCE_RTOL``, energies within ``F32_ENERGY_RTOL`` (measured
  ~3e-7 on grappa systems; the gates leave slack for cancellation).

The completeness test is the load-bearing one: the cluster tile test must
never drop a pair inside the list radius, checked against a brute-force
minimum-image O(N^2) sweep including boxes small enough that the
per-tile image differs from the per-pair image.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

import repro.cli as cli
import repro.md.kernels as kernels
from repro.chaos import chaos_spec, run_campaign
from repro.dd import DDGrid, DDSimulator
from repro.md import make_grappa_system, nonbonded
from repro.md.cells import (
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_pairs,
)
from repro.md.kernels import KERNEL_DTYPES, kernel_registry, make_kernel
from repro.md.nonbonded import NonbondedKernel, pair_forces
from repro.md.reference import ReferenceSimulator
from repro.spec import SimulationSpec

#: The registered kernels.
KERNELS = ("segment", "cluster")

#: Documented tolerance gates (see DESIGN.md "Kernel registry").
F64_FORCE_RTOL = 1e-13
F64_ENERGY_RTOL = 1e-12
F32_FORCE_RTOL = 5e-5
F32_ENERGY_RTOL = 5e-6

COULOMB_MODES = (("rf", 0.0), ("ewald", 3.12))


def _force_err(f, ref):
    """Max abs force deviation relative to the reference force scale."""
    return float(np.abs(f - ref).max() / np.abs(ref).max())


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _tile_pairs(pos, box, r_list):
    """Atom pairs of the cluster search over a periodic box, as the tile
    stage emits them: layouts -> candidates -> exact tile test."""
    periodic = np.ones(3, dtype=bool)
    lay = build_clusters(pos, np.zeros(3), box, 4)
    ci, cj = cluster_pair_candidates(lay, lay, r_list, box, periodic, True)
    return cluster_tile_pairs(pos, lay, lay, ci, cj, r_list, box, periodic, True)


def _cluster_search(pos, box, r_list):
    """Canonical flat pairs of the cluster search over a periodic box."""
    pi, pj = _tile_pairs(pos, box, r_list)
    lo, hi = np.minimum(pi, pj), np.maximum(pi, pj)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


@pytest.fixture(scope="module")
def cluster_setup(ff):
    """A wrapped grappa system with the pairs the cluster search finds."""
    sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    sys_.wrap()
    return sys_, _cluster_search(sys_.positions, sys_.box, ff.cutoff + 0.12)


class TestRegistry:
    def test_all_kernels_registered(self):
        assert sorted(kernel_registry) == ["cluster", "segment"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="registered kernels"):
            make_kernel("simd9000")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            make_kernel("segment", dtype="float16")
        assert KERNEL_DTYPES == ("float64", "float32")

    def test_impl_resolved_lazily_and_cached(self, ff):
        kern = NonbondedKernel(ff, name="cluster")
        assert "_impl" not in kern.__dict__
        assert kern.impl is kern.impl
        assert kern.impl.name == "cluster"

    def test_pickle_round_trip_keeps_configuration(self, ff):
        # How a kernel reaches a process worker, resolved impl or not.
        kern = NonbondedKernel(ff, name="cluster", dtype="float32")
        for resolved in (False, True):
            if resolved:
                kern.impl
            back = pickle.loads(pickle.dumps(kern))
            assert (back.name, back.dtype) == ("cluster", "float32")
            assert (back.impl.name, back.impl.dtype) == ("cluster", "float32")
            # No dtype object travels: an unpickled copy of one is not
            # NumPy's singleton and slows every array made with it.
            assert not any(
                isinstance(v, np.dtype) for v in vars(back.impl).values()
            )

    def test_spec_validates_kernel_fields(self):
        with pytest.raises(ValueError, match="registered kernels"):
            SimulationSpec(kernel="simd9000")
        with pytest.raises(ValueError, match="dtype"):
            SimulationSpec(kernel_dtype="float16")
        spec = SimulationSpec(kernel="cluster", kernel_dtype="float32")
        assert (spec.kernel, spec.kernel_dtype) == ("cluster", "float32")

    def test_compiled_kernel_name_is_an_unknown_choice(self, capsys):
        with pytest.raises(ValueError) as err:
            SimulationSpec(kernel="cluster-numba")
        assert str(err.value) == (
            "unknown spec kernel 'cluster-numba'; "
            "registered kernels: segment, cluster"
        )
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "--kernel", "cluster-numba"])
        assert exit_.value.code == 2
        message = capsys.readouterr().err
        assert "--kernel: invalid choice: 'cluster-numba'" in message
        assert "(choose from 'segment', 'cluster')" in message

    def test_engine_fails_fast_on_unknown_kernel(self, tiny_system, ff):
        with pytest.raises(KeyError, match="registered kernels"):
            DDSimulator(tiny_system, ff, n_ranks=2, kernel="simd9000")


class TestMaskCompleteness:
    """The tile test must never drop an in-range pair (property test)."""

    # box 2.1 nm is the regime that broke the per-tile image shift: with
    # r_list + two cluster radii > box/2, the image nearest two cluster
    # centers is not the image nearest every atom pair in the tile.
    @pytest.mark.parametrize("seed,box_len,n", [
        (0, 2.1, 220),
        (1, 2.6, 320),
        (2, 4.0, 600),
    ])
    def test_never_drops_in_range_pair(self, seed, box_len, n):
        rng = np.random.default_rng(seed)
        box = np.full(3, box_len)
        pos = rng.uniform(0.0, box_len, size=(n, 3))
        r_list = 0.9
        pi, pj = _tile_pairs(pos, box, r_list)
        got = set(zip(np.minimum(pi, pj).tolist(), np.maximum(pi, pj).tolist()))
        assert len(got) == pi.size, "pair listed more than once"

        dx = pos[:, None, :] - pos[None, :, :]
        dx -= np.rint(dx / box) * box
        r2 = np.einsum("ijk,ijk->ij", dx, dx)
        ii, jj = np.nonzero(np.triu(r2 <= r_list * r_list, k=1))
        want = set(zip(ii.tolist(), jj.tolist()))
        missing = want - got
        assert not missing, f"tile test dropped {len(missing)} in-range pairs"

    def test_sentinel_slots_stay_masked(self):
        rng = np.random.default_rng(3)
        box = np.full(3, 2.5)
        pos = rng.uniform(0.0, 2.5, size=(107, 3))  # not a multiple of m
        pi, pj = _tile_pairs(pos, box, 0.9)
        assert pi.size
        assert np.all(pi < 107)
        assert np.all(pj < 107)


class TestFlatParity:
    """block_forces, reached through each registered name, vs pair_forces
    on the same pair list: one check per coulomb mode and precision."""

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("coulomb,beta", COULOMB_MODES)
    def test_float64(self, cluster_setup, ff, name, coulomb, beta):
        sys_, pairs = cluster_setup
        kern = NonbondedKernel(ff, coulomb=coulomb, ewald_beta=beta, name=name)
        block = kern.make_block(
            *pairs, sys_.type_ids, sys_.charges, n_atoms=sys_.n_atoms
        )
        f, e_lj, e_c = kern.compute_block(sys_.positions, block, box=sys_.box)
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges,
            ff, box=sys_.box, coulomb=coulomb, ewald_beta=beta,
        )
        assert _force_err(f, rf) < F64_FORCE_RTOL
        assert _rel(e_lj, r_lj) < F64_ENERGY_RTOL
        assert _rel(e_c, r_c) < F64_ENERGY_RTOL

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("coulomb,beta", COULOMB_MODES)
    def test_float32_gates(self, cluster_setup, ff, name, coulomb, beta):
        sys_, pairs = cluster_setup
        kern = NonbondedKernel(
            ff, coulomb=coulomb, ewald_beta=beta, name=name, dtype="float32"
        )
        block = kern.make_block(
            *pairs, sys_.type_ids, sys_.charges, n_atoms=sys_.n_atoms
        )
        f, e_lj, e_c = kern.compute_block(sys_.positions, block, box=sys_.box)
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges,
            ff, box=sys_.box, coulomb=coulomb, ewald_beta=beta,
        )
        assert _force_err(f, rf) < F32_FORCE_RTOL
        assert _rel(e_lj, r_lj) < F32_ENERGY_RTOL
        assert _rel(e_c, r_c) < F32_ENERGY_RTOL

    @pytest.mark.parametrize("chunk", (7, 64, 1000))
    @pytest.mark.parametrize("coulomb,beta", COULOMB_MODES)
    def test_gates_hold_at_any_chunk_size(
        self, cluster_setup, ff, monkeypatch, coulomb, beta, chunk
    ):
        """Both precisions against the oracle with the list cut into
        hundreds of chunks; forces equal the single-chunk ones bit for bit."""
        sys_, pairs = cluster_setup
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges,
            ff, box=sys_.box, coulomb=coulomb, ewald_beta=beta,
        )
        for dtype, f_tol, e_tol in (
            ("float64", F64_FORCE_RTOL, F64_ENERGY_RTOL),
            ("float32", F32_FORCE_RTOL, F32_ENERGY_RTOL),
        ):
            kern = NonbondedKernel(
                ff, coulomb=coulomb, ewald_beta=beta, name="cluster", dtype=dtype
            )
            block = kern.make_block(
                *pairs, sys_.type_ids, sys_.charges, n_atoms=sys_.n_atoms
            )
            whole, _, _ = kern.compute_block(sys_.positions, block, box=sys_.box)
            with monkeypatch.context() as patch:
                patch.setattr(nonbonded, "CHUNK_PAIRS", chunk)
                f, e_lj, e_c = kern.compute_block(
                    sys_.positions, block, box=sys_.box
                )
            assert np.array_equal(f, whole)
            assert _force_err(f, rf) < f_tol
            assert _rel(e_lj, r_lj) < e_tol
            assert _rel(e_c, r_c) < e_tol


def _run_dd(system, ff, *, steps=6, nstlist=3, **kwargs):
    sim = DDSimulator(
        system.copy(), ff, nstlist=nstlist, buffer=0.12, **kwargs
    )
    with sim:
        energies = sim.run(steps)
        return sim.system.positions.copy(), energies


class TestEngineParity:
    """Kernel choice threads through the DD engine without changing physics."""

    @pytest.mark.parametrize("coulomb", ("rf", "pme"))
    def test_segment_vs_cluster_bit_identical(self, tiny_system, ff, coulomb):
        ref = _run_dd(tiny_system, ff, n_ranks=4, kernel="segment", coulomb=coulomb)
        out = _run_dd(tiny_system, ff, n_ranks=4, kernel="cluster", coulomb=coulomb)
        assert np.array_equal(ref[0], out[0])
        assert ref[1] == out[1]

    @pytest.mark.parametrize("executor", ("process",))
    def test_cluster_cross_executor_bit_identical(self, tiny_system, ff, executor):
        ref = _run_dd(tiny_system, ff, n_ranks=4, kernel="cluster", executor="serial")
        out = _run_dd(tiny_system, ff, n_ranks=4, kernel="cluster", executor=executor)
        assert np.array_equal(ref[0], out[0])
        assert ref[1] == out[1]

    def test_chunk_size_does_not_move_the_trajectory(
        self, tiny_system, ff, monkeypatch
    ):
        """1400 atoms, 4 ranks, two rebuilds: every block splits at 64."""
        ref = _run_dd(tiny_system, ff, n_ranks=4, kernel="cluster")
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 64)
        out = _run_dd(tiny_system, ff, n_ranks=4, kernel="cluster")
        assert np.array_equal(ref[0], out[0])
        for a, b in zip(ref[1], out[1]):
            assert _rel(b.lj, a.lj) < 1e-12 and _rel(b.coulomb, a.coulomb) < 1e-12

    def test_reference_simulator_parity(self, tiny_system, ff):
        a = tiny_system.copy()
        b = tiny_system.copy()
        ReferenceSimulator(a, ff, nstlist=3, buffer=0.12, kernel="segment").run(5)
        ReferenceSimulator(b, ff, nstlist=3, buffer=0.12, kernel="cluster").run(5)
        assert np.array_equal(a.positions, b.positions)

    def test_float32_stays_close_to_float64(self, tiny_system, ff):
        ref = _run_dd(tiny_system, ff, n_ranks=2, kernel="cluster")
        out = _run_dd(
            tiny_system, ff, n_ranks=2, kernel="cluster", kernel_dtype="float32"
        )
        # Trajectory divergence compounds per step; gate the energies of
        # the first step (pre-divergence) at the documented f32 bound.
        e0_ref, e0_out = ref[1][0], out[1][0]
        assert _rel(e0_out.lj, e0_ref.lj) < F32_ENERGY_RTOL
        assert _rel(e0_out.coulomb, e0_ref.coulomb) < F32_ENERGY_RTOL


def _rank_pairs(system, ff, grid):
    """Every rank's ``SplitPairs`` after one search on ``grid``."""
    with DDSimulator(
        system.copy(), ff, grid=DDGrid(grid), nstlist=10, buffer=0.12,
        kernel="cluster",
    ) as sim:
        sim.neighbor_search()
        return [ws.pairs for ws in sim.executor._ws]


def _pair_arrays(pairs):
    """The outer lists the search hands the pruner, and their partition."""
    return (pairs.local.i, pairs.local.j, pairs.nonlocal_.i,
            pairs.nonlocal_.j, pairs.pulse_offsets)


class TestPairListIdentity:
    """The search may change; the lists it hands on may not."""

    # sha256 over every rank's outer local.i/j, nonlocal_.i/j and
    # pulse_offsets (as int64), computed at commit dbe84e3 — the all-pairs
    # centre-distance search — and pasted in.  (1, 2, 2) and (2, 2, 1)
    # leave x resp. z periodic inside a rank.
    PINNED = {
        (2, 2, 2): "41d36d72f3544751c569a276ea2e0bedf433f85fb3eabc5fc2cb6916f92cdea2",
        (1, 2, 2): "a63e44eb5e787972386c041a573ca599bebdef86a46da23b3d0cab520a26eeb2",
        (2, 2, 1): "78fec1fc9c0b27f8095d98ea9e62371bfcb731613ac678296706b8e85e9bc16a",
    }

    @pytest.fixture(scope="class")
    def system(self, ff):
        return make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)

    @pytest.mark.parametrize("grid", sorted(PINNED))
    def test_pair_arrays_match_the_pinned_digests(self, system, ff, grid):
        digest = hashlib.sha256()
        for pairs in _rank_pairs(system, ff, grid):
            for arr in _pair_arrays(pairs):
                digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.PINNED[grid]

    def test_cluster_zone_cut_only_removes_dead_tiles(self, system, ff, monkeypatch):
        """With the cluster-level cut off the per-atom test alone decides:
        same lists from more tiles."""
        cut = _rank_pairs(system, ff, (2, 2, 2))
        monkeypatch.setattr(
            kernels, "_cluster_zone_bits",
            lambda layout, nzbits: np.zeros(layout.n_clusters, dtype=np.uint8),
        )
        uncut = _rank_pairs(system, ff, (2, 2, 2))
        for with_cut, without in zip(cut, uncut):
            for got, want in zip(_pair_arrays(with_cut), _pair_arrays(without)):
                assert np.array_equal(got, want)
            assert with_cut.stats["n_tiles"] < without.stats["n_tiles"]
            assert with_cut.stats["n_candidates"] == without.stats["n_candidates"]


class TestPulsePartition:
    """Per-pulse non-local partition must survive on cluster-pair lists."""

    def _workspaces(self, system, ff, kernel):
        sim = DDSimulator(
            system.copy(), ff, grid=DDGrid((1, 1, 4)), max_pulses=2,
            nstlist=5, buffer=0.12, kernel=kernel,
        )
        with sim:
            sim.step()
            return sim, sim.executor._ws

    def test_partition_identical_to_segment(self, tiny_system, ff):
        _, seg_ws = self._workspaces(tiny_system, ff, "segment")
        _, clu_ws = self._workspaces(tiny_system, ff, "cluster")
        for sw, cw in zip(seg_ws, clu_ws):
            assert np.array_equal(sw.pairs.pulse_offsets, cw.pairs.pulse_offsets)
            assert np.array_equal(sw.pairs.nonlocal_.i, cw.pairs.nonlocal_.i)
            assert np.array_equal(sw.pairs.nonlocal_.j, cw.pairs.nonlocal_.j)
            assert sw.pairs.stats["pulse_pairs"] == cw.pairs.stats["pulse_pairs"]
        assert any(
            len([p for p in w.pairs.stats["pulse_pairs"] if p]) > 1
            for w in clu_ws
        ), "grid must actually produce multi-pulse work"

    @pytest.mark.parametrize("name", KERNELS)
    def test_partitioned_block_vs_pair_forces(self, tiny_system, ff, name):
        _, wss = self._workspaces(tiny_system, ff, name)
        checked = 0
        for ws in wss:
            nl = ws.pairs.nonlocal_.block
            if nl.n_pairs == 0:
                continue
            kern = ws.cfg.kernel
            pos = ws.pos.astype(np.float64)
            f, e_lj, e_c = kern.impl.compute_block(
                pos, nl, ff, box=ws.cfg.box, periodic=ws.cfg.periodic,
                coulomb=kern.coulomb, ewald_beta=kern.ewald_beta,
            )
            rf, r_lj, r_c = pair_forces(
                pos, nl.i, nl.j, ws.types, ws.charges, ff,
                box=ws.cfg.box, periodic=ws.cfg.periodic,
                coulomb=kern.coulomb, ewald_beta=kern.ewald_beta,
            )
            assert _force_err(f, rf) < F64_FORCE_RTOL
            assert _rel(e_lj, r_lj) < F64_ENERGY_RTOL
            assert _rel(e_c, r_c) < F64_ENERGY_RTOL
            checked += 1
        assert checked, "no rank produced non-local work"


class TestChaosOnCluster:
    """Chaos invariants must hold on the cluster path, every backend."""

    @pytest.mark.parametrize("backend", ("reference", "nvshmem"))
    def test_invariants_hold(self, backend):
        cfg = chaos_spec(backend=backend, kernel="cluster")
        res = run_campaign(cfg, runs=3, seed0=50)
        assert res.runs == 3
        assert not res.failed, [f.violations for f in res.failures]
