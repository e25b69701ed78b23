"""The one pair search and the one evaluator, end to end.

:func:`~repro.md.nonbonded.block_forces` is checked against
:func:`pair_forces` on the same pair list, on flat and per-pulse
partitioned blocks, to the documented tolerance gates
(also recorded in DESIGN.md):

* float64 vs ``pair_forces``: max force component within
  ``F64_FORCE_RTOL`` of the force scale and energies within
  ``F64_ENERGY_RTOL`` relative — reduction-order rounding only.
* float32 fast path vs the float64 reference: forces within
  ``F32_FORCE_RTOL``, energies within ``F32_ENERGY_RTOL`` (measured
  ~3e-7 on grappa systems; the gates leave slack for cancellation).

Two completeness tests carry the search: the cluster tile test must
never drop a pair inside the list radius, checked against a brute-force
minimum-image O(N^2) sweep including boxes small enough that the
per-tile image differs from the per-pair image; and after a DD search
every pair the serial reference's cell list finds within ``r_comm`` must
sit on exactly one rank (:class:`TestPairListIdentity`).
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.chaos import chaos_spec, run_campaign
from repro.dd import DDGrid, DDSimulator
from repro.md import kernels, make_grappa_system, nonbonded
from repro.md.cells import periodic_cell_list
from repro.md.integrator import LeapFrogIntegrator
from repro.md.kernels import KERNEL_DTYPES
from repro.md.nonbonded import PairBlock, block_forces, pair_forces
from repro.md.reference import ReferenceSimulator
from repro.par import phases
from repro.par.phases import RankConfig
from repro.spec import SimulationSpec
from tests import oracles
from tests.oracles import build_clusters, cluster_pair_candidates, cluster_tile_pairs

#: The values ``DDSimulator.kernel`` accepts: the one search's name, kept
#: for the frozen benchmark's callers; goes with the keyword (ROADMAP
#: item 6).
KERNELS = ("cluster",)

#: Documented tolerance gates (see DESIGN.md "Kernel registry").
F64_FORCE_RTOL = 1e-13
F64_ENERGY_RTOL = 1e-12
F32_FORCE_RTOL = 5e-5
F32_ENERGY_RTOL = 5e-6


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
    """What the kernel registry used to validate, checked where it now
    lives: the simulators, the rank configuration and the spec."""

    def test_unknown_dtype_rejected(self, tiny_system, ff):
        assert KERNEL_DTYPES == ("float64", "float32")
        with pytest.raises(ValueError, match="dtype"):
            kernels.load("float16")
        with pytest.raises(ValueError, match="dtype"):
            DDSimulator(tiny_system, ff, n_ranks=2, kernel_dtype="float16")
        with pytest.raises(ValueError, match="dtype"):
            ReferenceSimulator(tiny_system.copy(), ff, kernel_dtype="float16")

    def test_pickle_round_trip_keeps_configuration(self, ff):
        # How the kernel precision reaches a process worker.
        cfg = RankConfig(
            ff=ff, dtype="float32", integrator=LeapFrogIntegrator(dt=0.002),
            box=np.ones(3), periodic=np.ones(3, dtype=bool), r_comm=0.77,
        )
        back = pickle.loads(pickle.dumps(cfg))
        assert back.dtype == "float32" and back.ff == ff
        # No dtype object travels: an unpickled copy of one is not
        # NumPy's singleton and slows every array made with it.
        assert not any(isinstance(v, np.dtype) for v in vars(back).values())

    def test_spec_validates_kernel_fields(self):
        with pytest.raises(ValueError, match="dtype"):
            SimulationSpec(kernel_dtype="float16")
        assert SimulationSpec(kernel_dtype="float32").kernel_dtype == "float32"
        # The search is not a knob: spec v4 has no ``kernel`` field.
        with pytest.raises(TypeError, match="kernel"):
            SimulationSpec(kernel="cluster")

    def test_one_system_model(self, tiny_system, ff):
        """No molecular path: neither simulator takes a topology, and
        ``repro.md`` builds no molecules."""
        with pytest.raises(TypeError, match="topology"):
            DDSimulator(tiny_system, ff, n_ranks=2, topology=None)
        with pytest.raises(TypeError, match="topology"):
            ReferenceSimulator(tiny_system.copy(), ff, topology=None)
        import repro.md

        for name in ("Topology", "make_molecular_grappa_system"):
            assert not hasattr(repro.md, name)

    def test_unknown_kernel_rejected(self, tiny_system, ff):
        """``kernel`` names the one search or raises; the reference
        accepts and ignores it (both kept for the frozen benchmark)."""
        for name in ("segment", "simd9000"):
            with pytest.raises(ValueError) as err:
                DDSimulator(tiny_system, ff, n_ranks=2, kernel=name)
            assert str(err.value) == (
                f"unknown kernel '{name}': there is one pair search, 'cluster'"
            )
        DDSimulator(tiny_system, ff, n_ranks=2, kernel="cluster").close()
        ReferenceSimulator(tiny_system.copy(), ff, kernel="segment")

    def test_engine_fails_fast_on_unknown_kernel(self, tiny_system, ff):
        """An unknown kernel or dtype fails at construction, in the
        parent, not mid-run inside a worker."""
        for bad in (dict(kernel="segment"), dict(kernel_dtype="float16")):
            with pytest.raises(ValueError):
                DDSimulator(tiny_system, ff, n_ranks=2, executor="process", **bad)


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


def _block(sys_, pairs, ff):
    return PairBlock(*pairs, sys_.type_ids, sys_.charges, ff, n_atoms=sys_.n_atoms)


class TestFlatParity:
    """block_forces vs pair_forces on the same pair list: one check per
    precision."""

    def test_float64(self, cluster_setup, ff):
        sys_, pairs = cluster_setup
        block = _block(sys_, pairs, ff)
        f, e_lj, e_c = block_forces(sys_.positions, block, ff, box=sys_.box)
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges, ff, box=sys_.box
        )
        assert _force_err(f, rf) < F64_FORCE_RTOL
        assert _rel(e_lj, r_lj) < F64_ENERGY_RTOL
        assert _rel(e_c, r_c) < F64_ENERGY_RTOL

    def test_float32_gates(self, cluster_setup, ff):
        sys_, pairs = cluster_setup
        block = _block(sys_, pairs, ff)
        f, e_lj, e_c = block_forces(
            sys_.positions, block, ff, box=sys_.box, dtype="float32"
        )
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges, ff, box=sys_.box
        )
        assert _force_err(f, rf) < F32_FORCE_RTOL
        assert _rel(e_lj, r_lj) < F32_ENERGY_RTOL
        assert _rel(e_c, r_c) < F32_ENERGY_RTOL

    @pytest.mark.parametrize("chunk", (7, 64, 1000))
    def test_gates_hold_at_any_chunk_size(self, cluster_setup, ff, monkeypatch, chunk):
        """Both precisions against the oracle with the list cut into
        hundreds of chunks; forces equal the single-chunk ones bit for bit."""
        sys_, pairs = cluster_setup
        rf, r_lj, r_c = pair_forces(
            sys_.positions, *pairs, sys_.type_ids, sys_.charges, ff, box=sys_.box
        )
        for dtype, f_tol, e_tol in (
            ("float64", F64_FORCE_RTOL, F64_ENERGY_RTOL),
            ("float32", F32_FORCE_RTOL, F32_ENERGY_RTOL),
        ):
            block = _block(sys_, pairs, ff)
            whole, _, _ = block_forces(
                sys_.positions, block, ff, box=sys_.box, dtype=dtype
            )
            with monkeypatch.context() as patch:
                patch.setattr(nonbonded, "CHUNK_PAIRS", chunk)
                f, e_lj, e_c = block_forces(
                    sys_.positions, block, ff, box=sys_.box, dtype=dtype
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
    """Kernel settings thread through the DD engine without changing physics."""

    @pytest.mark.parametrize("executor", ("process",))
    def test_cluster_cross_executor_bit_identical(self, tiny_system, ff, executor):
        ref = _run_dd(tiny_system, ff, n_ranks=4, executor="serial")
        out = _run_dd(tiny_system, ff, n_ranks=4, executor=executor)
        assert np.array_equal(ref[0], out[0])
        assert ref[1] == out[1]

    def test_chunk_size_does_not_move_the_trajectory(
        self, tiny_system, ff, monkeypatch
    ):
        """1400 atoms, 4 ranks, two rebuilds: every block splits at 64."""
        ref = _run_dd(tiny_system, ff, n_ranks=4)
        monkeypatch.setattr(nonbonded, "CHUNK_PAIRS", 64)
        out = _run_dd(tiny_system, ff, n_ranks=4)
        assert np.array_equal(ref[0], out[0])
        for a, b in zip(ref[1], out[1]):
            assert _rel(b.lj, a.lj) < 1e-12 and _rel(b.coulomb, a.coulomb) < 1e-12

    def test_reference_simulator_parity(self, tiny_system, ff):
        """``ReferenceSimulator.kernel`` is accepted and has no effect."""
        a = tiny_system.copy()
        b = tiny_system.copy()
        ReferenceSimulator(a, ff, nstlist=3, buffer=0.12, kernel="segment").run(5)
        ReferenceSimulator(b, ff, nstlist=3, buffer=0.12, kernel="cluster").run(5)
        assert np.array_equal(a.positions, b.positions)

    def test_float32_stays_close_to_float64(self, tiny_system, ff):
        ref = _run_dd(tiny_system, ff, n_ranks=2)
        out = _run_dd(tiny_system, ff, n_ranks=2, kernel_dtype="float32")
        # Trajectory divergence compounds per step; gate the energies of
        # the first step (pre-divergence) at the documented f32 bound.
        e0_ref, e0_out = ref[1][0], out[1][0]
        assert _rel(e0_out.lj, e0_ref.lj) < F32_ENERGY_RTOL
        assert _rel(e0_out.coulomb, e0_ref.coulomb) < F32_ENERGY_RTOL


def _rank_pairs(system, ff, grid):
    """Every rank's ``SplitPairs`` after one search on ``grid``."""
    with DDSimulator(
        system.copy(), ff, grid=DDGrid(grid), nstlist=10, buffer=0.12,
    ) as sim:
        sim.neighbor_search()
        return [ws.pairs for ws in sim.executor._ws]


def global_pairs(sim) -> np.ndarray:
    """Every rank's outer lists after a search, mapped to global atom
    ids: one ``(n, 2)`` array of ``(min, max)`` rows, repeats kept."""
    rows = [np.zeros((0, 2), np.int64)]
    for ws, plan in zip(sim.executor._ws, sim.cluster.plan.ranks):
        for lst in (ws.pairs.local, ws.pairs.nonlocal_):
            gi, gj = plan.global_ids[lst.i], plan.global_ids[lst.j]
            rows.append(np.stack([np.minimum(gi, gj), np.maximum(gi, gj)], axis=1))
    return np.concatenate(rows).astype(np.int64)


def assert_each_pair_once(got: np.ndarray, want_i, want_j, n: int) -> None:
    """``got`` rows are exactly the pairs ``(want_i, want_j)``, each once."""
    keys, counts = np.unique(got[:, 0] * n + got[:, 1], return_counts=True)
    want = np.unique(np.minimum(want_i, want_j) * n + np.maximum(want_i, want_j))
    missing = np.setdiff1d(want, keys).size
    extra = np.setdiff1d(keys, want).size
    repeated = int(np.count_nonzero(counts > 1))
    assert (missing, extra, repeated) == (0, 0, 0), (
        f"{missing} pairs on no rank, {extra} not within r_comm, "
        f"{repeated} on more than one rank"
    )


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

    # The cubic cases keep the ids pytest generated before the stretched
    # boxes joined them.
    @pytest.mark.parametrize("grid,max_pulses,scale", [
        *((g, 1, (1.0, 1.0, 1.0)) for g in sorted(PINNED)),
        ((1, 1, 5), 2, (1.0, 1.0, 1.0)),
        ((2, 2, 1), 1, (1.5, 1.0, 1.0)),
        ((2, 2, 2), 1, (1.0, 1.3, 0.8)),
    ], ids=["grid0-1", "grid1-1", "grid2-1", "grid3-2",
            "box1.5x1x1-grid221", "box1x1.3x0.8-grid222"])
    def test_each_pair_on_exactly_one_rank(
        self, system, ff, grid, max_pulses, scale
    ):
        """The serial reference's search is the independent one: after a
        DD search the ranks' outer lists, in global ids, are its cell
        list's pairs within ``r_comm`` over the wrapped positions, each
        on exactly one rank — a pair dropped between the cutoff and
        ``r_comm``, which no force or trajectory comparison sees, fails
        here.  ``scale`` stretches box and positions alike, so the domains
        and the column grid stop being cubes."""
        stretched = system.copy()
        stretched.box = stretched.box * scale
        stretched.positions = stretched.positions * scale
        with DDSimulator(
            stretched, ff, grid=DDGrid(grid), max_pulses=max_pulses,
            nstlist=10, buffer=0.12,
        ) as sim:
            sim.neighbor_search()
            dims = sim.cluster.plan.pulse_dims
            assert max(map(dims.count, dims)) == max_pulses
            got = global_pairs(sim)
            pos, box, r_comm = sim.system.positions, sim.system.box, sim.dd.r_comm
            want = periodic_cell_list(box, r_comm).pairs_within(pos, r_comm)
        assert_each_pair_once(got, *want, n=pos.shape[0])

    def test_cluster_zone_cut_only_removes_dead_tiles(self, system, ff, monkeypatch):
        """With the cluster-level cut off the per-atom test alone decides:
        same lists from more tiles.  The compiled search always cuts, so
        the uncut lists come from its NumPy oracle with the cut patched
        out."""
        cut = _rank_pairs(system, ff, (2, 2, 2))
        monkeypatch.setattr(
            oracles, "_cluster_zone_bits",
            lambda layout, nzbits: np.zeros(layout.n_clusters, dtype=np.uint8),
        )
        monkeypatch.setattr(phases, "build_split", oracles.build_split)
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

    @pytest.mark.parametrize("name", KERNELS)
    def test_partitioned_block_vs_pair_forces(self, tiny_system, ff, name):
        _, wss = self._workspaces(tiny_system, ff, name)
        assert any(
            len([p for p in w.pairs.stats["pulse_pairs"] if p]) > 1
            for w in wss
        ), "grid must actually produce multi-pulse work"
        checked = 0
        for ws in wss:
            nl = ws.pairs.nonlocal_.block
            if nl.n_pairs == 0:
                continue
            pos = ws.pos.astype(np.float64)
            f, e_lj, e_c = block_forces(
                pos, nl, ff, box=ws.cfg.box, periodic=ws.cfg.periodic,
            )
            rf, r_lj, r_c = pair_forces(
                pos, nl.i, nl.j, ws.types, ws.charges, ff,
                box=ws.cfg.box, periodic=ws.cfg.periodic,
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
        cfg = chaos_spec(backend=backend)
        res = run_campaign(cfg, runs=3, seed0=50)
        assert res.runs == 3
        assert not res.failed, [f.violations for f in res.failures]
