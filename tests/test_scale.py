"""Paper-scale decomposition: streamed pair-list builds, memory accounting,
the lazy per-rank arena, and the 192k-atom memory ceilings.

Two contracts are under test.  The compiled search's output buffer is
*purely* a memory matter: started a few keys long, it fills, grows and
resumes at an ``a``-cluster boundary many times per search, and the
trajectories stay bit-identical (across home/halo boundaries, through
drift-triggered rebuilds, under both executors).  The NumPy oracles'
three chunk lengths (``repro.md.cells.CHUNK_*``) bound their working set
and nothing else.  The accounting gauges make the bounds auditable, and
the first ``slow``-marked test holds them at paper scale.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from repro.dd.engine import DDSimulator
from repro.md import cells, make_grappa_system
from repro.md.cells import (
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_pairs,
)
from repro.md.grappa import resolve_atoms
from repro.obs.metrics import METRICS
from repro.spec import SimulationSpec
from tests.test_kernels import KERNELS


def _digest(positions: np.ndarray) -> bytes:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).digest()


#: Chunk lengths small enough that every stage of a test-sized search
#: runs in many chunks, a tile chunk ending mid-way through a cluster's
#: candidates.
TINY_CHUNKS = {"CHUNK_A_CLUSTERS": 1, "CHUNK_CANDIDATES": 7, "CHUNK_TILES": 64}


@pytest.fixture
def tiny_buffer(monkeypatch):
    """Run the test body with the compiled search's output buffer
    starting three keys long (forked process workers inherit it)."""

    def apply():
        monkeypatch.setattr(cells, "_initial_capacity", lambda *_: 3)

    return apply


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Run the test body with :data:`TINY_CHUNKS` (forked process
    workers inherit them)."""

    def apply():
        for name, value in TINY_CHUNKS.items():
            monkeypatch.setattr(cells, name, value)

    return apply


def _cluster_search(pos, box, r_list):
    """``(ci, cj, pairs)`` of the cluster search and its peak working set.

    Candidates in the order emitted; the tile stage's pairs are a set
    (their order follows the chunking), so they are compared as sorted
    ``i * n + j`` keys.
    """
    periodic = np.ones(3, dtype=bool)
    budget = BuildBudget()
    lay = build_clusters(pos, np.zeros(3), box, 4)
    ci, cj = cluster_pair_candidates(
        lay, lay, r_list, box, periodic, True, budget=budget
    )
    pi, pj = cluster_tile_pairs(
        pos, lay, lay, ci, cj, r_list, box, periodic, True, budget=budget
    )
    return (ci, cj, np.sort(pi * len(pos) + pj)), budget.peak_bytes


def _assert_chunks_only_bound_memory(system, r_list, tiny_chunks):
    """Tuned and tiny chunks: equal output, smaller peak."""
    tuned, tuned_peak = _cluster_search(system.positions, system.box, r_list)
    tiny_chunks()
    tiny, tiny_peak = _cluster_search(system.positions, system.box, r_list)
    for a, b in zip(tuned, tiny):
        assert np.array_equal(a, b)
    assert tiny_peak < tuned_peak


def _run(ff, *, kernel: str = "cluster", executor: str = "serial",
         n_atoms: int = 1400, seed: int = 11, ranks: int = 4, steps: int = 6, nstlist: int = 3,
         buffer: float = 0.12) -> bytes:
    system = make_grappa_system(n_atoms, seed=seed, ff=ff, dtype=np.float64)
    with DDSimulator(
        system, ff, n_ranks=ranks, backend="reference", executor=executor,
        nstlist=nstlist, buffer=buffer, kernel=kernel,
    ) as sim:
        sim.run(steps)
        return _digest(sim.system.positions)


# -- chunked-build bit-identity ------------------------------------------------


class TestChunkedBuildParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_capped_builds_bit_identical_across_caps(self, ff, kernel, tiny_buffer):
        """A search buffer that keeps filling, DD ranks (home/halo
        boundaries), periodic rebuilds."""
        ref = _run(ff, kernel=kernel)
        tiny_buffer()
        assert _run(ff, kernel=kernel) == ref, (
            f"a three-key search buffer changed the {kernel} trajectory"
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_capped_builds_survive_drift_rebuilds(self, ff, kernel, tiny_buffer):
        """nstlist >> steps with a thin buffer: rebuilds come from drift."""
        kw = dict(kernel=kernel, ranks=2, steps=12, nstlist=50, buffer=0.03,
                  seed=3)
        ref = _run(ff, **kw)
        tiny_buffer()
        assert _run(ff, **kw) == ref

    def test_builder_level_parity_cluster(self, small_system, ff, tiny_chunks):
        _assert_chunks_only_bound_memory(small_system, ff.cutoff + 0.12, tiny_chunks)


# -- BuildBudget + memory accounting -------------------------------------------


class TestBuildBudget:
    def test_peak_tracks_high_water(self):
        b = BuildBudget()
        b.note(100)
        b.note(50)
        assert b.peak_bytes == 100
        b.note_cells(30)
        b.note_cells(20)
        assert b.cells_bytes == 50

    def test_cell_grid_for_rank_covers_positions(self, small_system, ff):
        pos = small_system.positions
        grid = CellGrid.for_rank(pos, small_system.box,
                                 np.array([False, False, False]), ff.cutoff)
        i, j = grid.pairs_within(pos, ff.cutoff)
        assert i.size > 0  # non-periodic rank-local grid still finds pairs

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_memory_gauges_published_per_build(self, ff, kernel):
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=2, backend="reference", executor="serial",
            nstlist=2, buffer=0.12, kernel=kernel,
        ) as sim:
            sim.step()
            assert METRICS.gauge("md.pairlist.bytes").value > 0
            assert METRICS.gauge("md.cells.bytes").value > 0
            peak = METRICS.gauge("md.build.peak_bytes").value
            per_atom = METRICS.gauge("md.build.peak_bytes_per_atom").value
            assert peak > 0 and per_atom > 0
            for w in sim.workloads:
                assert w.pairlist_bytes > 0
                assert w.build_peak_bytes >= w.pairlist_bytes
                assert w.build_peak_bytes <= peak

    def test_pairlist_bytes_do_not_depend_on_the_search(self, ff):
        """What a rank reports is what its lists store, whatever the search
        held while it ran: both outer lists and both inner blocks, and the
        gauge is their total over the ranks."""
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=4, backend="reference", executor="serial",
            nstlist=2, buffer=0.12,
        ) as sim:
            sim.neighbor_search()
            stored = [
                sum(h.nbytes + h.block.nbytes
                    for h in (ws.pairs.local, ws.pairs.nonlocal_))
                for ws in sim.executor._ws
            ]
            assert [w.pairlist_bytes for w in sim.workloads] == stored
            assert METRICS.gauge("md.pairlist.bytes").value == sum(stored) > 0

    def test_tile_fill_is_published(self, ff):
        """Enumerated candidates and tested tiles cross the executor
        boundary in ``stats`` and land in gauges; every pair sits in a
        tested tile, so pairs per tile slot is one division away."""
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=4, backend="reference", executor="process",
            nstlist=2, buffer=0.12,
        ) as sim:
            sim.step()
            candidates = METRICS.gauge("md.pairsearch.candidates").value
            tiles = METRICS.gauge("md.pairsearch.tiles").value
            pairs = sum(w.n_pairs_local + w.n_pairs_nonlocal for w in sim.workloads)
        assert candidates >= tiles > 0
        assert 0.0 < pairs / (tiles * 16) <= 1.0

    def test_sizing_sample_does_not_alias_with_the_columns(self, monkeypatch):
        """Sixteen columns of exactly sixteen clusters, pair density
        rising with height: a sample of every 16th ``a`` cluster would
        count the sparse bottom cluster of each column only.  The sizing
        pass walks through the heights instead, and the buffer it sizes
        holds the whole search."""
        rng = np.random.default_rng(0)
        n = 16 * 64
        cx, cy = np.divmod(np.repeat(np.arange(16), 64), 4)
        box = np.array([2.0, 2.0, 8.0])
        pos = np.stack([
            (cx + rng.uniform(0.05, 0.95, n)) * 0.5,
            (cy + rng.uniform(0.05, 0.95, n)) * 0.5,
            box[2] * rng.uniform(0.0, 1.0, n) ** (1 / 3),
        ], axis=1)
        lay = build_clusters(pos, np.zeros(3), box, 4)
        assert np.array_equal(np.bincount(lay.col), np.full(16, 16))
        sized = []
        capacity = cells._initial_capacity
        monkeypatch.setattr(
            cells, "_initial_capacity", lambda *a: sized.append(capacity(*a)) or sized[-1]
        )
        keys = cells.cluster_pairs(pos, lay, lay, 0.5, box, np.zeros(3, bool), BuildBudget())
        # Each pair belongs to the lower of its two clusters' searches.
        cluster_of = np.empty(n + 1, np.int64)
        cluster_of[lay.atoms.ravel()] = np.repeat(np.arange(lay.n_clusters), 4)
        lo, hi = np.divmod(keys, n + 1)
        per_cluster = np.bincount(
            np.minimum(cluster_of[lo], cluster_of[hi]), minlength=lay.n_clusters
        )
        every_16th = per_cluster[::16].sum() * 16 * 17 // 16 + 16
        assert every_16th < 0.5 * keys.size
        assert len(sized) == 1 and keys.size <= sized[0] <= 1.25 * keys.size

    def test_chunk_working_set_bounded_by_cap(self, ff, tiny_chunks):
        """The chunk lengths actually bound what the chunked stages
        allocate: the budget's peak of a tiny-chunk build is well under
        the tuned build's on the same atoms."""
        system = make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)
        _assert_chunks_only_bound_memory(system, ff.cutoff + 0.12, tiny_chunks)


# -- paper-scale memory ceilings -----------------------------------------------


@pytest.mark.slow
def test_192k_16_rank_build_stays_within_the_memory_ceilings():
    """One neighbour search + 2 steps at 192k atoms / 16 ranks.

    The streamed build allocates per local atom, never per global atom, so
    the per-rank build peak stays under 3400 B/atom; and the evaluator's
    scratch is one chunk per worker plus 24 B per atom row of its largest
    block, never 154 B/pair of every list, so the process tree (self +
    reaped workers) stays under 950 MiB.  Measured on the 2-vCPU benchmark
    host: 3052 B/atom, 610 MiB with the compiled search, whose output
    buffer counts as a transient (2778 B/atom, 615 MiB with the NumPy
    stages, measured alongside); 2778 B/atom, 607 MiB with the compiled
    evaluator (629 MiB with the NumPy chain's 24 B/pair force buffer);
    earlier records: 654 MiB with 40 B/pair inner blocks (3994 B/atom and
    ≈800 MiB at 64 B/pair; 7586 B/atom and 914 MiB while candidates came
    from an all-pairs GEMM; 2126 MiB with per-block evaluator scratch).
    B/atom is accounting, the same on every host, so its ceiling sits
    1.2x above the measurement and fails a 64 B/pair list; RSS varies by
    host and keeps ≈1.5x.  ``ru_maxrss`` is a high-water mark of the
    whole pytest process, so this test runs before the 90k-atom one
    below, which alone would lift it to ≈890 MiB (a whole-repo ``-m
    slow`` session reads 758).  The search's transient is its output
    buffer, sized by a sampled counting pass, so the ceilings guard the
    lists, the layouts and that buffer; a buffer that keeps filling is
    exercised by the tier-1 parity tests above.
    """
    spec = SimulationSpec(
        system="192k", ranks=16, executor="process",
    )
    METRICS.reset()
    with DDSimulator.from_spec(spec) as sim:
        sim.run(3)  # the first step carries the neighbour search
    bytes_per_atom = METRICS.gauge("md.build.peak_bytes_per_atom").value
    # ru_maxrss is KiB on Linux; workers count once reaped, i.e. after close().
    rss_mib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    assert 0 < bytes_per_atom <= 3400, bytes_per_atom
    assert rss_mib <= 950, rss_mib


# -- linear-time candidate search ----------------------------------------------


def _candidates_per_cluster(n_atoms, ff, *, tiles=False):
    """Enumerated candidates per cluster of one periodic ``n_atoms`` box
    (grappa density is the same at every size), and its throughput."""
    system = make_grappa_system(n_atoms, seed=7, ff=ff, dtype=np.float64)
    system.wrap()
    periodic = np.ones(3, dtype=bool)
    budget = BuildBudget()
    start = time.perf_counter()
    lay = build_clusters(system.positions, np.zeros(3), system.box, 4)
    ci, cj = cluster_pair_candidates(
        lay, lay, ff.cutoff + 0.12, system.box, periodic, True, budget=budget
    )
    if tiles:
        cluster_tile_pairs(
            system.positions, lay, lay, ci, cj, ff.cutoff + 0.12, system.box,
            periodic, True, budget=budget,
        )
    atoms_per_ms = n_atoms / (time.perf_counter() - start) / 1e3
    return budget.candidates / lay.n_clusters, atoms_per_ms


def test_candidate_count_per_cluster_does_not_grow_with_the_system(ff):
    """8x the atoms at equal density: the same ~100 enumerated
    candidates per cluster (column widths quantise, hence the 10 %) —
    an all-pairs search would enumerate 8x as many."""
    small, _ = _candidates_per_cluster(6000, ff)
    large, _ = _candidates_per_cluster(48000, ff)
    assert abs(large / small - 1.0) < 0.10, (small, large)


@pytest.mark.slow
def test_90k_atoms_on_one_rank_search_stays_linear(ff):
    """The paper's 90k atoms per GPU on one rank, candidates + tile
    pairs only (no PairBlock): the per-cluster count of the 6k box, where
    an all-pairs search would stream 5e8 centre pairs.  Measured on the
    2-vCPU benchmark host: 102.7 against 97.6 candidates per cluster,
    67 atoms/ms (84 at 6k)."""
    small, small_rate = _candidates_per_cluster(6000, ff, tiles=True)
    large, large_rate = _candidates_per_cluster(90000, ff, tiles=True)
    print(f"\ncandidates/cluster 6k {small:.1f} 90k {large:.1f}; "
          f"atoms/ms 6k {small_rate:.1f} 90k {large_rate:.1f}")
    assert abs(large / small - 1.0) < 0.10, (small, large)


# -- lazy per-rank arena -------------------------------------------------------


class TestLazyArena:
    def test_slots_allocated_lazily_and_reused(self, ff):
        """One slot per rank on first dispatch; steady state never remaps."""
        allocs = METRICS.counter("par.arena.rank_allocs")
        grows = METRICS.counter("par.arena.rank_grows")
        remaps = METRICS.counter("par.arena.remaps")
        a0, g0, r0 = allocs.value, grows.value, remaps.value
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=2, backend="reference", executor="process",
            nstlist=2, buffer=0.12,
        ) as sim:
            sim.run(6)  # several neighbour-search rebinds
        assert allocs.value - a0 == 2  # one lazy alloc per rank, ever
        assert grows.value - g0 == 0  # 25% slack absorbs steady-state churn
        assert remaps.value - r0 == 0
        assert METRICS.gauge("par.arena.bytes").value > 0

    def test_process_executor_bit_identical_with_cap(self, ff, tiny_buffer):
        ref = _run(ff, ranks=2, steps=4, executor="serial")
        tiny_buffer()
        got = _run(ff, ranks=2, steps=4, executor="process")
        assert got == ref


# -- system labels -------------------------------------------------------------


class TestBenchPlumbing:
    def test_resolve_atoms_generic_suffixes(self):
        assert resolve_atoms("192k") == 192_000
        assert resolve_atoms("grappa-768k") == 768_000
        assert resolve_atoms("2.5M") == 2_500_000
        assert resolve_atoms("45k") == 45_000  # canonical labels unchanged
        with pytest.raises(ValueError, match="unknown system"):
            resolve_atoms("46q")
        with pytest.raises(ValueError, match="positive"):
            resolve_atoms("0k")
