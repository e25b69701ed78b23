"""Paper-scale decomposition: chunked pair-list builds, memory accounting,
the lazy per-rank arena, and the 192k-atom memory ceilings.

The contract under test is the one the chunked build promises: the
cluster search's three chunk lengths (``repro.md.cells.CHUNK_*``) are
*purely* a memory matter — builds at tiny chunks produce bit-identical
trajectories (across home/halo boundaries, through drift-triggered
rebuilds, under both executors) while using a smaller working set; the
accounting gauges make that bound auditable, and the first
``slow``-marked test holds it at paper scale.
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


def _digest(positions: np.ndarray) -> bytes:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).digest()


#: Chunk lengths small enough that every stage of a test-sized search
#: runs in many chunks, a tile chunk ending mid-way through a cluster's
#: candidates.
TINY_CHUNKS = {"CHUNK_A_CLUSTERS": 1, "CHUNK_CANDIDATES": 7, "CHUNK_TILES": 64}


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


def _run(ff, *, kernel: str, executor: str = "serial", n_atoms: int = 1400,
         seed: int = 11, ranks: int = 4, steps: int = 6, nstlist: int = 3,
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
    @pytest.mark.parametrize("kernel", ["segment", "cluster"])
    def test_capped_builds_bit_identical_across_caps(self, ff, kernel, tiny_chunks):
        """Tiny chunks, DD ranks (home/halo boundaries), periodic rebuilds."""
        ref = _run(ff, kernel=kernel)
        tiny_chunks()
        assert _run(ff, kernel=kernel) == ref, (
            f"chunk lengths {TINY_CHUNKS} changed the {kernel} trajectory"
        )

    @pytest.mark.parametrize("kernel", ["segment", "cluster"])
    def test_capped_builds_survive_drift_rebuilds(self, ff, kernel, tiny_chunks):
        """nstlist >> steps with a thin buffer: rebuilds come from drift."""
        kw = dict(kernel=kernel, ranks=2, steps=12, nstlist=50, buffer=0.03,
                  seed=3)
        ref = _run(ff, **kw)
        tiny_chunks()
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

    @pytest.mark.parametrize("kernel", ["segment", "cluster"])
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
        """Same pair set, same block type: both searches store the same
        bytes, per rank and in total."""
        got = {}
        for kernel in ("segment", "cluster"):
            system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
            with DDSimulator(
                system, ff, n_ranks=4, backend="reference", executor="serial",
                nstlist=2, buffer=0.12, kernel=kernel,
            ) as sim:
                sim.step()
                got[kernel] = (
                    METRICS.gauge("md.pairlist.bytes").value,
                    [w.pairlist_bytes for w in sim.workloads],
                )
        assert got["cluster"] == got["segment"]
        assert got["cluster"][0] == sum(got["cluster"][1]) > 0

    def test_tile_fill_is_published(self, ff):
        """Enumerated candidates and tested tiles cross the executor
        boundary in ``stats`` and land in gauges; every pair sits in a
        tested tile, so pairs per tile slot is one division away."""
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=4, backend="reference", executor="process",
            nstlist=2, buffer=0.12, kernel="cluster",
        ) as sim:
            sim.step()
            candidates = METRICS.gauge("md.pairsearch.candidates").value
            tiles = METRICS.gauge("md.pairsearch.tiles").value
            pairs = sum(w.n_pairs_local + w.n_pairs_nonlocal for w in sim.workloads)
        assert candidates >= tiles > 0
        assert 0.0 < pairs / (tiles * 16) <= 1.0

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
    host: 2778 B/atom, 607 MiB with the compiled evaluator (629 MiB with
    the NumPy chain's 24 B/pair force buffer, measured alongside); earlier
    records: 654 MiB with 40 B/pair inner blocks (3994 B/atom and
    ≈800 MiB at 64 B/pair; 7586 B/atom and 914 MiB while candidates came
    from an all-pairs GEMM; 2126 MiB with per-block evaluator scratch).
    B/atom is accounting, the same on every host, so its ceiling sits
    1.2x above the measurement and fails a 64 B/pair list; RSS varies by
    host and keeps ≈1.5x.  ``ru_maxrss`` is a high-water mark of the
    whole pytest process, so this test runs before the 90k-atom one
    below, which alone would lift it to ≈890 MiB (a whole-repo ``-m
    slow`` session reads 758).  The streamed stages' transients
    are 3.3 MiB per rank at their fixed chunk lengths, so the ceilings
    guard the lists and the layouts; tiny chunks are exercised by the
    tier-1 parity tests above.
    """
    spec = SimulationSpec(
        system="192k", ranks=16, executor="process", kernel="cluster",
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
            nstlist=2, buffer=0.12, kernel="cluster",
        ) as sim:
            sim.run(6)  # several neighbour-search rebinds
        assert allocs.value - a0 == 2  # one lazy alloc per rank, ever
        assert grows.value - g0 == 0  # 25% slack absorbs steady-state churn
        assert remaps.value - r0 == 0
        assert METRICS.gauge("par.arena.bytes").value > 0

    def test_process_executor_bit_identical_with_cap(self, ff, tiny_chunks):
        ref = _run(ff, kernel="cluster", ranks=2, steps=4, executor="serial")
        tiny_chunks()
        got = _run(ff, kernel="cluster", ranks=2, steps=4, executor="process")
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
