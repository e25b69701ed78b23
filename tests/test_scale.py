"""Paper-scale decomposition: chunked pair-list builds, memory accounting,
the lazy per-rank arena, and the 192k-atom memory ceilings.

The contract under test is the one the chunked-build refactor promises:
``max_build_bytes`` is *purely* a memory knob — capped builds produce
bit-identical trajectories (both kernels, across home/halo boundaries,
through drift-triggered rebuilds) while bounding the per-rank build
working set; the accounting gauges make that bound auditable, and the
``slow``-marked test at the end holds it at paper scale.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from repro.dd.engine import DDSimulator
from repro.md import make_grappa_system
from repro.md.cells import (
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_pairs,
)
from repro.md.grappa import resolve_atoms
from repro.md.pairlist import VerletListBuilder
from repro.obs.metrics import METRICS
from repro.spec import SimulationSpec


def _digest(positions: np.ndarray) -> bytes:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).digest()


def _cluster_search(pos, box, r_list, max_bytes=None):
    """``(ci, cj, pairs)`` of the cluster search and its peak working set.

    Candidates in the order emitted; the tile stage's pairs are a set
    (their order follows the chunking), so they are compared as sorted
    ``i * n + j`` keys.
    """
    periodic = np.ones(3, dtype=bool)
    budget = BuildBudget(max_bytes=max_bytes)
    lay = build_clusters(pos, np.zeros(3), box, 4)
    ci, cj = cluster_pair_candidates(
        lay, lay, r_list, box, periodic, True, budget=budget
    )
    pi, pj = cluster_tile_pairs(
        pos, lay, lay, ci, cj, r_list, box, periodic, True, budget=budget
    )
    return (ci, cj, np.sort(pi * len(pos) + pj)), budget.peak_bytes


def _assert_cap_only_bounds_memory(system, r_list, cap):
    """Capped and uncapped cluster searches: equal output, smaller peak."""
    loose, loose_peak = _cluster_search(system.positions, system.box, r_list)
    tight, tight_peak = _cluster_search(
        system.positions, system.box, r_list, max_bytes=cap
    )
    for uncapped, capped in zip(loose, tight):
        assert np.array_equal(uncapped, capped)
    assert tight_peak < loose_peak


def _run(ff, *, kernel: str, max_build_bytes: int | None,
         executor: str = "serial", n_atoms: int = 1400, seed: int = 11,
         ranks: int = 4, steps: int = 6, nstlist: int = 3,
         buffer: float = 0.12) -> bytes:
    system = make_grappa_system(n_atoms, seed=seed, ff=ff, dtype=np.float64)
    with DDSimulator(
        system, ff, n_ranks=ranks, backend="reference", executor=executor,
        nstlist=nstlist, buffer=buffer, kernel=kernel,
        max_build_bytes=max_build_bytes,
    ) as sim:
        sim.run(steps)
        return _digest(sim.system.positions)


# -- chunked-build bit-identity ------------------------------------------------


class TestChunkedBuildParity:
    @pytest.mark.parametrize("kernel", ["segment", "cluster"])
    def test_capped_builds_bit_identical_across_caps(self, ff, kernel):
        """Several caps, DD ranks (home/halo boundaries), periodic rebuilds."""
        ref = _run(ff, kernel=kernel, max_build_bytes=None)
        for cap in (4096, 1 << 16, 1 << 20):
            assert _run(ff, kernel=kernel, max_build_bytes=cap) == ref, (
                f"max_build_bytes={cap} changed the {kernel} trajectory"
            )

    @pytest.mark.parametrize("kernel", ["segment", "cluster"])
    def test_capped_builds_survive_drift_rebuilds(self, ff, kernel):
        """nstlist >> steps with a thin buffer: rebuilds come from drift."""
        kw = dict(kernel=kernel, ranks=2, steps=12, nstlist=50, buffer=0.03,
                  seed=3)
        ref = _run(ff, max_build_bytes=None, **kw)
        assert _run(ff, max_build_bytes=4096, **kw) == ref

    def test_builder_level_parity_segment(self, small_system, ff):
        pos = small_system.positions
        box = small_system.box
        uncapped = VerletListBuilder(box=box, cutoff=ff.cutoff, buffer=0.12)
        capped = VerletListBuilder(box=box, cutoff=ff.cutoff, buffer=0.12,
                                   max_build_bytes=8192)
        a = uncapped.build(pos)
        b = capped.build(pos)
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.j, b.j)

    def test_builder_level_parity_cluster(self, small_system, ff):
        _assert_cap_only_bounds_memory(small_system, ff.cutoff + 0.12, cap=8192)


# -- BuildBudget + memory accounting -------------------------------------------


class TestBuildBudget:
    def test_rows_respects_cap(self):
        b = BuildBudget(max_bytes=1 << 20)
        assert b.rows(bytes_per_row=1024, default_rows=10**9) == 1024
        # Uncapped keeps the tuned default.
        assert BuildBudget().rows(1024, 777) == 777
        # Degenerate cap still makes progress one row at a time.
        assert BuildBudget(max_bytes=4096).rows(10**9, 10**9) == 1

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError, match="max_build_bytes"):
            BuildBudget(max_bytes=100)
        with pytest.raises(ValueError, match="max_build_bytes"):
            SimulationSpec(max_build_bytes=100)

    def test_peak_tracks_high_water(self):
        b = BuildBudget(max_bytes=1 << 20)
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
            nstlist=2, buffer=0.12, kernel=kernel, max_build_bytes=1 << 20,
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

    def test_chunk_working_set_bounded_by_cap(self, ff):
        """The cap actually bounds what the chunked stages allocate.

        The budget's peak includes per-rank outputs (pair list, layout),
        which scale with local atoms — but the *chunk* working set must
        track the cap, so a tight cap yields a much smaller peak than an
        uncapped build on the same rank.
        """
        system = make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)
        _assert_cap_only_bounds_memory(system, ff.cutoff + 0.12, cap=65536)


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

    def test_process_executor_bit_identical_with_cap(self, ff):
        ref = _run(ff, kernel="cluster", max_build_bytes=None, ranks=2,
                   steps=4, executor="serial")
        got = _run(ff, kernel="cluster", max_build_bytes=1 << 20, ranks=2,
                   steps=4, executor="process")
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


# -- paper-scale memory ceilings -----------------------------------------------


@pytest.mark.slow
def test_192k_16_rank_build_stays_within_the_memory_ceilings():
    """One neighbour search + 2 steps at 192k atoms / 16 ranks, capped builds.

    The streamed build allocates per local atom, never per global atom, so
    the per-rank build peak stays under 12000 B/atom; and the evaluator's
    scratch is one chunk per worker plus 24 B/pair of its largest block,
    never 154 B/pair of every list, so the process tree (self + reaped
    workers) stays under 1400 MiB.  Measured on the 2-vCPU benchmark host:
    4178 B/atom, 836 MiB, ~20 s (7586 B/atom and 914 MiB while candidates
    came from an all-pairs GEMM, whose uncapped build read 12072 B/atom;
    2126 MiB with per-block evaluator scratch).  The 64 MiB cap no longer
    binds here — every streamed stage's tuned chunk is a few MB — so the
    ceilings now guard the list and the layouts; tight caps are exercised
    by the tier-1 parity tests above.
    """
    spec = SimulationSpec(
        system="192k", ranks=16, executor="process", kernel="cluster",
        max_build_bytes=64 << 20,
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
    assert 0 < bytes_per_atom <= 12000, bytes_per_atom
    assert rss_mib <= 1400, rss_mib
