"""Pair-list lifecycles: the reference's buffered Verlet list (build,
rebuild triggers) and the DD ranks' dual list (the rank prune of the
outer list into the evaluated inner one, and its displacement guard)."""

import numpy as np
import pytest

from repro.dd import DDSimulator
from repro.md import ReferenceSimulator, default_forcefield, make_grappa_system, nonbonded
from repro.md.nonbonded import pair_forces
from repro.md.pairlist import VerletListBuilder
from repro.obs.metrics import METRICS
from repro.par.phases import RankConfig, _guard, _prune


@pytest.fixture(scope="module")
def setup():
    ff = default_forcefield(cutoff=0.65)
    sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    sys_.wrap()
    builder = VerletListBuilder(box=sys_.box, cutoff=ff.cutoff, buffer=0.15, nstlist=10)
    return ff, sys_, builder


def _searched(ff):
    """A serial 4-rank DD simulator of the 1400-atom system, right after
    its first search (halo rows fresh).  ``dt=0.002`` runs hot: the guard
    trips between searches."""
    sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    sim = DDSimulator(sys_, ff, n_ranks=4, nstlist=10, buffer=0.15, dt=0.002)
    sim.prepare_step()
    return sim


def _halves(sim):
    """``(workspace, half)`` for both halves of every rank."""
    for ws in sim.executor._ws:
        for half in (ws.pairs.local, ws.pairs.nonlocal_):
            yield ws, half


def _pairs(i, j):
    return set(zip(i.tolist(), j.tolist()))


def _min_image(dx, cfg):
    """Minimum-image rows of ``dx`` along the rank's periodic dims."""
    return dx - np.where(cfg.periodic, np.rint(dx / cfg.box) * cfg.box, 0.0)


class TestBuild:
    def test_contains_all_cutoff_pairs(self, setup):
        ff, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        inner = builder._cells.pairs_within(sys_.positions, ff.cutoff)
        got = set(zip(pairs.i.tolist(), pairs.j.tolist()))
        want = set(zip(inner[0].tolist(), inner[1].tolist()))
        assert want <= got
        assert pairs.n_pairs > len(want)  # the buffer adds entries

    def test_r_list(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        assert pairs.r_list == pytest.approx(0.8)


class TestRebuildTrigger:
    def test_no_rebuild_when_static(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        assert not builder.needs_rebuild(pairs, sys_.positions)

    def test_rebuild_after_nstlist_steps(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        pairs.steps_since_build = 10
        assert builder.needs_rebuild(pairs, sys_.positions)

    def test_rebuild_on_large_displacement(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        moved = sys_.positions.copy()
        moved[0, 0] += 0.076  # > buffer/2 = 0.075
        assert builder.needs_rebuild(pairs, moved)
        moved = sys_.positions.copy()
        moved[0, 0] += 0.074
        assert not builder.needs_rebuild(pairs, moved)

    def test_displacement_check_survives_rewrap(self, setup):
        """An atom wrapped across the box is not a huge displacement."""
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        moved = sys_.positions.copy()
        # Move an atom that sits near the boundary across it, then wrap.
        k = int(np.argmax(moved[:, 0]))
        moved[k, 0] = (moved[k, 0] + 0.05) % sys_.box[0]
        assert not builder.needs_rebuild(pairs, moved)


class TestPrune:
    """The rank prune: every DD rank's inner lists against its outer ones."""

    def test_prune_never_changes_forces(self, setup):
        """At every step of a hot run the inner lists the kernel evaluated
        hold every outer pair inside the cutoff, in order: the scatter
        oracle gives the same forces from either list, bit for bit."""
        ff = setup[0]
        prunes = METRICS.counter("md.prune.count")
        before = prunes.value
        with _searched(ff) as sim:
            for _ in range(12):
                sim.step()
                # The next step's forces, halo rows fresh, guard applied.
                sim.prepare_step()
                sim.compute_forces()
                for ws, half in _halves(sim):
                    common = (ws.types, ws.charges, ff)
                    geom = dict(box=ws.cfg.box, periodic=ws.cfg.periodic)
                    outer = pair_forces(ws.pos, half.i, half.j, *common, **geom)
                    inner = pair_forces(
                        ws.pos, half.block.i, half.block.j, *common, **geom
                    )
                    assert np.array_equal(outer[0], inner[0])
                    assert outer[1:] == inner[1:]
                    assert half.block.n_pairs < half.n_pairs
        assert prunes.value > before  # the guard re-pruned along the way

    def test_prune_safe_under_max_drift(self, setup):
        """Failure injection: move every row by just under the most the
        guard lets through — buffer/4, each atom straight at a partner it
        was pruned from where it has one — and verify the guard stays
        quiet while no pruned pair re-enters the cutoff."""
        ff = setup[0]
        rng = np.random.default_rng(0)
        with _searched(ff) as sim:
            for ws, half in _halves(sim):
                pos = ws.pos.copy()
                dropped = _pairs(half.i, half.j) - _pairs(half.block.i, half.block.j)
                assert dropped
                toward = rng.normal(size=(half.rows, 3))
                for a, b in dropped:
                    toward[a] = _min_image(pos[b] - pos[a], ws.cfg)
                    toward[b] = -toward[a]
                toward *= 0.999 * ws.cfg.prune_drift / np.linalg.norm(
                    toward, axis=1, keepdims=True
                )
                ws.pos[: half.rows] += toward
                assert not _guard(ws, half)
                a, b = np.array(sorted(dropped)).T
                dx = _min_image(ws.pos[a] - ws.pos[b], ws.cfg)
                assert np.all(np.einsum("ij,ij->i", dx, dx) > ff.cutoff**2)
                ws.pos[...] = pos

    def test_validation(self, setup):
        _, sys_, builder = setup
        with pytest.raises(ValueError):
            VerletListBuilder(box=sys_.box, cutoff=0.65, buffer=-0.1)
        with pytest.raises(ValueError):
            VerletListBuilder(box=sys_.box, cutoff=0.65, nstlist=0)


class TestSortedInvariant:
    """The segment-reduction invariant: lists are sorted by i, and stay so."""

    def test_build_marks_sorted(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        assert np.all(np.diff(pairs.i) >= 0)

    def test_prune_preserves_sorted(self, setup):
        """Inner lists keep the outer order — local by i, non-local by
        (pulse, i) — at the search and after a guard re-prune."""
        ff = setup[0]
        with _searched(ff) as sim:
            for _ in range(2):
                for ws, half in _halves(sim):
                    src, i = ws.ns.src_pulse, half.block.i
                    req = np.maximum(src[i], src[half.block.j])
                    order = req * ws.pos.shape[0] + i
                    assert np.all(np.diff(order) >= 0)
                    # Push one row past the guard: the re-prune is sorted too.
                    ws.pos[0, 0] += 2.0 * ws.cfg.prune_drift
                    assert _guard(ws, half)


class TestScratchReuse:
    """needs_rebuild and the rank prune run allocation-free at steady state."""

    def test_displacement_buffers_are_reused(self, setup):
        ff, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        builder.needs_rebuild(pairs, sys_.positions)
        first = {k: id(v) for k, v in builder._scratch.items()}
        builder.needs_rebuild(pairs, sys_.positions)
        for name, ident in first.items():
            assert id(builder._scratch[name]) == ident, name
        # The prune pass streams through the evaluator's scratch.
        with _searched(ff) as sim:
            ws = sim.executor._ws[0]
            _prune(ws, ws.pairs.nonlocal_)
            held = nonbonded._scratch.by_dtype["float64"]
            first = {name: id(arr) for name, arr in held.items()}
            for half in (ws.pairs.local, ws.pairs.nonlocal_, ws.pairs.local):
                _prune(ws, half)
            assert {name: id(arr) for name, arr in held.items()} == first

    def test_max_disp_gauge_published(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        moved = sys_.positions + 0.03
        builder.needs_rebuild(pairs, moved)
        gauge = METRICS.gauge("pairlist.max_disp")
        assert gauge.value == pytest.approx(0.03 * np.sqrt(3.0), rel=1e-9)
        builder.needs_rebuild(pairs, sys_.positions)
        assert gauge.value == 0.0


def _guarded_run(ff, executor, steps):
    """A hot 24-step run of the 1400-atom system on 4 ranks: final
    positions, energies, guard re-prunes and searches."""
    sys_ = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
    prunes, searches = METRICS.counter("md.prune.count"), METRICS.counter("dd.ns_builds")
    p0, s0 = prunes.value, searches.value
    with DDSimulator(
        sys_, ff, n_ranks=4, executor=executor, nstlist=10, buffer=0.12, dt=0.002
    ) as sim:
        energies = sim.run(steps)
    return sys_.positions, energies, prunes.value - p0, searches.value - s0


def _check_guard_exact(ff, steps=24):
    """Serial and process agree bit for bit, re-prune mid-interval more
    often than they search, and stay on the unpruned reference."""
    ref = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
    ReferenceSimulator(ref, ff, nstlist=10, buffer=0.12, dt=0.002).run(steps)
    serial = _guarded_run(ff, "serial", steps)
    process = _guarded_run(ff, "process", steps)
    assert np.array_equal(serial[0], process[0])
    assert serial[1:] == process[1:]
    for pos, _, n_prunes, n_searches in (serial, process):
        dx = pos - ref.positions
        dx -= np.rint(dx / ref.box) * ref.box
        assert np.abs(dx).max() <= 1e-12
        assert n_prunes > n_searches


class TestGuard:
    """The displacement guard of the dual list: exact, rank-local, and the
    same under both executors (CI runs this class in its executor job)."""

    def test_exact_under_both_executors(self, setup):
        _check_guard_exact(setup[0])

    def test_guard_is_load_bearing(self, setup, monkeypatch):
        """With the threshold at infinity no inner list is ever re-pruned
        between searches, and the same check fails."""
        monkeypatch.setattr(RankConfig, "prune_drift", np.inf)
        with pytest.raises(AssertionError, match="<= 1e-12"):
            _check_guard_exact(setup[0])
