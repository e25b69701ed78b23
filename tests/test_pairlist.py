"""Buffered Verlet list lifecycle: build, rebuild triggers, rolling prune."""

import numpy as np
import pytest

from repro.md import default_forcefield, make_grappa_system
from repro.md.nonbonded import pair_forces
from repro.md.pairlist import VerletListBuilder
from repro.obs.metrics import METRICS


@pytest.fixture(scope="module")
def setup():
    ff = default_forcefield(cutoff=0.65)
    sys_ = make_grappa_system(1400, seed=3, ff=ff, dtype=np.float64)
    sys_.wrap()
    builder = VerletListBuilder(box=sys_.box, cutoff=ff.cutoff, buffer=0.15, nstlist=10)
    return ff, sys_, builder


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
    def test_prune_never_changes_forces(self, setup):
        ff, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        pruned = builder.prune(pairs, sys_.positions)
        assert pruned.n_pairs <= pairs.n_pairs
        f1, e1, c1 = pair_forces(
            sys_.positions, pairs.i, pairs.j, sys_.type_ids, sys_.charges, ff, box=sys_.box
        )
        f2, e2, c2 = pair_forces(
            sys_.positions, pruned.i, pruned.j, sys_.type_ids, sys_.charges, ff, box=sys_.box
        )
        np.testing.assert_allclose(f1, f2, atol=1e-10)
        assert e1 == pytest.approx(e2)

    def test_prune_safe_under_max_drift(self, setup):
        """Failure injection: drift every atom by the worst case the rebuild
        trigger allows and verify no pruned pair re-enters the cutoff."""
        ff, sys_, builder = setup
        rng = np.random.default_rng(0)
        pairs = builder.build(sys_.positions)
        pruned = builder.prune(pairs, sys_.positions)
        dropped = set(zip(pairs.i.tolist(), pairs.j.tolist())) - set(
            zip(pruned.i.tolist(), pruned.j.tolist())
        )
        # Adversarial drift: each atom up to buffer/2+buffer/2 from current.
        for _ in range(5):
            drift = rng.normal(size=sys_.positions.shape)
            drift *= builder.buffer / np.linalg.norm(drift, axis=1, keepdims=True)
            moved = sys_.positions + drift
            for (i, j) in list(dropped)[:50]:
                dx = moved[i] - moved[j]
                dx -= np.rint(dx / sys_.box) * sys_.box
                assert np.dot(dx, dx) > ff.cutoff**2

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
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        pruned = builder.prune(pairs, sys_.positions)
        assert np.all(np.diff(pruned.i) >= 0)


class TestScratchReuse:
    """needs_rebuild/prune run allocation-free at steady state."""

    def test_displacement_buffers_are_reused(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        builder.needs_rebuild(pairs, sys_.positions)
        first = {k: id(v) for k, v in builder._scratch.items()}
        builder.needs_rebuild(pairs, sys_.positions)
        builder.prune(pairs, sys_.positions)
        builder.prune(pairs, sys_.positions)
        for name, ident in first.items():
            assert id(builder._scratch[name]) == ident, name

    def test_max_disp_gauge_published(self, setup):
        _, sys_, builder = setup
        pairs = builder.build(sys_.positions)
        moved = sys_.positions + 0.03
        builder.needs_rebuild(pairs, moved)
        gauge = METRICS.gauge("pairlist.max_disp")
        assert gauge.value == pytest.approx(0.03 * np.sqrt(3.0), rel=1e-9)
        builder.needs_rebuild(pairs, sys_.positions)
        assert gauge.value == 0.0
