"""Communication backends: equivalence, completeness, and failure modes."""

import numpy as np
import pytest

from repro.comm import (
    NvshmemBackend,
    ReferenceBackend,
    backend_registry,
    make_backend,
)
from repro.dd import DDGrid, DDSimulator
from repro.dd.decomposition import DomainDecomposition
from repro.dd.exchange import build_cluster, reference_coordinate_exchange
from repro.md import ReferenceSimulator
from repro.nvshmem.heap import SymmetricAllocationError, SymmetricHeap
from repro.nvshmem.signals import SignalError


def _run_traj(system, ff, backend, shape=(2, 2, 2), steps=8):
    s = system.copy()
    dds = DDSimulator(s, ff, grid=DDGrid(shape), nstlist=4, buffer=0.12, backend=backend)
    dds.run(steps)
    return s.positions


class TestEquivalence:
    @pytest.mark.parametrize(
        "backend",
        [
            ReferenceBackend(),
            NvshmemBackend(seed=1),
            NvshmemBackend(pes_per_node=4, seed=2),
            NvshmemBackend(pes_per_node=2, seed=3),
            NvshmemBackend(pes_per_node=1, seed=4),  # all inter-node
        ],
        ids=["reference", "nvs-1node", "nvs-2node", "nvs-4node", "nvs-allIB"],
    )
    def test_trajectory_matches_serial(self, small_system, ff, backend):
        a = small_system.copy()
        ref = ReferenceSimulator(a, ff, nstlist=4, buffer=0.12)
        ref.run(8)
        pos = _run_traj(small_system, ff, backend)
        dx = pos - a.positions
        dx -= np.rint(dx / a.box) * a.box
        assert np.abs(dx).max() < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_nvshmem_any_interleaving(self, tiny_system, ff, seed):
        """Randomized cooperative schedules + randomized proxy delivery all
        produce the identical trajectory (the paper's correctness claim for
        the fused, signal-ordered design)."""
        ref_pos = _run_traj(tiny_system, ff, ReferenceBackend(), shape=(2, 1, 1), steps=6)
        be = NvshmemBackend(pes_per_node=1, seed=seed)
        pos = _run_traj(tiny_system, ff, be, shape=(2, 1, 1), steps=6)
        np.testing.assert_allclose(pos, ref_pos, atol=1e-12)


class TestCompleteness:
    def test_every_halo_entry_communicated(self, small_system, ff):
        """NaN-poisoned halo slots must all be overwritten by the exchange."""
        dd = DomainDecomposition(
            grid=DDGrid((2, 2, 2)), box=small_system.box, r_comm=ff.cutoff + 0.12
        )
        for backend in (ReferenceBackend(), NvshmemBackend(pes_per_node=2, seed=0)):
            cluster = build_cluster(small_system.copy(), dd, fresh_halo=False)
            backend.bind(cluster)
            backend.exchange_coordinates(cluster)
            for r, rp in enumerate(cluster.plan.ranks):
                assert np.isfinite(cluster.local_pos[r]).all(), backend.name

    def test_exchange_matches_reference_exchange(self, small_system, ff):
        dd = DomainDecomposition(
            grid=DDGrid((2, 2, 2)), box=small_system.box, r_comm=ff.cutoff + 0.12
        )
        want = build_cluster(small_system.copy(), dd, fresh_halo=False)
        reference_coordinate_exchange(want)
        got = build_cluster(small_system.copy(), dd, fresh_halo=False)
        be = NvshmemBackend(pes_per_node=2, seed=9)
        be.bind(got)
        be.exchange_coordinates(got)
        for r in range(got.n_ranks):
            np.testing.assert_allclose(got.local_pos[r], want.local_pos[r], atol=1e-12)


class TestStats:
    def test_nvshmem_stats_reflect_topology(self, small_system, ff):
        all_nvlink = NvshmemBackend(seed=0)
        _run_traj(small_system, ff, all_nvlink, steps=2)
        assert all_nvlink.runtime.stats.direct_stores > 0
        assert all_nvlink.runtime.stats.put_signals == 0

        all_ib = NvshmemBackend(pes_per_node=1, seed=0)
        _run_traj(small_system, ff, all_ib, steps=2)
        assert all_ib.runtime.stats.put_signals > 0
        assert all_ib.runtime.stats.direct_stores == 0


class TestFailureModes:
    def test_exchange_before_bind_raises(self, small_system, ff):
        dd = DomainDecomposition(
            grid=DDGrid((2, 1, 1)), box=small_system.box, r_comm=ff.cutoff + 0.12
        )
        cluster = build_cluster(small_system.copy(), dd)
        be = NvshmemBackend()
        with pytest.raises(RuntimeError, match="bind"):
            be.exchange_coordinates(cluster)

    def test_single_rank_binds_and_exchanges_nothing(self, tiny_system, ff):
        """One rank has no pulses: bind compiles no program, and both
        exchanges leave the arrays as they were."""
        dd = DomainDecomposition(
            grid=DDGrid((1, 1, 1)), box=tiny_system.box, r_comm=ff.cutoff + 0.12
        )
        cluster = build_cluster(tiny_system, dd)
        before = cluster.local_pos[0].copy(), cluster.local_forces[0].copy()
        be = NvshmemBackend()
        be.bind(cluster)
        be.exchange_coordinates(cluster)
        be.exchange_forces(cluster)
        assert np.array_equal(cluster.local_pos[0], before[0])
        assert np.array_equal(cluster.local_forces[0], before[1])

    def test_registry(self):
        assert sorted(backend_registry) == ["nvshmem", "reference"]
        be = make_backend("nvshmem", pes_per_node=2)
        assert isinstance(be, NvshmemBackend)
        with pytest.raises(KeyError):
            make_backend("smoke-signals")

    def test_strict_signals_catch_missing_release(self, small_system, ff, monkeypatch):
        """Fault injection: turn the NVLink notify into a relaxed store and
        the strict signal layer must catch the ordering bug."""
        from repro.nvshmem.signals import SignalArray

        be = NvshmemBackend(seed=0)  # all-NVLink topology
        real = SignalArray.release_store

        def sabotage(self, pe, idx, value):
            if self.name == "coordSig":
                return SignalArray.relaxed_store(self, pe, idx, value)
            return real(self, pe, idx, value)

        monkeypatch.setattr(SignalArray, "release_store", sabotage)
        with pytest.raises(SignalError):
            _run_traj(small_system, ff, be, shape=(2, 2, 1), steps=1)


class TestRaggedSymmetricExtents:
    """The ranks' own coordinate/force arrays are the symmetric objects, so
    one-sided operations are bounds-checked against the *target* rank's
    ``n_local`` — not against a buffer padded to the largest rank."""

    @pytest.fixture()
    def bound(self, tiny_system, ff):
        dd = DomainDecomposition(
            grid=DDGrid((1, 1, 4)), box=tiny_system.box, r_comm=ff.cutoff + 0.12,
            max_pulses=2,
        )
        cluster = build_cluster(tiny_system, dd)
        backend = NvshmemBackend(pes_per_node=2)
        backend.bind(cluster)
        n_local = [rp.n_local for rp in cluster.plan.ranks]
        assert len(set(n_local)) > 1, "decomposition must be ragged"
        small = int(np.argmin(n_local))
        return cluster, backend, small, n_local[small]

    def test_registered_array_is_the_cluster_array(self, bound):
        cluster, backend, _, _ = bound
        for pe in range(cluster.n_ranks):
            assert backend._coords.on(pe) is cluster.local_pos[pe]
            assert backend._forces.on(pe) is cluster.local_forces[pe]
            assert backend._coords.on(pe).shape[0] == cluster.plan.ranks[pe].n_local

    def test_one_row_past_the_target_extent_raises(self, bound):
        cluster, backend, small, n = bound
        rt = backend.runtime
        peer = small ^ 1  # same node at pes_per_node=2
        far = (small + 2) % 4  # another node
        rows = np.zeros((2, 3))
        sig = rt.signal_array("coordSig", cluster.plan.n_pulses)
        # The last two rows of the target are still in range; the proxied
        # ops are checked when bind resolves them, like the views.
        (op,) = rt.bind_put_signals(backend._coords, [small], [far], [n - 2], [rows], sig, [0])
        assert np.shares_memory(op.dest, cluster.local_pos[small])
        with pytest.raises(IndexError, match=f"on PE {small}"):
            rt.bind_put_signals(backend._coords, [small], [far], [n - 1], [rows], sig, [0])
        # The NVLink views are checked when bind resolves them.
        (view,) = rt.peer_rows(backend._forces, [small], [peer], [n - 2], [2])
        assert view.shape == (2, 3)
        with pytest.raises(IndexError, match=f"on PE {small}"):
            rt.peer_rows(backend._forces, [small], [peer], [n - 1], [2])
        assert rt.n_pending == 0  # nothing was queued by the refused ops

    def test_registration_is_collective_and_typed(self, bound):
        cluster, _, _, _ = bound
        heap = SymmetricHeap(4)
        with pytest.raises(SymmetricAllocationError, match="3 of 4 PEs"):
            heap.register_symmetric("x", cluster.local_pos[:3])
        wrong_dtype = [*cluster.local_pos[:3], cluster.local_pos[3].astype(np.float32)]
        with pytest.raises(SymmetricAllocationError, match="PE 3"):
            heap.register_symmetric("x", wrong_dtype)
        wrong_shape = [*cluster.local_pos[:3], np.zeros((5, 2))]
        with pytest.raises(SymmetricAllocationError, match="trailing shape"):
            heap.register_symmetric("x", wrong_shape)
        buf = heap.register_symmetric("x", cluster.local_pos)
        assert buf.shape[0] == max(a.shape[0] for a in cluster.local_pos)
        assert heap.total_bytes() == buf.shape[0] * 3 * 8
        with pytest.raises(SymmetricAllocationError, match="already exists"):
            heap.register_symmetric("x", cluster.local_pos)


class TestOnPulseContract:
    """The on_pulse callback contract (see HaloBackend.exchange_coordinates):
    exactly once per (rank, pulse), per-rank pulses in delivery order, with
    the pulse's data already visible at callback time."""

    def _cluster(self, system, ff):
        # (1, 2, 4) with two z-pulses: 3 pulses/rank incl. cross-dim forwarding.
        dd = DomainDecomposition(
            grid=DDGrid((1, 2, 4)), box=system.box, r_comm=ff.cutoff + 0.12,
            max_pulses=2,
        )
        return build_cluster(system.copy(), dd, fresh_halo=False)

    def _check_contract(self, cluster, calls, visible):
        n_pulses = cluster.plan.n_pulses
        assert n_pulses >= 2
        expected = [(r, p) for r in range(cluster.n_ranks) for p in range(n_pulses)]
        assert sorted(calls) == expected  # exactly once per (rank, pulse)
        for rank in range(cluster.n_ranks):
            pulses = [p for r, p in calls if r == rank]
            assert pulses == sorted(pulses)  # delivery order within a rank
        assert all(visible)  # pulse data landed before its notification

    @pytest.mark.parametrize(
        "name,factory",
        [
            ("reference", lambda: make_backend("reference")),
            ("nvshmem", lambda: NvshmemBackend(pes_per_node=2, seed=9)),
        ],
        ids=["reference", "nvshmem"],
    )
    def test_exactly_once_in_order_with_data_visible(self, tiny_system, ff, name, factory):
        cluster = self._cluster(tiny_system, ff)
        be = factory()
        be.bind(cluster)
        calls, visible = [], []

        def on_pulse(rank, pid):
            calls.append((rank, pid))
            p = cluster.plan.ranks[rank].pulses[pid]
            rows = cluster.local_pos[rank][p.atom_offset : p.atom_offset + p.recv_size]
            visible.append(bool(np.all(np.isfinite(rows))))

        be.exchange_coordinates(cluster, on_pulse=on_pulse)
        self._check_contract(cluster, calls, visible)

    @pytest.mark.parametrize("seed", range(4))
    def test_contract_holds_under_injected_delays(self, tiny_system, ff, seed):
        """Chaos-injected delays, hidden signals, and dropped proxy ops must
        not duplicate, lose, or reorder notifications."""
        from repro.chaos import ChaosInjector, FaultPlan

        cluster = self._cluster(tiny_system, ff)
        plan = FaultPlan.generate(
            seed, n_ranks=cluster.n_ranks, n_pulses=cluster.plan.n_pulses
        )
        be = NvshmemBackend(pes_per_node=2, seed=seed)
        calls, visible = [], []

        def on_pulse(rank, pid):
            calls.append((rank, pid))
            p = cluster.plan.ranks[rank].pulses[pid]
            rows = cluster.local_pos[rank][p.atom_offset : p.atom_offset + p.recv_size]
            visible.append(bool(np.all(np.isfinite(rows))))

        with ChaosInjector(plan, backend=be):
            be.bind(cluster)
            be.exchange_coordinates(cluster, on_pulse=on_pulse)
        self._check_contract(cluster, calls, visible)
