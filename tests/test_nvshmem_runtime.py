"""NVSHMEM runtime: topology, ptr, puts/gets, proxy delivery ordering."""

import numpy as np
import pytest

from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime


@pytest.fixture()
def rt():
    # 4 PEs, 2 per node: PEs {0,1} and {2,3} are NVLink-reachable pairs.
    return NvshmemRuntime(NodeTopology(n_pes=4, pes_per_node=2))


@pytest.fixture()
def rt_delayed():
    return NvshmemRuntime(
        NodeTopology(n_pes=4, pes_per_node=2), delay_delivery=True
    )


class TestTopology:
    def test_node_mapping(self):
        topo = NodeTopology(n_pes=8, pes_per_node=4)
        assert topo.node_of(3) == 0 and topo.node_of(4) == 1
        assert topo.same_node(0, 3) and not topo.same_node(3, 4)
        assert topo.n_nodes == 2

    def test_partial_last_node(self):
        assert NodeTopology(n_pes=6, pes_per_node=4).n_nodes == 2

    def test_pe_range(self):
        with pytest.raises(ValueError):
            NodeTopology(n_pes=4, pes_per_node=2).node_of(4)


class TestPtr:
    def test_same_node_gives_view(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        view = rt.ptr(buf, remote_pe=1, local_pe=0)
        assert view is buf.on(1)

    def test_cross_node_gives_none(self, rt):
        """The isNVLinkAccess predicate: remote pointers only intra-node."""
        buf = rt.symmetric_alloc("b", (4,))
        assert rt.ptr(buf, remote_pe=2, local_pe=0) is None


class TestDataMovement:
    def test_put_immediate(self, rt):
        buf = rt.symmetric_alloc("b", (4, 3))
        data = np.full((2, 3), 5.0, dtype=np.float32)
        rt.put(buf, target_pe=2, offset=1, data=data, source_pe=0)
        np.testing.assert_array_equal(buf.on(2)[1:3], data)
        assert rt.stats.puts == 1

    def test_put_bounds_checked(self, rt):
        buf = rt.symmetric_alloc("b", (4, 3))
        with pytest.raises(IndexError):
            rt.put(buf, 1, 3, np.zeros((2, 3), np.float32), source_pe=0)

    def test_put_captures_source_at_issue(self, rt_delayed):
        """NBI semantics: mutating the source after issue must not change
        what arrives (the runtime snapshots at issue time)."""
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (4,))
        src = np.ones(2, dtype=np.float32)
        rt.put(buf, target_pe=2, offset=0, data=src, source_pe=0)
        src[:] = 99.0
        rt.quiet()
        np.testing.assert_array_equal(buf.on(2)[:2], [1.0, 1.0])

    def test_get_same_node(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        buf.on(1)[:] = [1, 2, 3, 4]
        out = rt.get(buf, source_pe_remote=1, offset=1, count=2, local_pe=0)
        np.testing.assert_array_equal(out, [2, 3])

    def test_get_cross_node_forbidden(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        with pytest.raises(RuntimeError, match="NVLink get path"):
            rt.get(buf, source_pe_remote=2, offset=0, count=1, local_pe=0)

    def test_get_returns_copy(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        out = rt.get(buf, 1, 0, 2, local_pe=0)
        out[:] = 9
        assert np.all(buf.on(1)[:2] == 0)

    def test_direct_store(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        view = rt.ptr(buf, 1, 0)
        rt.direct_store(view, 2, np.array([7.0, 8.0], dtype=np.float32))
        np.testing.assert_array_equal(buf.on(1)[2:], [7.0, 8.0])
        with pytest.raises(ValueError):
            rt.direct_store(None, 0, np.zeros(1))


class TestPutSignal:
    def test_signal_delivered_with_data(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 2)
        rt.put_signal_nbi(buf, 2, 0, np.ones(2, np.float32), sig, 1, 42, source_pe=0)
        assert sig.acquire_check(2, 1, 42, needs_data=True)
        np.testing.assert_array_equal(buf.on(2)[:2], 1.0)

    def test_delayed_signal_never_before_data(self, rt_delayed):
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 1)
        rt.put_signal_nbi(buf, 2, 0, np.ones(2, np.float32), sig, 0, 7, source_pe=0)
        # Pending: neither data nor signal visible.
        assert rt.n_pending == 1
        assert not sig.is_set(2, 0, 7)
        assert np.all(buf.on(2) == 0.0)
        rt.progress()
        # Delivered atomically in data-then-signal order.
        assert sig.acquire_check(2, 0, 7)
        np.testing.assert_array_equal(buf.on(2)[:2], 1.0)

    def test_intra_node_bypasses_proxy(self, rt_delayed):
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (4,))
        rt.put(buf, target_pe=1, offset=0, data=np.ones(1, np.float32), source_pe=0)
        assert rt.n_pending == 0  # same node: immediate

    def test_randomized_progress_order(self, rt_delayed):
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (8,))
        for k in range(4):
            rt.put(buf, 2, k, np.array([float(k + 1)], np.float32), source_pe=0)
        rng = np.random.default_rng(0)
        delivered = rt.progress(order=rng)
        assert delivered == 4
        np.testing.assert_array_equal(buf.on(2)[:4], [1, 2, 3, 4])

    def test_single_op_progress_draws_from_the_whole_queue(self, rt_delayed):
        """``progress(n_ops=1, order=rng)`` — the halo backend's stall step —
        picks any pending op, not the FIFO head, and each op goes out once."""
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (8,))
        sig = rt.signal_array("s", 8)
        landed = []
        sig.wake = lambda key: landed.append(key[2])
        for k in range(8):
            rt.put_signal_nbi(buf, 2, k, np.array([k + 1.0], np.float32), sig, k, 1, source_pe=0)
        rng = np.random.default_rng(3)
        while rt.n_pending:
            assert rt.progress(n_ops=1, order=rng) == 1
        assert sorted(landed) == list(range(8))
        assert landed != list(range(8))
        np.testing.assert_array_equal(buf.on(2), np.arange(1, 9))
        # Without ``order`` the queue drains FIFO.
        landed.clear()
        for k in range(8):
            rt.put_signal_nbi(buf, 2, k, np.array([0.0], np.float32), sig, k, 2, source_pe=0)
        while rt.n_pending:
            rt.progress(n_ops=1)
        assert landed == list(range(8))

    def test_signal_store_calls_wake_with_the_slot_key(self, rt):
        woken = []
        sig = rt.signal_array("s", 2, wake=woken.append)
        sig.release_store(1, 0, 5)
        sig.relaxed_store(3, 1, 5)
        assert woken == [sig.key(1, 0), sig.key(3, 1)] == [("s", 1, 0), ("s", 3, 1)]

    def test_partial_progress(self, rt_delayed):
        rt = rt_delayed
        buf = rt.symmetric_alloc("b", (8,))
        for k in range(3):
            rt.put(buf, 2, k, np.array([1.0], np.float32), source_pe=0)
        assert rt.progress(n_ops=2) == 2
        assert rt.n_pending == 1
        rt.barrier_all()
        assert rt.n_pending == 0


class TestSignalArrayAllocation:
    def test_signal_array_cached(self, rt):
        a = rt.signal_array("s", 3)
        b = rt.signal_array("s", 3)
        assert a is b

    def test_signal_array_size_conflict(self, rt):
        rt.signal_array("s", 3)
        with pytest.raises(ValueError):
            rt.signal_array("s", 4)
