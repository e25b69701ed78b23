"""NVSHMEM runtime: topology, peer views, bound put-with-signal ops, proxy delivery ordering."""

import typing

import numpy as np
import pytest

from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime, PendingOp


@pytest.fixture()
def rt():
    # 4 PEs, 2 per node: PEs {0,1} and {2,3} are NVLink-reachable pairs;
    # puts between the pairs wait in the proxy queue.
    return NvshmemRuntime(NodeTopology(n_pes=4, pes_per_node=2))


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
        (view,) = rt.peer_rows(buf, remote_pes=[1], local_pes=[0], offsets=[0], counts=[4])
        assert view.base is buf.on(1)

    def test_cross_node_gives_none(self, rt):
        """The isNVLinkAccess predicate: remote pointers only intra-node."""
        buf = rt.symmetric_alloc("b", (4,))
        assert rt.peer_rows(buf, [2, 3], [0, 1], [0, 0], [4, 4]) == [None, None]


class TestDataMovement:
    def test_put_lands_after_quiet(self, rt):
        """An inter-node put is issued, not delivered: it lands when the
        proxy queue drains."""
        buf = rt.symmetric_alloc("b", (4, 3))
        sig = rt.signal_array("s", 1)
        data = np.full((2, 3), 5.0, dtype=np.float32)
        (op,) = rt.bind_put_signals(
            buf, target_pes=[2], source_pes=[0], offsets=[1], srcs=[data], signal=sig, slots=[0]
        )
        rt.post(op, 1)
        assert rt.n_pending == 1
        assert np.all(buf.on(2) == 0.0)
        rt.quiet()
        np.testing.assert_array_equal(buf.on(2)[1:3], data)
        assert rt.n_pending == 0

    def test_put_bounds_checked(self, rt):
        """Checked at bind, against the target's own extent: the first op
        outside raises, naming its PE."""
        buf = rt.symmetric_alloc("b", (4, 3))
        sig = rt.signal_array("s", 1)
        rows = np.zeros((2, 3), np.float32)
        for offset in (3, -1):
            with pytest.raises(IndexError, match="on PE 3"):
                rt.bind_put_signals(buf, [2, 3], [0, 0], [0, offset], [rows, rows], sig, [0, 0])
        assert rt.bind_put_signals(buf, [], [], [], [], sig, []) == []
        assert rt.n_pending == 0

    def test_source_is_read_at_delivery(self, rt):
        """NVSHMEM's nbi contract: the source may be written again only
        after ``quiet``; a write between post and delivery lands."""
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 1)
        src = np.ones(2, dtype=np.float32)
        (op,) = rt.bind_put_signals(buf, [2], [0], [0], [src], sig, [0])
        assert op.src is src  # bound, not copied
        rt.post(op, 1)
        src[:] = 99.0
        rt.quiet()
        np.testing.assert_array_equal(buf.on(2)[:2], [99.0, 99.0])

    def test_bound_op_is_reused_across_quiets(self, rt):
        """One op per bind, posted once per exchange: each post carries its
        own signal value and the source as it is then."""
        buf = rt.symmetric_alloc("b", (2,))
        sig = rt.signal_array("s", 1)
        src = np.zeros(2, dtype=np.float32)
        (op,) = rt.bind_put_signals(buf, [3], [1], [0], [src], sig, [0])
        for epoch in (1, 2):
            src[:] = epoch
            rt.post(op, epoch)
            assert not sig.is_set(3, 0, epoch)
            rt.quiet()
            assert sig.acquire_check(3, 0, epoch)
            np.testing.assert_array_equal(buf.on(3), [epoch, epoch])

    def test_bind_put_signals_refuses_the_same_node(self, rt):
        """A proxied op crosses nodes: the PE itself and its NVLink peers
        are refused (those take :meth:`peer_rows` views), unknown PEs too."""
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 1)
        src = np.ones(1, np.float32)
        with pytest.raises(ValueError, match="on PE 2 from itself"):
            rt.bind_put_signals(buf, [3, 2], [0, 2], [0, 0], [src, src], sig, [0, 0])
        with pytest.raises(ValueError, match="on PE 1 from PE 0 on the same node"):
            rt.bind_put_signals(buf, [3, 1], [0, 0], [0, 0], [src, src], sig, [0, 0])
        with pytest.raises(ValueError, match="pe 4 out of range"):
            rt.bind_put_signals(buf, [4], [0], [0], [src], sig, [0])

    def test_get_same_node(self, rt):
        """A get reads the peer's rows through the view bind resolved: the
        peer's memory itself, so what it holds when read is what arrives."""
        buf = rt.symmetric_alloc("b", (4,))
        (view,) = rt.peer_rows(buf, [1], [0], [1], [2])
        buf.on(1)[:] = [1, 2, 3, 4]
        np.testing.assert_array_equal(view, [2, 3])

    def test_get_cross_node_forbidden(self, rt):
        """The NVLink store/get path has no view of a peer on another node
        (``nvshmem_ptr`` gives none): such peers are reached by put.  Nor
        is the far view bounds-checked: there is nothing to read."""
        buf = rt.symmetric_alloc("b", (4,))
        far, near = rt.peer_rows(buf, [2, 1], [0, 0], [9, 0], [1, 1])
        assert far is None and near is not None

    def test_peer_view_is_not_a_copy(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        (view,) = rt.peer_rows(buf, [1], [0], [0], [2])
        view[:] = 9
        np.testing.assert_array_equal(buf.on(1), [9, 9, 0, 0])

    def test_peer_view_refuses_the_pe_itself_and_unknown_pes(self, rt):
        """A view names another PE: a get through it can never alias the
        reader's own array."""
        buf = rt.symmetric_alloc("b", (4,))
        with pytest.raises(ValueError, match="PE 1 from itself"):
            rt.peer_rows(buf, [0, 1], [1, 1], [0, 0], [2, 2])
        with pytest.raises(ValueError, match="pe 4 out of range"):
            rt.peer_rows(buf, [4], [0], [0], [1])
        assert rt.peer_rows(buf, [], [], [], []) == []

    def test_direct_store(self, rt):
        """The pack lands in the peer's rows through the view: ``src[rows]
        + shift``; a view past the peer's extent is refused, one on another
        node is not checked; the store is counted when the caller says."""
        buf = rt.symmetric_alloc("b", (4, 3))
        view, _ = rt.peer_rows(buf, [1, 2], [0, 0], [2, 3], [2, 2])
        src = np.arange(12, dtype=np.float32).reshape(4, 3)
        rows = np.array([3, 0])
        np.add(src.take(rows, axis=0), np.float32(0.5), out=view)
        np.testing.assert_array_equal(buf.on(1)[2:], src[rows] + 0.5)
        for offset in (3, -1):
            with pytest.raises(IndexError, match="on PE 1"):
                rt.peer_rows(buf, [1], [0], [offset], [2])
        rt.count_ops(stores=1, gets=2, bytes_got=48, put_signals=3, bytes_put=24)
        stats = rt.stats
        assert (stats.direct_stores, stats.gets, stats.bytes_got) == (1, 2, 48)
        assert (stats.put_signals, stats.bytes_put) == (3, 24)


def _posted(rt, buf, sig, values, value=1, target_pe=2):
    """Bind and post one put-with-signal per value, op ``k`` into row and
    slot ``k`` of ``target_pe``; returns the ops."""
    n = len(values)
    ops = rt.bind_put_signals(
        buf, [target_pe] * n, [0] * n, range(n),
        [np.array([v], np.float32) for v in values], sig, range(n),
    )
    for op in ops:
        rt.post(op, value)
    return ops


class TestPutSignal:
    def test_signal_delivered_with_data(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 2)
        (op,) = rt.bind_put_signals(buf, [2], [0], [0], [np.ones(2, np.float32)], sig, [1])
        rt.post(op, 42)
        rt.progress()
        assert sig.acquire_check(2, 1, 42, needs_data=True)
        np.testing.assert_array_equal(buf.on(2)[:2], 1.0)

    def test_delayed_signal_never_before_data(self, rt):
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 1)
        (op,) = rt.bind_put_signals(buf, [2], [0], [0], [np.ones(2, np.float32)], sig, [0])
        rt.post(op, 7)
        # Pending: neither data nor signal visible.
        assert rt.n_pending == 1
        assert not sig.is_set(2, 0, 7)
        assert np.all(buf.on(2) == 0.0)
        rt.progress()
        # Delivered atomically in data-then-signal order.
        assert sig.acquire_check(2, 0, 7)
        np.testing.assert_array_equal(buf.on(2)[:2], 1.0)

    def test_intra_node_bypasses_proxy(self, rt):
        """Between NVLink peers nothing is queued: a store lands through
        the view at once, and a proxied op to that peer is refused."""
        buf = rt.symmetric_alloc("b", (4,))
        sig = rt.signal_array("s", 1)
        (view,) = rt.peer_rows(buf, [1], [0], [0], [1])
        view[:] = 1.0
        assert buf.on(1)[0] == 1.0 and rt.n_pending == 0  # same node: immediate
        with pytest.raises(ValueError, match="same node"):
            rt.bind_put_signals(buf, [1], [0], [0], [np.ones(1, np.float32)], sig, [0])

    def test_randomized_progress_order(self, rt):
        buf = rt.symmetric_alloc("b", (8,))
        sig = rt.signal_array("s", 4)
        _posted(rt, buf, sig, [1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(0)
        delivered = rt.progress(order=rng)
        assert delivered == 4
        np.testing.assert_array_equal(buf.on(2)[:4], [1, 2, 3, 4])

    def test_single_op_progress_draws_from_the_whole_queue(self, rt):
        """``progress(n_ops=1, order=rng)`` — the halo backend's stall step —
        picks any pending op, not the FIFO head, and each op goes out once."""
        buf = rt.symmetric_alloc("b", (8,))
        sig = rt.signal_array("s", 8)
        landed = []
        sig.wake = lambda key: landed.append(key[2])
        ops = _posted(rt, buf, sig, [k + 1.0 for k in range(8)])
        rng = np.random.default_rng(3)
        while rt.n_pending:
            assert rt.progress(n_ops=1, order=rng) == 1
        assert sorted(landed) == list(range(8))
        assert landed != list(range(8))
        np.testing.assert_array_equal(buf.on(2), np.arange(1, 9))
        # Without ``order`` the queue drains FIFO.
        landed.clear()
        for op in ops:
            rt.post(op, 2)
        while rt.n_pending:
            rt.progress(n_ops=1)
        assert landed == list(range(8))

    def test_single_op_progress_draws_once_per_op(self, rt):
        """One ``integers`` draw per delivered op, a lone pending op
        included: the seeded stream the schedule pins replay."""
        buf = rt.symmetric_alloc("b", (8,))
        sig = rt.signal_array("s", 8)
        _posted(rt, buf, sig, [1.0, 2.0, 3.0])
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        while rt.n_pending:
            rt.progress(n_ops=1, order=rng)
        for n in (3, 2, 1):
            twin.integers(n)
        assert rng.integers(1 << 30) == twin.integers(1 << 30)

    def test_signal_store_calls_wake_with_the_slot_key(self, rt):
        woken = []
        sig = rt.signal_array("s", 2, wake=woken.append)
        sig.release_store(1, 0, 5)
        sig.relaxed_store(3, 1, 5)
        assert woken == [sig.key(1, 0), sig.key(3, 1)] == [("s", 1, 0), ("s", 3, 1)]

    def test_partial_progress(self, rt):
        buf = rt.symmetric_alloc("b", (8,))
        sig = rt.signal_array("s", 3)
        _posted(rt, buf, sig, [1.0, 1.0, 1.0])
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


def test_public_method_annotations_resolve():
    """Every annotation of the runtime's public surface names something
    the module imports (annotations are lazy: only resolving them shows)."""
    for cls in (NvshmemRuntime, NodeTopology, PendingOp):
        for name, member in vars(cls).items():
            if callable(member) and not name.startswith("_") or name == "__init__":
                typing.get_type_hints(member)
