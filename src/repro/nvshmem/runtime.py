"""The NVSHMEM-like runtime: PEs, topology, and one-sided operations.

Operations mirror the subset of NVSHMEM the paper's kernels use:

=====================  =====================================================
paper / NVSHMEM        here
=====================  =====================================================
``nvshmem_ptr``        :meth:`NvshmemRuntime.peer_rows` (views or ``None``)
TMA store / ``get``    through a :meth:`peer_rows` view, resolved at bind
``put_signal_nbi``     a :meth:`bind_put_signals` op, issued by :meth:`post`
``signal wait``        :class:`~repro.nvshmem.signals.SignalArray`
``quiet``              :meth:`quiet`
``barrier_all``        :meth:`barrier_all`
=====================  =====================================================

Both kinds of operation are resolved once, at bind; the caller counts them
once per exchange (:meth:`NvshmemRuntime.count_ops`).  Delivery model:
intra-node ("NVLink") stores and gets complete immediately, through a
mapped peer view.  Inter-node put-with-signals go through a per-PE *proxy
queue* (NVSHMEM's IB proxy thread): they stay pending until
:meth:`progress` or :meth:`quiet` runs, which lets tests drive arbitrary
interleavings while preserving the guarantee that a put's signal never
lands before its data.  Signals are strict: an acquire of data a relaxed
store published raises (:class:`~repro.nvshmem.signals.SignalArray`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.nvshmem.heap import SymmetricBuffer, SymmetricHeap
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS


@dataclass(frozen=True)
class NodeTopology:
    """Maps PEs to nodes; same-node peers are NVLink-reachable."""

    n_pes: int
    pes_per_node: int

    def __post_init__(self) -> None:
        if self.n_pes < 1 or self.pes_per_node < 1:
            raise ValueError("n_pes and pes_per_node must be positive")

    def node_of(self, pe: int) -> int:
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"pe {pe} out of range [0, {self.n_pes})")
        return pe // self.pes_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    @property
    def n_nodes(self) -> int:
        return -(-self.n_pes // self.pes_per_node)


class PendingOp:
    """One inter-node ``put_signal_nbi``, bound once
    (:meth:`NvshmemRuntime.bind_put_signals`) and posted once per exchange
    (:meth:`NvshmemRuntime.post`), which sets ``value``.

    Delivery copies ``src`` into ``dest`` (the target's rows), then
    release-stores ``value`` into ``signal[target_pe][slot]``: the signal
    never lands before its data.  ``src`` is read at delivery, not at post.
    """

    __slots__ = ("target_pe", "dest", "src", "signal", "slot", "value")

    def __init__(
        self, target_pe: int, dest: np.ndarray, src: np.ndarray, signal: SignalArray, slot: int
    ):
        self.target_pe = target_pe
        self.dest = dest
        self.src = src
        self.signal = signal
        self.slot = slot
        self.value = 0

    def deliver(self) -> None:
        np.copyto(self.dest, self.src)
        # Put-with-signal has release semantics for its own data.  Looked up
        # at call time: a mutation that patches ``SignalArray.release_store``
        # bites over InfiniBand too.
        self.signal.release_store(self.target_pe, self.slot, self.value)


@dataclass
class OpStats:
    """Operation counters, used by tests and the timing layer."""

    gets: int = 0
    put_signals: int = 0
    direct_stores: int = 0
    bytes_put: int = 0
    bytes_got: int = 0


class NvshmemRuntime:
    """All PEs of one job plus their symmetric heap and signal arrays."""

    #: Installed by :class:`repro.chaos.inject.ChaosInjector`; consulted at
    #: progress() time so runtimes created before or after injection both
    #: see it.  A drop fault makes the proxy skip a pending op once and
    #: requeue it at the back of the queue (a retried IB transport).
    _default_chaos = None

    def __init__(self, topology: NodeTopology):
        self.topology = topology
        self.heap = SymmetricHeap(topology.n_pes)
        self.stats = OpStats()
        self._signals: dict[str, SignalArray] = {}
        self._pending: list[PendingOp] = []
        # Registry instruments resolved once; each exchange pays one inc().
        self._m_gets = METRICS.counter("nvshmem.gets")
        self._m_put_signals = METRICS.counter("nvshmem.put_signals")
        self._m_direct_stores = METRICS.counter("nvshmem.direct_stores")
        self._m_bytes_put = METRICS.counter("nvshmem.bytes_put")
        self._m_bytes_got = METRICS.counter("nvshmem.bytes_got")

    @property
    def n_pes(self) -> int:
        return self.topology.n_pes

    # -- allocation -------------------------------------------------------------

    def symmetric_alloc(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> SymmetricBuffer:
        """Collective allocation by all PEs at once."""
        return self.heap.alloc_all(name, shape, dtype)

    def signal_array(
        self, name: str, n_signals: int, wake: Callable[[tuple], None] | None = None
    ) -> SignalArray:
        """Collective allocation of a symmetric signal array.

        ``wake`` is called with ``(name, pe, slot)`` after every store to
        a slot (see :class:`SignalArray`); fixed by the first allocation.
        """
        if name not in self._signals:
            self._signals[name] = SignalArray(
                name=name,
                n_pes=self.n_pes,
                n_signals=n_signals,
                wake=wake,
            )
        sig = self._signals[name]
        if sig.n_signals != n_signals:
            raise ValueError(
                f"signal array '{name}' already allocated with "
                f"{sig.n_signals} slots, requested {n_signals}"
            )
        return sig

    # -- addressing ---------------------------------------------------------------

    def peer_rows(
        self,
        buf: SymmetricBuffer,
        remote_pes: Sequence[int],
        local_pes: Sequence[int],
        offsets: Sequence[int],
        counts: Sequence[int],
    ) -> list[np.ndarray | None]:
        """``nvshmem_ptr`` plus an offset, for many views at once: view ``i``
        is rows [offsets[i], +counts[i]) of ``remote_pes[i]``'s ``buf`` seen
        from ``local_pes[i]``, or None if that peer is on another node
        (callers branch on it like the paper's ``isNVLinkAccess``).

        Resolved at bind, not per operation: a direct store packs into a
        view and a get reads from it (TMA through the mapped pointer,
        NVLink only in the paper).  A peer must be another PE, so a get
        never aliases the reader's own array; bounds are checked against
        the peer's own extent.  The caller counts the ops (:meth:`count_ops`).
        """
        if not len(remote_pes):
            return []
        remote, start, stop, near = self._peers(
            "view", buf, remote_pes, local_pes, offsets, counts
        )
        arrays = self._arrays_within("view", buf, remote, start, stop, near)
        bounds = zip(remote.tolist(), start.tolist(), stop.tolist(), near.tolist())
        return [arrays[pe][lo:hi] if ok else None for pe, lo, hi, ok in bounds]

    def _peers(
        self,
        op: str,
        buf: SymmetricBuffer,
        remote_pes: Sequence[int],
        local_pes: Sequence[int],
        offsets: Sequence[int],
        counts: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The checks every bind-time resolution shares, over all ops at
        once: each PE in range, none its own peer.  Returns the remote PEs,
        the row ranges' starts and stops, and whether each pair shares a
        node."""
        remote = np.asarray(remote_pes, dtype=np.int64)
        local = np.asarray(local_pes, dtype=np.int64)
        start = np.asarray(offsets, dtype=np.int64)
        stop = start + np.asarray(counts, dtype=np.int64)
        for pe in (remote.min(), remote.max(), local.min(), local.max()):
            self.topology.node_of(int(pe))  # raises for a PE out of range
        own = np.flatnonzero(remote == local)
        if own.size:
            raise ValueError(
                f"{op} of '{buf.name}' on PE {remote[own[0]]} from itself: a "
                f"peer must be another PE"
            )
        ppn = self.topology.pes_per_node
        return remote, start, stop, remote // ppn == local // ppn

    def _arrays_within(
        self,
        op: str,
        buf: SymmetricBuffer,
        remote: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
        checked: np.ndarray,
    ) -> list[np.ndarray]:
        """``buf``'s per-PE arrays, after one completeness check for all ops
        and a check of each ``checked`` op's rows against its remote PE's
        own extent (the first one outside raises, with :meth:`_rows`'
        message)."""
        buf.on(0)
        arrays = buf.arrays
        extent = np.array([a.shape[0] for a in arrays])[remote]
        outside = checked & ((start < 0) | (stop > extent))
        if outside.any():
            i = int(outside.argmax())
            self._rows(op, buf, int(remote[i]), int(start[i]), int(stop[i] - start[i]))
        return arrays

    def count_ops(
        self,
        stores: int = 0,
        gets: int = 0,
        bytes_got: int = 0,
        put_signals: int = 0,
        bytes_put: int = 0,
    ) -> None:
        """Count direct stores and gets made through :meth:`peer_rows` views
        and posted :meth:`bind_put_signals` ops (one call per exchange, with
        totals fixed when the views and ops were)."""
        stats = self.stats
        stats.direct_stores += stores
        stats.gets += gets
        stats.bytes_got += bytes_got
        stats.put_signals += put_signals
        stats.bytes_put += bytes_put
        self._m_direct_stores.inc(stores)
        self._m_gets.inc(gets)
        self._m_bytes_got.inc(bytes_got)
        self._m_put_signals.inc(put_signals)
        self._m_bytes_put.inc(bytes_put)

    # -- one-sided data movement ---------------------------------------------------

    @staticmethod
    def _rows(op: str, buf: SymmetricBuffer, pe: int, offset: int, count: int) -> np.ndarray:
        """PE ``pe``'s array of ``buf``, rows [offset, offset+count) checked
        against that PE's own extent (registered buffers may be ragged)."""
        arr = buf.on(pe)
        if offset < 0 or offset + count > arr.shape[0]:
            raise IndexError(
                f"{op} of {count} rows at offset {offset} exceeds '{buf.name}' "
                f"on PE {pe} (shape {arr.shape})"
            )
        return arr

    def bind_put_signals(
        self,
        buf: SymmetricBuffer,
        target_pes: Sequence[int],
        source_pes: Sequence[int],
        offsets: Sequence[int],
        srcs: Sequence[np.ndarray],
        signal: SignalArray,
        slots: Sequence[int],
    ) -> list[PendingOp]:
        """``nvshmem_float_put_signal_nbi`` resolved at bind, for many ops at
        once: op ``i`` puts ``srcs[i]`` from ``source_pes[i]`` into rows
        [offsets[i], +len(srcs[i])) of ``target_pes[i]``'s ``buf``, then
        signals ``signal[target_pes[i]][slots[i]]``.  :meth:`post` issues it.

        Each target must be on another node than its source (an NVLink
        peer is reached through a :meth:`peer_rows` view); bounds are
        checked against the target's own extent.  NVSHMEM's nbi contract
        holds for the source: the proxy reads it at delivery, so the caller
        may write it again only after :meth:`quiet`.
        """
        if not len(srcs):
            return []
        counts = [src.shape[0] for src in srcs]
        target, start, stop, near = self._peers(
            "put_signal", buf, target_pes, source_pes, offsets, counts
        )
        if near.any():
            i = int(near.argmax())
            raise ValueError(
                f"put_signal of '{buf.name}' on PE {target[i]} from PE "
                f"{source_pes[i]} on the same node: a proxied op must cross "
                f"nodes (NVLink peers take peer_rows views)"
            )
        arrays = self._arrays_within("put_signal", buf, target, start, stop, ~near)
        ops = zip(target.tolist(), start.tolist(), stop.tolist(), srcs, slots)
        return [
            PendingOp(pe, arrays[pe][lo:hi], src, signal, slot) for pe, lo, hi, src, slot in ops
        ]

    def post(self, op: PendingOp, value: int) -> None:
        """Issue a bound put-with-signal carrying ``value``: non-blocking, it
        waits in the proxy queue.  An op is posted at most once between two
        :meth:`quiet` calls; the caller counts it (:meth:`count_ops`)."""
        op.value = value
        self._pending.append(op)

    # -- ordering / progress ----------------------------------------------------------

    def progress(self, n_ops: int | None = None, order: np.random.Generator | None = None) -> int:
        """Deliver pending inter-node operations (the proxy thread's job).

        Without ``order`` the first ``n_ops`` of the queue go out, FIFO.
        With ``order`` the ``n_ops`` are drawn at random from the *whole*
        queue and delivered in that random order (NVSHMEM orders nothing
        between unfenced operations); each operation's own data-then-signal
        ordering is preserved regardless.  Returns the number delivered.
        """
        pending = self._pending
        if not pending:
            return 0
        chaos = NvshmemRuntime._default_chaos
        n = len(pending) if n_ops is None else min(n_ops, len(pending))
        if order is None:
            todo = pending[:n]
            del pending[:n]
        else:
            todo = [pending.pop(int(order.integers(len(pending)))) for _ in range(n)]
        for op in todo:
            if chaos is not None and chaos.drop_op(op):
                # Requeued at the back: a retried IB transport.
                pending.append(op)
            else:
                op.deliver()
        # A requeued (dropped-once) op counts as processed: the transport
        # made progress (the retry is queued), so stall loops stay live.
        return n

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def quiet(self) -> None:
        """``nvshmem_quiet``: complete all outstanding operations.

        Loops because a dropped-then-requeued op (chaos drop fault) is
        still outstanding after one progress pass; quiet must not return
        while anything is pending.
        """
        while self._pending:
            self.progress()

    def barrier_all(self) -> None:
        """Complete all pending traffic (the synchronizing half of a barrier;
        control arrival is implicit for in-process PEs)."""
        self.quiet()
