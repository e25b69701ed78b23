"""The NVSHMEM-like runtime: PEs, topology, and one-sided operations.

Operations mirror the subset of NVSHMEM the paper's kernels use:

=====================  =====================================================
paper / NVSHMEM        here
=====================  =====================================================
``nvshmem_ptr``        :meth:`NvshmemRuntime.ptr` (view or ``None``)
``put`` / ``get``      :meth:`put` / :meth:`get`
``put_signal_nbi``     :meth:`put_signal_nbi` (signal delivered after data)
``signal wait``        :class:`~repro.nvshmem.signals.SignalArray`
``fence`` / ``quiet``  :meth:`fence` / :meth:`quiet`
``barrier_all``        :meth:`barrier_all`
=====================  =====================================================

Delivery model: intra-node ("NVLink") operations complete immediately, like
direct stores through a mapped peer pointer.  Inter-node operations go
through a per-PE *proxy queue* (NVSHMEM's IB proxy thread): with
``delay_delivery=True`` they stay pending until :meth:`progress` runs, which
lets tests drive arbitrary interleavings while preserving the guarantee that
a put's signal never lands before its data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


@dataclass
class PendingOp:
    """A queued one-sided operation awaiting proxy progress."""

    kind: str  # "put" | "put_signal"
    target_pe: int
    apply_data: Callable[[], None]
    apply_signal: Callable[[], None] | None = None
    nbytes: int = 0

    def deliver(self) -> None:
        self.apply_data()
        if self.apply_signal is not None:
            self.apply_signal()


@dataclass
class OpStats:
    """Operation counters, used by tests and the timing layer."""

    puts: int = 0
    gets: int = 0
    put_signals: int = 0
    direct_stores: int = 0
    bytes_put: int = 0
    bytes_got: int = 0
    signals_set: int = 0


class NvshmemRuntime:
    """All PEs of one job plus their symmetric heap and signal arrays."""

    #: Installed by :class:`repro.chaos.inject.ChaosInjector`; consulted at
    #: progress() time so runtimes created before or after injection both
    #: see it.  A drop fault makes the proxy skip a pending op once and
    #: requeue it at the back of the queue (a retried IB transport).
    _default_chaos = None

    def __init__(
        self,
        topology: NodeTopology,
        delay_delivery: bool = False,
        strict_signals: bool = True,
    ):
        self.topology = topology
        self.heap = SymmetricHeap(topology.n_pes)
        self.delay_delivery = delay_delivery
        self.strict_signals = strict_signals
        self.stats = OpStats()
        self._signals: dict[str, SignalArray] = {}
        self._pending: list[PendingOp] = []
        # Registry instruments resolved once; the ops only pay an inc().
        self._m_puts = METRICS.counter("nvshmem.puts")
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
                strict=self.strict_signals,
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

    def ptr(self, buf: SymmetricBuffer, remote_pe: int, local_pe: int) -> np.ndarray | None:
        """``nvshmem_ptr``: direct view of a peer's buffer, or None.

        Non-None only when the peer is NVLink-reachable (same node); callers
        branch on this exactly like the paper's ``isNVLinkAccess`` predicate.
        """
        if self.topology.same_node(local_pe, remote_pe):
            return buf.on(remote_pe)
        return None

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

    def put(
        self,
        buf: SymmetricBuffer,
        target_pe: int,
        offset: int,
        data: np.ndarray,
        source_pe: int,
    ) -> None:
        """Contiguous put into ``buf`` rows [offset, offset+len) on the peer."""
        data = np.array(data, copy=True)  # capture the source at issue time
        dest = self._rows("put", buf, target_pe, offset, data.shape[0])
        self.stats.puts += 1
        self.stats.bytes_put += data.nbytes
        self._m_puts.inc()
        self._m_bytes_put.inc(data.nbytes)
        op = PendingOp(
            kind="put",
            target_pe=target_pe,
            apply_data=lambda: dest.__setitem__(slice(offset, offset + data.shape[0]), data),
            nbytes=data.nbytes,
        )
        self._submit(op, source_pe, target_pe)

    def get(
        self,
        buf: SymmetricBuffer,
        source_pe_remote: int,
        offset: int,
        count: int,
        local_pe: int,
    ) -> np.ndarray:
        """Blocking get of rows [offset, offset+count) from a peer.

        The paper uses device-initiated *gets* (TMA bulk loads through the
        mapped pointer) only on the NVLink path, so gets require
        reachability; attempting one across nodes raises.
        """
        if not self.topology.same_node(local_pe, source_pe_remote):
            raise RuntimeError(
                f"get from PE {source_pe_remote} by PE {local_pe}: the "
                f"NVLink get path requires same-node peers (use put over IB)"
            )
        src = self._rows("get", buf, source_pe_remote, offset, count)
        self.stats.gets += 1
        out = np.array(src[offset : offset + count], copy=True)
        self.stats.bytes_got += out.nbytes
        self._m_gets.inc()
        self._m_bytes_got.inc(out.nbytes)
        return out

    def put_signal_nbi(
        self,
        buf: SymmetricBuffer,
        target_pe: int,
        offset: int,
        data: np.ndarray,
        signal: SignalArray,
        signal_idx: int,
        signal_value: int,
        source_pe: int,
    ) -> None:
        """``nvshmem_float_put_signal_nbi``: data, then signal, non-blocking.

        NVSHMEM guarantees the signal update becomes visible only after the
        put's data; both may be arbitrarily delayed (they ride the proxy).
        """
        data = np.array(data, copy=True)
        dest = self._rows("put_signal", buf, target_pe, offset, data.shape[0])
        self.stats.put_signals += 1
        self.stats.bytes_put += data.nbytes
        self.stats.signals_set += 1
        self._m_put_signals.inc()
        self._m_bytes_put.inc(data.nbytes)
        op = PendingOp(
            kind="put_signal",
            target_pe=target_pe,
            apply_data=lambda: dest.__setitem__(slice(offset, offset + data.shape[0]), data),
            # put-with-signal has release semantics for its own data.
            apply_signal=lambda: signal.release_store(target_pe, signal_idx, signal_value),
            nbytes=data.nbytes,
        )
        self._submit(op, source_pe, target_pe)

    def direct_store(
        self,
        view: np.ndarray,
        offset: int,
        data: np.ndarray,
    ) -> None:
        """Store through an ``nvshmem_ptr`` view (NVLink TMA store path)."""
        if view is None:
            raise ValueError("direct_store requires an NVLink-reachable pointer")
        view[offset : offset + data.shape[0]] = data
        self.stats.direct_stores += 1
        self._m_direct_stores.inc()

    # -- ordering / progress ----------------------------------------------------------

    def _submit(self, op: PendingOp, source_pe: int, target_pe: int) -> None:
        if self.delay_delivery and not self.topology.same_node(source_pe, target_pe):
            self._pending.append(op)
        else:
            op.deliver()

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

    def fence(self) -> None:
        """``nvshmem_fence``: order operations; a no-op here, since the only
        ordering callers rely on — a put's data before its own signal — is
        held per operation under any delivery order."""

    def barrier_all(self) -> None:
        """Complete all pending traffic (the synchronizing half of a barrier;
        control arrival is implicit for in-process PEs)."""
        self.quiet()
