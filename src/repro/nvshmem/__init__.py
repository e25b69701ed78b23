"""In-process PGAS runtime modelling the NVSHMEM API surface the paper uses.

Every PE owns a set of *symmetric* buffers (same name/shape on all PEs,
allocated collectively — the constraint that clashes with GROMACS' PP/PME
rank specialization, Sec. 5.3).  Remote access follows NVSHMEM semantics:

* :meth:`NvshmemRuntime.peer_rows` — ``nvshmem_ptr`` plus an offset: a
  direct load/store view of a peer's rows when the peer is NVLink-reachable
  (same node in the topology), ``None`` otherwise — the rows a direct
  store writes or a get reads, resolved once;
* :meth:`NvshmemRuntime.bind_put_signals` — ``nvshmem_float_put_signal_nbi``
  to peers on other nodes, resolved once into :class:`PendingOp` s that
  :meth:`NvshmemRuntime.post` issues: non-blocking, each signal update is
  delivered only after its data, and the source is read at delivery;
* signal objects with release/acquire stores and waits
  (``system_release_store`` / ``acquire_wait`` in the paper's Algorithm 5);
* ``quiet`` and a proxy queue that holds inter-node operations until
  progress, emulating NIC asynchrony so tests can interleave deliveries
  arbitrarily.
"""

from repro.nvshmem.heap import SymmetricBuffer, SymmetricHeap
from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime, PendingOp
from repro.nvshmem.signals import SignalArray, SignalError

__all__ = [
    "NodeTopology",
    "NvshmemRuntime",
    "PendingOp",
    "SignalArray",
    "SignalError",
    "SymmetricBuffer",
    "SymmetricHeap",
]
