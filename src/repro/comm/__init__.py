"""Halo-exchange communication backends.

Interchangeable implementations of the coordinate/force halo exchange,
all bit-identical in results but structurally mirroring the paper:

* :class:`~repro.comm.reference.ReferenceBackend` — the synchronous
  serialized reference exchange (lock-step pulses), the engine default;
* :class:`~repro.comm.mpi_backend.MpiBackend` — CPU-initiated, serialized
  pulses, pack / sendrecv / unpack per pulse (Fig. 1's structure);
* :class:`~repro.comm.threadmpi_backend.ThreadMpiBackend` — event-driven
  direct DMA copies between ranks (GROMACS' thread-MPI scheme);
* :class:`~repro.comm.nvshmem_backend.NvshmemBackend` — GPU-initiated fused
  kernels over the :mod:`repro.nvshmem` runtime: all pulses in flight
  concurrently, per-pulse signals, dependency partitioning (``depOffset``),
  NVLink direct stores / gets vs InfiniBand staged put-with-signal
  (Algorithms 3-6).
"""

from repro.comm.base import HaloBackend, backend_registry, make_backend
from repro.comm.mpi_backend import MpiBackend
from repro.comm.nvshmem_backend import NvshmemBackend
from repro.comm.reference import ReferenceBackend
from repro.comm.scheduler import CooperativeScheduler, DeadlockError, Wait
from repro.comm.threadmpi_backend import ThreadMpiBackend

__all__ = [
    "CooperativeScheduler",
    "DeadlockError",
    "HaloBackend",
    "MpiBackend",
    "NvshmemBackend",
    "ReferenceBackend",
    "ThreadMpiBackend",
    "Wait",
    "backend_registry",
    "make_backend",
]
