"""Halo-exchange communication backends.

Two interchangeable implementations of the coordinate/force halo
exchange, bit-identical in results:

* :class:`~repro.comm.reference.ReferenceBackend` — the synchronous
  serialized reference exchange (lock-step pulses), the engine default
  and the oracle every test and chaos campaign compares against;
* :class:`~repro.comm.nvshmem_backend.NvshmemBackend` — GPU-initiated fused
  kernels over the :mod:`repro.nvshmem` runtime: all pulses in flight
  concurrently, per-pulse signals, dependency partitioning (``depOffset``),
  NVLink direct stores / gets vs InfiniBand staged put-with-signal
  (Algorithms 3-6).

The paper's MPI and thread-MPI baselines are timing questions, answered by
the schedules in :mod:`repro.sched`.
"""

from repro.comm.base import HaloBackend, backend_registry, make_backend
from repro.comm.nvshmem_backend import NvshmemBackend
from repro.comm.reference import ReferenceBackend
from repro.comm.scheduler import CooperativeScheduler, DeadlockError, Wait

__all__ = [
    "CooperativeScheduler",
    "DeadlockError",
    "HaloBackend",
    "NvshmemBackend",
    "ReferenceBackend",
    "Wait",
    "backend_registry",
    "make_backend",
]
