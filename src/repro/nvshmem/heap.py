"""Symmetric heap: collectively allocated, per-PE mirrored buffers.

NVSHMEM requires every symmetric allocation to be performed by *all* PEs
with identical sizes (``COMM_WORLD``-wide).  The paper hits this constraint
head-on: PP-only destination buffers would force redundant allocations on
PME ranks (Sec. 5.3).  We model the rule strictly — an allocation is only
usable once every PE has joined it — so the reproduction exhibits the same
failure mode (see ``tests/test_nvshmem_heap.py``).

``nvshmemx_buffer_register`` is also modelled: a *source* buffer may be a
registered non-symmetric array, matching the paper's note that only the
destination of a put must be symmetric.

Memory that already exists joins the heap through
:meth:`SymmetricHeap.register_symmetric`: the coordinate and force
buffers *are* the put destinations in the paper's fused exchange ("no
unpack kernel"), so the heap takes the ranks' own arrays rather than
handing out copies of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import METRICS


class SymmetricAllocationError(RuntimeError):
    """Violation of the collective symmetric-allocation contract."""


@dataclass
class SymmetricBuffer:
    """One named symmetric object: an array on every PE.

    Allocated buffers are identical on every PE; registered ones (see
    :meth:`SymmetricHeap.register_symmetric`) share dtype and trailing
    shape but keep each PE's own leading extent — ``shape`` then holds
    the largest, the size a real symmetric allocation would reserve.
    """

    name: str
    shape: tuple[int, ...]
    dtype: np.dtype
    arrays: list[np.ndarray]
    joined: list[bool]

    @property
    def n_pes(self) -> int:
        return len(self.arrays)

    @property
    def complete(self) -> bool:
        """True once every PE has performed the collective allocation."""
        return all(self.joined)

    def on(self, pe: int) -> np.ndarray:
        """The local array of PE ``pe`` (its own symmetric address)."""
        if not self.complete:
            missing = [i for i, j in enumerate(self.joined) if not j]
            raise SymmetricAllocationError(
                f"symmetric buffer '{self.name}' not yet allocated on PEs "
                f"{missing}: NVSHMEM allocations are collective over all PEs"
            )
        return self.arrays[pe]

    def nbytes(self) -> int:
        """Per-PE footprint (the largest PE's, for ragged extents)."""
        return max(a.nbytes for a in self.arrays)


class SymmetricHeap:
    """The collection of symmetric allocations across ``n_pes`` PEs."""

    def __init__(self, n_pes: int):
        if n_pes < 1:
            raise ValueError(f"n_pes must be positive, got {n_pes}")
        self.n_pes = n_pes
        self._buffers: dict[str, SymmetricBuffer] = {}
        self._registered: dict[int, list[np.ndarray]] = {}

    def alloc(
        self, pe: int, name: str, shape: tuple[int, ...], dtype=np.float32
    ) -> SymmetricBuffer:
        """PE ``pe`` joins the collective allocation of ``name``.

        All PEs must call with identical shape/dtype; the buffer becomes
        usable once the last PE joins.
        """
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"pe {pe} out of range")
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None:
            buf = SymmetricBuffer(
                name=name,
                shape=shape,
                dtype=dtype,
                arrays=[np.zeros(shape, dtype=dtype) for _ in range(self.n_pes)],
                joined=[False] * self.n_pes,
            )
            self._buffers[name] = buf
        if buf.shape != shape or buf.dtype != dtype:
            raise SymmetricAllocationError(
                f"PE {pe} allocated '{name}' with shape={shape} dtype={dtype}, "
                f"but the collective allocation is shape={buf.shape} "
                f"dtype={buf.dtype}: symmetric allocations must be identical"
            )
        if buf.joined[pe]:
            raise SymmetricAllocationError(f"PE {pe} already joined '{name}'")
        buf.joined[pe] = True
        if buf.complete:
            # The collective completes on the last join.
            self._account_alloc()
        return buf

    def _account_alloc(self) -> None:
        """One more complete symmetric object: count it and its footprint."""
        METRICS.counter("nvshmem.heap.allocs").inc()
        METRICS.gauge("nvshmem.heap.bytes").set(self.total_bytes())

    def alloc_all(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> SymmetricBuffer:
        """Convenience: all PEs join at once (the usual collective call)."""
        for pe in range(self.n_pes):
            buf = self.alloc(pe, name, shape, dtype)
        return buf

    def register_symmetric(
        self, name: str, arrays: Sequence[np.ndarray]
    ) -> SymmetricBuffer:
        """Make caller-owned per-PE arrays one symmetric object.

        Collective over all PEs in one call: ``arrays[pe]`` is PE
        ``pe``'s contribution, all of one dtype and trailing shape.
        Leading extents may differ; each PE's is its own array's, and
        ``on(pe)`` returns that very array — so one-sided operations
        land in the caller's memory and are bounds-checked against the
        *target* PE's extent.  Accounted like an allocation.
        """
        arrays = list(arrays)
        if len(arrays) != self.n_pes:
            raise SymmetricAllocationError(
                f"'{name}' registered for {len(arrays)} of {self.n_pes} PEs: "
                f"symmetric objects are collective over all PEs"
            )
        if name in self._buffers:
            raise SymmetricAllocationError(f"'{name}' already exists on this heap")
        dtype, trailing = arrays[0].dtype, arrays[0].shape[1:]
        for pe, arr in enumerate(arrays):
            if arr.dtype != dtype or arr.shape[1:] != trailing:
                raise SymmetricAllocationError(
                    f"PE {pe} registered '{name}' with dtype={arr.dtype} "
                    f"trailing shape={arr.shape[1:]}, but PE 0 has dtype={dtype} "
                    f"trailing shape={trailing}: only the leading extent may "
                    f"differ between PEs"
                )
        buf = SymmetricBuffer(
            name=name,
            shape=(max(a.shape[0] for a in arrays), *trailing),
            dtype=dtype,
            arrays=arrays,
            joined=[True] * self.n_pes,
        )
        self._buffers[name] = buf
        self._account_alloc()
        return buf

    def get(self, name: str) -> SymmetricBuffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise KeyError(f"no symmetric buffer named '{name}'") from None

    def register_buffer(self, pe: int, array: np.ndarray) -> np.ndarray:
        """``nvshmemx_buffer_register``: make a local array usable as a put/get
        *source* without symmetric allocation."""
        self._registered.setdefault(pe, []).append(array)
        METRICS.counter("nvshmem.heap.registered").inc()
        return array

    def is_registered(self, pe: int, array: np.ndarray) -> bool:
        return any(a is array for a in self._registered.get(pe, []))

    def total_bytes(self) -> int:
        """Symmetric heap footprint per PE (every PE holds every buffer)."""
        return sum(b.nbytes() for b in self._buffers.values())

    def names(self) -> list[str]:
        return sorted(self._buffers)
