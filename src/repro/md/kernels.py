"""The rank-local pair search: one M×N cluster-pair search per rank.

:func:`build_split` is the search of the GROMACS M×N cluster-pair
scheme (Páll et al. 2020), run end to end as one compiled pass per rank
(``pairsearch.c``, two C calls): the rank's grid bounds, home and halo
atoms sorted into ``CLUSTER_M``-atom clusters along a column grid,
candidate cluster pairs enumerated from that grid in linear time,
halo–halo tiles no atom pair of which can pass the eighth-shell rule cut,
the surviving tiles evaluated exactly, and the pairs counting-sorted into
the local and per-pulse non-local outer lists.  Only the zone bits, the
grid check and the output arrays are NumPy.

It produces canonically ``(i, j)``-sorted flat ``int32`` outer lists
(:class:`~repro.md.nonbonded.DualList`); the force phases evaluate the
:class:`~repro.md.nonbonded.PairBlock` inner lists pruned from them
(:mod:`repro.par.phases`) with :func:`~repro.md.nonbonded.block_forces`,
the one evaluator: compiled C, built for the host when a simulator is
made (:mod:`repro.md.native`), running each list in cache-sized chunks
over one scratch per thread, at either :data:`KERNEL_DTYPES` precision —
``"float32"`` is the documented fast path: geometry and interaction math
in float32, energy sums and per-atom accumulation in float64.

The search is held to the NumPy it replaced and to the serial
reference's list: ``tests/test_native.py`` (the compiled pass against
the ``build_split`` composition of ``tests/oracles.py``, byte for byte),
``tests/test_properties.py`` (those oracles against an O(N²) sweep) and
``tests/test_kernels.py`` (every rank's lists, mapped to global ids,
against :meth:`~repro.md.cells.CellList.pairs_within` over the whole
box: each pair on exactly one rank).
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.md import native
from repro.md.nonbonded import DualList

#: Kernel compute precisions (``kernel_dtype`` option values).
KERNEL_DTYPES = ("float64", "float32")

#: Zone bit of a nonzero zone shift along x, y, z.
_ZONE_BITS = np.array([1, 2, 4], dtype=np.uint8)

#: Outer pairs a search's buffer starts with per home row and per halo
#: row.  The grappa soup at the benchmark's ``r_comm`` (0.77 nm) lists
#: ≈74 home pairs per home row and 14–26 non-local pairs per halo row;
#: the compiled pass grows the buffer by a quarter whenever a tile might
#: not fit.
PAIRS_PER_HOME_ROW = 80
PAIRS_PER_HALO_ROW = 28


def load(dtype: str) -> None:
    """Check a kernel compute precision and load the compiled library.

    The simulators call this at construction, so an unknown dtype, or a
    host without a C compiler (:class:`~repro.md.native.CompilerNotFoundError`),
    fails in the parent rather than inside an executor worker.
    """
    if dtype not in KERNEL_DTYPES:
        raise ValueError(
            f"unknown kernel dtype '{dtype}'; use one of {KERNEL_DTYPES}"
        )
    native.library()


def _capacity(n_home: int, n: int) -> int:
    """Pairs the search's buffer starts with for ``n`` rows, ``n_home``
    of them home."""
    return PAIRS_PER_HOME_ROW * n_home + PAIRS_PER_HALO_ROW * (n - n_home)


def build_split(ws) -> dict:
    """The rank-local pair search over a
    :class:`~repro.par.phases.RankWorkspace`: the keyword dict for
    :class:`~repro.par.phases.SplitPairs` (the local/non-local outer
    lists, per-pulse offsets, stats).

    Two C calls: ``ps_rank_search`` searches and reports the list
    lengths, ``ps_rank_fill`` sorts into arrays allocated here at exact
    size and frees what the first one held.
    """
    cfg, ns = ws.cfg, ws.ns
    pos = np.ascontiguousarray(ws.pos, dtype=np.float64)
    box = np.ascontiguousarray(cfg.box, dtype=np.float64)
    r_list = float(cfg.r_comm)
    wrap = sum(1 << d for d in range(3) if cfg.periodic[d])
    # Minimum image needs a periodic extent of at least twice the radius.
    if any(wrap >> d & 1 and box[d] < 2.0 * r_list for d in range(3)):
        raise ValueError(
            f"periodic extent {box} must be >= 2*cutoff={2 * r_list} "
            f"along periodic dimensions"
        )
    n, nh = len(pos), ns.n_home
    # Eighth-shell zone rule as a bit test: bit d set = nonzero zone
    # shift along dim d; a pair is ours iff the bit sets are disjoint.
    bits = ((ns.zone_shift != 0) * _ZONE_BITS).sum(axis=1).astype(np.uint8)
    src = None if ns.src_pulse is None else np.ascontiguousarray(ns.src_pulse, np.int32)
    if (pos.shape != (n, 3) or bits.shape != (n,) or not 0 <= nh <= n
            or src is not None and src.shape != (n,)):
        raise ValueError(
            f"positions, zone shifts and src_pulse must cover all {n} rows, "
            f"{nh} of them home"
        )
    lib, addr = native.library(), native.address
    counts = np.zeros(6, np.int64)
    search = ctypes.c_void_p()
    status = lib.ps_rank_search(
        addr(pos), n, nh, addr(box), wrap, r_list, addr(bits),
        None if src is None else addr(src), ns.n_pulses, _capacity(nh, n),
        addr(counts), ctypes.byref(search),
    )
    if status:
        raise _ERRORS[status]()
    n_local, n_nonlocal, candidates, tiles, cells_bytes, peak_bytes = counts.tolist()
    out = None
    try:
        out = (
            *np.empty((2, n_local), np.int32), *np.empty((2, n_nonlocal), np.int32),
            np.empty(max(ns.n_pulses, 1) + 1, np.int64),
        )
    finally:  # the C side frees its buffers on every path
        args = (None,) * 5 if out is None else map(addr, out)
        status = lib.ps_rank_fill(search, *args)
    if status:
        raise _ERRORS[status]()
    li, lj, ni, nj, pulse_offsets = out
    local = DualList(li, lj, rows=nh)
    nl = DualList(ni, nj, rows=n)
    pairlist_bytes = local.nbytes + nl.nbytes
    return dict(
        local=local,
        nonlocal_=nl,
        pulse_offsets=pulse_offsets,
        stats={
            "n_local": n_local,
            "n_nonlocal": n_nonlocal,
            "pulse_pairs": np.diff(pulse_offsets).tolist(),
            "n_candidates": candidates,
            "n_tiles": tiles,
            # Per-rank build memory, carried home in the stats dict (the
            # only thing that crosses the executor boundary after a
            # search): the C pass's cluster layouts and the peak of its
            # other buffers, plus the outer lists; the ``pairs`` phase
            # adds the inner blocks it prunes from them.
            "pairlist_bytes": pairlist_bytes,
            "cells_bytes": cells_bytes,
            "build_peak_bytes": peak_bytes + cells_bytes + pairlist_bytes,
        },
    )


#: What a failed rank search raises, by the C status.
_ERRORS = {
    -1: lambda: ValueError("pair search: a position is not finite"),
    -2: lambda: ValueError("pair search: a src_pulse lies outside [-1, n_pulses)"),
    -3: MemoryError,
}
