"""The rank-local pair search: one M×N cluster-pair search.

:func:`build_split` is the search of the GROMACS M×N cluster-pair
scheme (Páll et al. 2020).  Atoms are sorted into ``CLUSTER_M``-atom
clusters along a column grid, candidate cluster pairs are enumerated
from that grid in linear time, halo–halo tiles no atom pair of which
can pass the eighth-shell rule are cut, and the surviving tiles are
evaluated exactly and extracted as flat pairs — one compiled pass per
layout pair (:func:`~repro.md.cells.cluster_pairs`, ``pairsearch.c``)
held to the NumPy stages it replaced; layouts and the pass's output
buffer are build transients.

It produces canonically ``(i, j)``-sorted flat ``int32`` outer lists
(:class:`~repro.md.nonbonded.DualList`); the force phases evaluate the
:class:`~repro.md.nonbonded.PairBlock` inner lists pruned from them
(:mod:`repro.par.phases`) with :func:`~repro.md.nonbonded.block_forces`,
the one evaluator: compiled C, built for the host when a simulator is
made (:mod:`repro.md.native`), running each list in cache-sized chunks
over one scratch per thread, at either :data:`KERNEL_DTYPES` precision —
``"float32"`` is the documented fast path: geometry and interaction math
in float32, energy sums and per-atom accumulation in float64.

The search is held to brute force, to its NumPy stages and to the serial
reference's list: ``tests/test_properties.py`` (the stages against an
O(N²) sweep), ``tests/test_native.py`` (the compiled pass against the
stages) and ``tests/test_kernels.py`` (every rank's lists, mapped to
global ids, against :meth:`~repro.md.cells.CellList.pairs_within` over
the whole box: each pair on exactly one rank).
"""

from __future__ import annotations

import numpy as np

from repro.md import native
from repro.md.cells import (
    CLUSTER_M,
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pairs,
)
from repro.md.nonbonded import DualList

#: Kernel compute precisions (``kernel_dtype`` option values).
KERNEL_DTYPES = ("float64", "float32")


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


def build_split(ws) -> dict:
    """The rank-local pair search over a
    :class:`~repro.par.phases.RankWorkspace`: the keyword dict for
    :class:`~repro.par.phases.SplitPairs` (the local/non-local outer
    lists, per-pulse offsets, stats)."""
    cfg = ws.cfg
    pos = np.asarray(ws.pos, dtype=np.float64)
    r_list = cfg.r_comm
    periodic = cfg.periodic
    box = np.asarray(cfg.box, dtype=np.float64)
    budget = BuildBudget()
    # The rank-local grid pins the home+halo extent the cluster
    # layouts cover; clusters are binned over the same bounds.
    grid = CellGrid.for_rank(pos, box, periodic, r_list)
    nh = ws.ns.n_home
    n = pos.shape[0]
    stride = np.int64(n + 1)

    # Home and halo atoms get separate cluster layouts over rows
    # [0, nh) and [nh, n): home-home tiles are then exactly the local
    # (overlap-eligible) work and the two halo-touching groups the
    # non-local work, so the local/non-local split is a property of
    # the layout rather than a post-hoc filter.
    home = build_clusters(pos[:nh], grid.lo, grid.hi, CLUSTER_M, n_total=n)
    halo = build_clusters(
        pos[nh:], grid.lo, grid.hi, CLUSTER_M, index_offset=nh, n_total=n
    )
    budget.note_cells(home.nbytes + halo.nbytes)

    # Eighth-shell zone rule as a bit test: bit d set = nonzero zone
    # shift along dim d; a pair is ours iff the bit sets are disjoint.
    # Home bits are zero, so only halo-halo tiles need it — and most
    # fail it whole: a bit all atoms of both clusters carry.
    zs = ws.ns.zone_shift
    nzbits = (
        ((zs != 0) * np.array([1, 2, 4], dtype=np.uint8)).sum(axis=1)
    ).astype(np.uint8)

    flat = []
    for a, b in ((home, home), (home, halo), (halo, halo)):
        key = cluster_pairs(
            pos, a, b, r_list, box, periodic, budget,
            zone_bits=nzbits if a is halo else None,
        )
        if a is b is home:
            # Canonical order for all that leaves the build: the
            # evaluator sums in list order, never the search's, and the
            # step pins fix that order.
            key.sort()
        flat.append(_split_key(key, stride))

    hh, hx, xx = flat
    return _split_pairs(
        ws, budget, hh,
        (np.concatenate([hx[0], xx[0]]), np.concatenate([hx[1], xx[1]])),
    )


def _split_pairs(ws, budget: BuildBudget, local, nonlocal_):
    """The :class:`~repro.par.phases.SplitPairs` keywords of one search:
    the outer lists, stored as ``int32``.

    ``local`` is ``(i, j)`` in canonical order, ``nonlocal_`` in any
    order (the per-pulse partition sorts it).
    """
    nh = ws.ns.n_home
    n = ws.pos.shape[0]
    ni, nj, pulse_offsets = _pulse_partition(ws, *nonlocal_)
    local = DualList(*(a.astype(np.int32) for a in local), rows=nh)
    nl = DualList(ni.astype(np.int32), nj.astype(np.int32), rows=n)
    return dict(
        local=local,
        nonlocal_=nl,
        pulse_offsets=pulse_offsets,
        stats={
            "n_local": local.n_pairs,
            "n_nonlocal": nl.n_pairs,
            "pulse_pairs": np.diff(pulse_offsets).tolist(),
            "n_candidates": budget.candidates,
            "n_tiles": budget.tiles,
            **_memory_stats(ws, budget, local.nbytes + nl.nbytes),
        },
    )


def _split_key(key: np.ndarray, stride: np.int64):
    """``(hi, lo)`` of a fused key ``hi * stride + lo``."""
    hi = key // stride
    return hi, key - hi * stride


def _memory_stats(ws, budget: BuildBudget, pairlist_bytes: int) -> dict:
    """Per-rank build-memory accounting carried home in the stats dict.

    The stats dict is the only thing that crosses the executor boundary
    after a pair search, so this is how worker-process builds report
    memory back to the engine (which folds it into ``md.*`` gauges).
    ``build_peak_bytes`` is the largest transient working set plus the
    standing structures — the number the per-atom budget in CI is
    asserted on.  Both count the outer lists here; the ``pairs`` phase
    adds the inner blocks it prunes from them.
    """
    return {
        "pairlist_bytes": int(pairlist_bytes),
        "cells_bytes": int(budget.cells_bytes),
        "build_peak_bytes": int(
            budget.peak_bytes + budget.cells_bytes + pairlist_bytes
        ),
    }


def _pulse_partition(ws, ni: np.ndarray, nj: np.ndarray):
    """Per-pulse partition of a non-local pair list.

    A non-local pair is computable once the latest pulse that delivered
    either atom has arrived (``src_pulse`` is -1 for home atoms, so
    ``max`` picks the halo dependency).  Returns ``(ni, nj,
    pulse_offsets)`` sorted by ``(req, i, j)`` — the paper's
    ``depOffset`` dependency partition.
    """
    sp = ws.ns.src_pulse
    n_pulses = ws.ns.n_pulses
    if sp is not None and ni.size:
        req = np.maximum(sp[ni], sp[nj]).astype(np.int64)
    else:
        req = np.zeros(ni.size, dtype=np.int64)
    # One sort of the fused (req, i, j) key, decoded afterwards: (i, j)
    # pairs are unique, so this is the three-pass lexsort's order.
    stride = np.int64(ws.pos.shape[0] + 1)
    key = (req * stride + ni) * stride + nj
    key.sort()
    req, key = _split_key(key, stride * stride)
    ni, nj = _split_key(key, stride)
    pulse_offsets = np.searchsorted(req, np.arange(max(n_pulses, 1) + 1))
    return ni, nj, pulse_offsets
