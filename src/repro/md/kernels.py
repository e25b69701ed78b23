"""Registry of interchangeable non-bonded pair-search strategies.

Mirrors the backend/executor registry shape (see :mod:`repro.comm` and
:mod:`repro.par`): implementations register under a short name, callers
select one with a string, and unknown names fail with an actionable
error listing what is available.  Two implementations ship, and they
differ only in how a rank *finds* its pairs:

* ``"segment"`` — searches over atoms with the rank-local cell list.
  The algorithmically independent search ``tests/`` compare ``"cluster"``
  against.
* ``"cluster"`` — the default: the search of the GROMACS M×N
  cluster-pair scheme (Páll et al. 2020).  Atoms are sorted into
  ``CLUSTER_M``-atom clusters along a column grid, candidate cluster
  pairs are enumerated from that grid in linear time, halo–halo tiles
  no atom pair of which can pass the eighth-shell rule are cut, and the
  surviving tiles are evaluated exactly and extracted as flat pairs;
  layouts and tiles are build transients.

Both produce the same canonically ``(i, j)``-sorted flat ``int32``
outer lists (:class:`~repro.md.nonbonded.DualList`); the force phases
evaluate the :class:`~repro.md.nonbonded.PairBlock` inner lists pruned
from them (:mod:`repro.par.phases`) with
:func:`~repro.md.nonbonded.block_forces`, the one evaluator, which runs
each list in cache-sized chunks over one scratch per thread.

Every implementation accepts ``dtype="float32"`` — the documented fast
path: kernel-internal geometry and interaction math in float32, energy
sums and per-atom accumulation in float64.  Tolerance gates versus the
float64 reference live in ``tests/test_kernels.py`` and DESIGN.md.

The two searches are cross-checked against each other (identical pair
*sets*, identical per-pulse partition) and :func:`block_forces` against
the :func:`~repro.md.nonbonded.pair_forces` scatter oracle in
``tests/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.md.cells import (
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_pairs,
)
from repro.md.forcefield import ForceField
from repro.md.nonbonded import DualList, PairBlock, block_forces

#: Registry name -> implementation class.
kernel_registry: dict[str, type] = {}

#: Kernel compute precisions (``dtype`` option values).
KERNEL_DTYPES = ("float64", "float32")

#: Atoms per cluster in the ``"cluster"`` search (GROMACS' CPU/SIMD
#: cluster size; tiles are ``CLUSTER_M`` × ``CLUSTER_M`` slots).
CLUSTER_M = 4


def register_kernel(name: str):
    """Class decorator registering a :class:`KernelImpl` under ``name``."""

    def deco(cls: type) -> type:
        cls.name = name
        kernel_registry[name] = cls
        return cls

    return deco


def make_kernel(name: str, **options) -> "KernelImpl":
    """Instantiate a registered kernel implementation by name.

    Raises a ``KeyError`` naming the registered kernels when ``name`` is
    unknown — the same actionable-error convention as the backend and
    executor registries.
    """
    if name not in kernel_registry:
        raise KeyError(
            f"unknown kernel '{name}'; registered kernels: "
            f"{sorted(kernel_registry)}"
        )
    return kernel_registry[name](**options)


class KernelImpl:
    """One pair-search strategy at one compute precision.

    ``build_split(ws)`` runs the rank-local pair search over a
    :class:`~repro.par.phases.RankWorkspace`-shaped object and returns
    the keyword dict for :class:`~repro.par.phases.SplitPairs` (the
    local/non-local outer lists, per-pulse offsets, exclusion lists,
    stats).
    ``compute_block`` is the same for every strategy:
    :func:`~repro.md.nonbonded.block_forces` at this kernel's ``dtype``.
    """

    name = "abstract"

    def __init__(self, dtype: str = "float64") -> None:
        if dtype not in KERNEL_DTYPES:
            raise ValueError(
                f"unknown kernel dtype '{dtype}'; use one of {KERNEL_DTYPES}"
            )
        # Kept as the name, never as an ``np.dtype``: an instance of this
        # class reaches process workers by pickle, and an unpickled
        # ``np.dtype`` is a copy, not NumPy's singleton — scratch arrays
        # created with the copy run ~3 % slower through ``block_forces``,
        # which therefore keys and creates its scratch by this name.
        self.dtype = dtype

    def build_split(self, ws) -> dict:
        raise NotImplementedError

    def compute_block(
        self,
        positions: np.ndarray,
        block: PairBlock,
        ff: ForceField,
        *,
        box: np.ndarray | None = None,
        periodic: np.ndarray | None = None,
        out_forces: np.ndarray | None = None,
        coulomb: str = "rf",
        ewald_beta: float = 0.0,
    ) -> tuple[np.ndarray, float, float]:
        return block_forces(
            positions, block, ff,
            box=box, periodic=periodic, out_forces=out_forces,
            coulomb=coulomb, ewald_beta=ewald_beta, dtype=self.dtype,
        )


@register_kernel("segment")
class SegmentKernel(KernelImpl):
    """Flat cell-list search + sorted-pair segment reduction."""

    def build_split(self, ws) -> dict:
        cfg = ws.cfg
        pos = np.asarray(ws.pos, dtype=np.float64)
        r_list = cfg.r_comm
        periodic = cfg.periodic
        budget = BuildBudget(max_bytes=getattr(cfg, "max_build_bytes", None))
        cells = CellGrid.for_rank(pos, cfg.box, periodic, r_list)
        i, j = cells.pairs_within(pos, r_list, budget=budget)
        zs = ws.ns.zone_shift
        keep = np.all(np.minimum(zs[i], zs[j]) == 0, axis=1)
        i, j = i[keep], j[keep]

        # Exclusion (intramolecular) filtering is static per NS interval,
        # so it happens here rather than per step.
        if ws.ns.bonded is not None:
            mol = ws.ns.bonded["mol"]
            excl = mol[i] == mol[j]
            ei, ej = i[excl], j[excl]
            i, j = i[~excl], j[~excl]
        else:
            ei, ej = i[:0], j[:0]

        # Local split: pairs_within emits (i, j)-lexsorted pairs and
        # boolean masking preserves order, so both halves — and the
        # exclusion lists — stay sorted by (i, j).
        local_mask = (i < ws.ns.n_home) & (j < ws.ns.n_home)
        return _split_pairs(
            ws, budget, (i[local_mask], j[local_mask]),
            (i[~local_mask], j[~local_mask]), (ei, ej),
        )


@register_kernel("cluster")
class ClusterKernel(KernelImpl):
    """M×N cluster-pair search, extracted to flat pairs at build time.
    The default kernel of the DD engine and the spec."""

    def build_split(self, ws) -> dict:
        cfg = ws.cfg
        pos = np.asarray(ws.pos, dtype=np.float64)
        r_list = cfg.r_comm
        periodic = cfg.periodic
        box = np.asarray(cfg.box, dtype=np.float64)
        budget = BuildBudget(max_bytes=getattr(cfg, "max_build_bytes", None))
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
        halo_bits = _cluster_zone_bits(halo, nzbits)

        mol = ws.ns.bonded["mol"] if ws.ns.bonded is not None else None
        flat = []
        excl_i, excl_j = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        n_tiles = 0
        for a, b in ((home, home), (home, halo), (halo, halo)):
            same = a is b
            ci, cj = cluster_pair_candidates(
                a, b, r_list, box, periodic, same, budget=budget
            )
            if a is halo:
                keep = (halo_bits[ci] & halo_bits[cj]) == 0
                ci, cj = ci[keep], cj[keep]
            n_tiles += int(ci.size)
            pi, pj = cluster_tile_pairs(
                pos, a, b, ci, cj, r_list, box, periodic, same, budget=budget,
                zone_bits=nzbits if a is halo else None,
            )
            pi, pj = np.minimum(pi, pj), np.maximum(pi, pj)
            if mol is not None:
                excl = mol[pi] == mol[pj]
                excl_i.append(pi[excl])
                excl_j.append(pj[excl])
                pi, pj = pi[~excl], pj[~excl]
            flat.append((pi, pj))

        hh, hx, xx = flat
        # Canonical order for all that leaves the build: the exclusion
        # correction accumulates in list order, never the tile order.
        return _split_pairs(
            ws, budget, _sorted_pairs(*hh, stride),
            (np.concatenate([hx[0], xx[0]]), np.concatenate([hx[1], xx[1]])),
            _sorted_pairs(np.concatenate(excl_i), np.concatenate(excl_j), stride),
            n_candidates=budget.candidates, n_tiles=n_tiles,
        )


def _split_pairs(ws, budget: BuildBudget, local, nonlocal_, excl, **search_stats):
    """The :class:`~repro.par.phases.SplitPairs` keywords of one search:
    the outer lists, stored as ``int32``.

    ``local`` and ``excl`` are ``(i, j)`` in canonical order, ``nonlocal_``
    in any order (the per-pulse partition sorts it).
    """
    nh = ws.ns.n_home
    n = ws.pos.shape[0]
    ni, nj, pulse_offsets = _pulse_partition(ws, *nonlocal_)
    local = DualList(*(a.astype(np.int32) for a in local), rows=nh)
    nl = DualList(ni.astype(np.int32), nj.astype(np.int32), rows=n)
    ei, ej = excl
    el_mask = (ei < nh) & (ej < nh)
    return dict(
        local=local,
        nonlocal_=nl,
        pulse_offsets=pulse_offsets,
        excl_local=(ei[el_mask], ej[el_mask]),
        excl_nonlocal=(ei[~el_mask], ej[~el_mask]),
        stats={
            "n_local": local.n_pairs,
            "n_nonlocal": nl.n_pairs,
            "n_excluded": int(ei.size),
            "pulse_pairs": np.diff(pulse_offsets).tolist(),
            **search_stats,
            **_memory_stats(ws, budget, local.nbytes + nl.nbytes),
        },
    )


def _cluster_zone_bits(layout, nzbits: np.ndarray) -> np.ndarray:
    """Zone bits shared by *every* atom of each cluster, shape ``(C,)``
    (padding slots carry all bits, so they never clear one).  Two
    clusters whose shared bits intersect hold no pair the per-atom
    eighth-shell test would keep; the converse does not hold, so the
    per-atom test still decides on the tiles that survive."""
    bits = np.concatenate([nzbits, np.full(1, 7, dtype=np.uint8)])
    return np.bitwise_and.reduce(bits[layout.atoms], axis=1)


def _sorted_pairs(i: np.ndarray, j: np.ndarray, stride: np.int64):
    """Unique pairs in canonical ``(i, j)`` order: sorting the fused key
    ``i * stride + j`` and decoding it yields the arrays a
    ``lexsort((j, i))`` permutation would gather, without the gathers."""
    key = i * stride + j
    key.sort()
    return _split_key(key, stride)


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
    """Per-pulse partition of a non-local pair list (shared by kernels).

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
