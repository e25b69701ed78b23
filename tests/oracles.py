"""The NumPy the compiled rank search replaced: its oracles.

``repro.md.kernels.build_split`` runs one rank's whole M×N cluster-pair
search in ``pairsearch.c``.  It was written from the NumPy stages below,
and :func:`build_split` here composes them as the rank search did before
it was compiled: :meth:`CellGrid.for_rank`'s bounds, :func:`build_clusters`
for the home and the halo rows, :func:`cluster_pair_candidates`, the
cluster zone cut of :func:`_cluster_zone_bits` and
:func:`cluster_tile_pairs` per layout pair, the key sort and
:func:`_pulse_partition`.  ``tests/test_native.py`` holds the compiled
pass to it byte for byte; ``tests/test_properties.py`` holds the stages
to brute force.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.md.cells import CLUSTER_M, BuildBudget, CellList
from repro.md.nonbonded import DualList

#: Chunk lengths of the NumPy oracles' streamed stages (``a`` clusters,
#: candidates, tiles of :func:`cluster_pair_candidates` and
#: :func:`cluster_tile_pairs`), sized for cache behaviour.  They never
#: change a result, only the oracles' working set.
CHUNK_A_CLUSTERS = 256
CHUNK_CANDIDATES = 1 << 16
CHUNK_TILES = 4096


class CellGrid(CellList):
    """A rank-local cell grid covering exactly one rank's home+halo extent.

    The rank-side counterpart of
    :func:`~repro.md.cells.periodic_cell_list`: along
    dimensions the domain decomposition does not split the grid spans
    the periodic box, along decomposed dimensions it spans only the
    bounding box of the rank's local atoms (home + halo, which carry
    explicit shifts there).  Every structure it allocates is therefore
    sized by the *local* atom count — the rank never touches an
    O(N_global) array on the build path.
    """

    @classmethod
    def for_rank(
        cls,
        positions: np.ndarray,
        box: np.ndarray,
        periodic: np.ndarray,
        r_list: float,
    ) -> "CellGrid":
        """Grid over the home+halo extent of ``positions`` (local rows)."""
        positions = np.asarray(positions, dtype=np.float64)
        box = np.asarray(box, dtype=np.float64)
        periodic = np.asarray(periodic, dtype=bool)
        lo = np.where(periodic, 0.0, positions.min(axis=0) - 1e-9)
        hi = np.where(periodic, box, positions.max(axis=0) + 1e-9)
        hi = np.maximum(hi, lo + r_list)
        return cls(lo=lo, hi=hi, cutoff=r_list, periodic=periodic)


@dataclass
class ClusterLayout:
    """Atoms grouped into fixed-size clusters along the spatial ordering.

    This is the layout under the M×N cluster-pair scheme (Páll et al.
    2020): atoms are binned into x/y columns sized so an ``m``-atom
    cluster is roughly cubic at the local density, sorted by z within
    each column, and chunked into clusters of ``m`` consecutive atoms.
    Clusters never straddle columns — each column pads its last cluster
    instead — which keeps bounding boxes tight.

    Clusters are numbered column by column and, within a column, by
    rising z, so ``col`` is non-decreasing and both faces of the
    bounding boxes rise with the cluster index inside a column — the
    two orderings :func:`cluster_pair_candidates` searches.

    ``atoms`` holds *global* atom indices with the sentinel ``n_total``
    in padding slots, so a position array padded with one extra row can
    be gathered with ``positions_padded[atoms]`` without branching.
    """

    atoms: np.ndarray    # (C, m) int64; padding slots hold ``n_total``
    centers: np.ndarray  # (C, 3) float64 bounding-box midpoints
    half: np.ndarray     # (C, 3) float64 bounding-box half extents
    m: int
    n_total: int         # sentinel value (rows in the padded position array)
    col: np.ndarray      # (C,) int64 column ``cx * ny + cy`` of each cluster
    nx: int              # columns along x ...
    ny: int              # ... and y, binned by :func:`_column_bins` over
    lo: np.ndarray       # (3,) this origin
    ext: np.ndarray      # (3,) and this extent

    @property
    def n_clusters(self) -> int:
        return int(self.atoms.shape[0])

    @property
    def nbytes(self) -> int:
        """Layout footprint (feeds the ``md.cells.bytes`` accounting)."""
        return int(
            self.atoms.nbytes + self.centers.nbytes + self.half.nbytes
            + self.col.nbytes
        )


def _column_bins(x: np.ndarray, lo: float, ext: float, n: int) -> np.ndarray:
    """Column index along one axis: clipped to the grid and monotone in
    ``x``, so the bins of an interval's end points bracket the bin of
    every point inside it, wherever the grid's bounds lie."""
    return np.clip(((x - lo) / ext * n).astype(np.int64), 0, n - 1)


def build_clusters(
    positions: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    m: int,
    *,
    index_offset: int = 0,
    n_total: int | None = None,
) -> ClusterLayout:
    """Group ``positions`` rows into :class:`ClusterLayout` clusters of ``m``.

    ``positions`` may be a subset of a larger array (e.g. only the halo
    rows): ``index_offset`` maps subset row ``k`` to global index
    ``k + index_offset`` and ``n_total`` sets the padding sentinel (the
    row count of the full array).  Column count is density-matched: the
    ideal cluster cube side is ``(m / rho)^(1/3)``, so columns hold a few
    clusters' worth of atoms each and z-chunking yields compact clusters.
    """
    positions = np.asarray(positions, dtype=np.float64)
    k = positions.shape[0]
    if n_total is None:
        n_total = k + index_offset
    lo = np.asarray(lo, dtype=np.float64)
    ext = np.maximum(np.asarray(hi, dtype=np.float64) - lo, 1e-9)
    rho = k / float(np.prod(ext))
    side = (m / max(rho, 1e-12)) ** (1.0 / 3.0)
    nx = max(1, int(round(ext[0] / side)))
    ny = max(1, int(round(ext[1] / side)))
    cx = _column_bins(positions[:, 0], lo[0], ext[0], nx)
    cy = _column_bins(positions[:, 1], lo[1], ext[1], ny)
    col = cx * ny + cy
    order = np.lexsort((positions[:, 2], col))
    col_sorted = col[order]
    counts = np.bincount(col_sorted, minlength=nx * ny)
    # Per-column chunking: column c contributes ceil(counts[c] / m)
    # clusters starting at col_base[c]; the last one is padded.
    ncl_per_col = (counts + m - 1) // m
    col_base = np.concatenate(([0], np.cumsum(ncl_per_col)))
    col_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank_in_col = np.arange(k) - np.repeat(col_start, counts)
    cid = col_base[col_sorted] + rank_in_col // m
    slot = rank_in_col % m
    atoms = np.full((int(col_base[-1]), m), n_total, dtype=np.int64)
    atoms[cid, slot] = order + index_offset
    valid = (atoms < n_total)[:, :, None]
    xp = np.vstack([positions, np.zeros((1, 3))])[
        np.where(valid[:, :, 0], atoms - index_offset, k)
    ]
    bb_hi = np.where(valid, xp, -np.inf).max(axis=1)
    bb_lo = np.where(valid, xp, np.inf).min(axis=1)
    return ClusterLayout(
        atoms=atoms, centers=0.5 * (bb_hi + bb_lo), half=0.5 * (bb_hi - bb_lo),
        m=m, n_total=int(n_total),
        col=np.repeat(np.arange(nx * ny), ncl_per_col), nx=nx, ny=ny,
        lo=lo, ext=ext,
    )


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand ranges of the given lengths: ``(owner, offset in owner)``."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - first[owner]


def _column_windows(
    wlo: np.ndarray, whi: np.ndarray, shifts: np.ndarray,
    lo: float, ext: float, n: int, bmin: float, bmax: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint column ranges along x or y that meet ``[wlo, whi]``.

    One range per window image, ``(first, count)`` of shape ``(n_a,
    len(shifts))``.  Images rise with the shift and the binning is
    monotone, so each range is cut where the previous one ended: a
    window that wraps onto itself lists no column twice.  An image that
    misses the span ``[bmin, bmax]`` of the binned atoms altogether is
    empty — without that it would clip onto an edge column.
    """
    lows = wlo[:, None] + shifts
    highs = whi[:, None] + shifts
    first = _column_bins(lows, lo, ext, n)
    last = _column_bins(highs, lo, ext, n)
    last[(highs < bmin) | (lows > bmax)] = -1
    for k in range(1, shifts.size):
        np.maximum(first[:, k], last[:, k - 1] + 1, out=first[:, k])
        np.maximum(last[:, k], last[:, k - 1], out=last[:, k])
    return first, np.maximum(last - first + 1, 0)


class _Windows(NamedTuple):
    """What a search of layout ``a`` against ``b`` derives per cluster
    (:func:`_search_windows`); :func:`cluster_pair_candidates` and the
    compiled pass derives the same values per ``a`` cluster."""

    x0: np.ndarray        # (n_a, images) first b column along x ...
    xn: np.ndarray        # ... and the column count
    y0: np.ndarray        # the same along y
    yn: np.ndarray
    qlo: np.ndarray       # (n_a, z images) clipped z queries: bottom ...
    qhi: np.ndarray       # ... and top of the window, from b's lowest face
    key_hi: np.ndarray    # (n_b,) col * zband + top face offset
    key_lo: np.ndarray    # (n_b,) col * zband + bottom face offset
    zband: float          # key band per column: zspan + 2
    lim2: float           # box-test limit: (r_list * 1.0001)²


def _search_windows(
    a: ClusterLayout, b: ClusterLayout, r_list: float, box: np.ndarray,
    periodic: np.ndarray,
) -> _Windows:
    """Steps 1 and 2's per-cluster arrays of :func:`cluster_pair_candidates`:
    column windows per image along x and y, and the z keys and queries."""
    boxd = np.asarray(box, dtype=np.float64)
    shifts = [
        boxd[d] * np.arange(-1, 2) if periodic[d] else np.zeros(1)
        for d in range(3)
    ]
    slack = float(r_list) * 1.0001
    wlo = a.centers - a.half - slack
    whi = a.centers + a.half + slack
    blo = b.centers - b.half
    bhi = b.centers + b.half
    bmin, bmax = blo.min(axis=0), bhi.max(axis=0)
    (x0, xn), (y0, yn) = (
        _column_windows(wlo[:, d], whi[:, d], shifts[d], b.lo[d], b.ext[d],
                        n, bmin[d], bmax[d])
        for d, n in ((0, b.nx), (1, b.ny))
    )
    # z offsets are taken from b's lowest face so that 0 <= offset <=
    # zspan = Z - 2 and a clamped query never leaves its column's band
    # of the key.
    zspan = bmax[2] - bmin[2]
    band = b.col * (zspan + 2.0)
    return _Windows(
        x0, xn, y0, yn,
        qlo=np.clip(wlo[:, 2, None] + shifts[2] - bmin[2], 0.0, zspan + 1.0),
        qhi=np.clip(whi[:, 2, None] + shifts[2] - bmin[2], -1.0, zspan + 1.0),
        key_hi=band + (bhi[:, 2] - bmin[2]), key_lo=band + (blo[:, 2] - bmin[2]),
        zband=float(zspan + 2.0), lim2=slack * slack,
    )


def cluster_pair_candidates(
    a: ClusterLayout,
    b: ClusterLayout,
    r_list: float,
    box: np.ndarray,
    periodic: np.ndarray,
    same: bool,
    budget: BuildBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster pairs whose bounding boxes may hold an ``r_list`` pair.

    The oracle of the compiled search's candidate stage.  Linear in the
    cluster count: candidates are *enumerated* from the column grid
    ``b`` was built on, never tested all against all.

    1. Columns.  Around each ``a`` cluster's bounding box, widened by
       ``r_list`` (a 1.0001 slack absorbs rounding), lies a rectangle of
       ``b`` columns; a periodic dimension adds the window's ``±L``
       images (positions there lie within one box length of each other,
       so no other image interacts), made disjoint.
    2. A z-window inside each column.  Both faces of the boxes rise with
       the cluster index within a column, so the clusters overlapping
       the window are one range, found by two ``searchsorted`` calls on
       the globally monotone keys ``col * Z + bb_hi_z`` (first cluster
       reaching up to the window) and ``col * Z + bb_lo_z`` (last one
       starting below its top); periodic z adds ``±L`` images likewise.
    3. Bounding boxes, over that superset: ``sum_d max(0, |dc_d| -
       (half_a + half_b))^2 > r_list^2`` prunes the window's corners.
       The per-dimension minimum-image ``|dc_d|`` never exceeds the
       distance in the interacting image, so this is conservative too.

    No step drops a cluster pair holding an atom pair within ``r_list``;
    :func:`cluster_tile_pairs` decides exactly and takes the image per
    atom pair, so no shift is returned.  When ``same`` is true only
    ``ci <= cj`` is emitted (the tile stage triu-filters self pairs).

    Output is ordered by ``ci`` and the search streams over ``a`` in
    :data:`CHUNK_A_CLUSTERS` chunks, so neither the set nor its order
    depends on the chunking.  ``budget.candidates`` counts what step 2
    enumerated.
    """
    n_a = a.n_clusters
    if n_a == 0 or b.n_clusters == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    budget = budget or BuildBudget()
    boxd = np.asarray(box, dtype=np.float64)
    w = _search_windows(a, b, r_list, box, periodic)
    x0, xn, y0, yn = w.x0, w.xn, w.y0, w.yn
    # Step 1 for every a cluster: at most 3 x 3 column rectangles each,
    # as (first column, y width, column count) per rectangle.
    rect_col = (x0[:, :, None] * b.ny + y0[:, None, :]).reshape(n_a, -1)
    rect_ny = np.repeat(yn[:, None, :], xn.shape[1], axis=1).reshape(n_a, -1)
    rect_n = (xn[:, :, None] * yn[:, None, :]).reshape(n_a, -1)
    key_hi, key_lo, qlo, qhi = w.key_hi, w.key_lo, w.qlo, w.qhi
    n_img = qlo.shape[1]

    # Two nested streams: a clusters by the (column, image) rows they
    # expand to, and those rows by the candidates in their z-ranges.  Per
    # candidate: the index pair, its expansion, four gathered box rows,
    # the gap vector, the verdict.
    row_bytes = 72 + 40 * n_img
    a_chunk = CHUNK_A_CLUSTERS
    cand_bytes = 32 + 4 * 24 + 24 + 9
    cand_chunk = CHUNK_CANDIDATES
    lim2 = w.lim2
    ac, ah, bc, bh = (
        np.ascontiguousarray(v.T) for v in (a.centers, a.half, b.centers, b.half)
    )
    out_i, out_j = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s in range(0, n_a, a_chunk):
        rect, t = _ranges(rect_n[s : s + a_chunk].ravel())
        ny = rect_ny[s : s + a_chunk].ravel()[rect]
        col = rect_col[s : s + a_chunk].ravel()[rect] + t // ny * b.ny + t % ny
        row_a = rect // rect_n.shape[1] + s
        if same:
            # Lower columns hold lower cluster indices only.
            keep = col >= a.col[row_a]
            col, row_a = col[keep], row_a[keep]
        base = (col * w.zband)[:, None]
        first = np.searchsorted(key_hi, base + qlo[row_a], side="left")
        stop = np.searchsorted(key_lo, base + qhi[row_a], side="right")
        if same:
            np.maximum(first, row_a[:, None], out=first)
        for k in range(1, n_img):
            np.maximum(first[:, k], stop[:, k - 1], out=first[:, k])
            np.maximum(stop[:, k], stop[:, k - 1], out=stop[:, k])
        count = np.maximum(stop - first, 0).ravel()
        first = first.ravel()
        ends = np.cumsum(count)
        budget.note(rect.size * row_bytes)
        budget.candidates += int(ends[-1]) if ends.size else 0
        r0 = 0
        while r0 < count.size:
            seen = ends[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, seen + cand_chunk, "right")))
            rng, off = _ranges(count[r0:r1])
            cj = first[r0:r1][rng] + off
            ci = row_a[(rng + r0) // n_img]
            budget.note(ci.size * cand_bytes)
            r0 = r1
            # Step 3, elementwise per candidate, one row per dimension.
            gap = np.abs(np.take(ac, ci, axis=1) - np.take(bc, cj, axis=1))
            for d in np.flatnonzero(periodic):
                np.minimum(gap[d], boxd[d] - gap[d], out=gap[d])
            gap -= np.take(ah, ci, axis=1)
            gap -= np.take(bh, cj, axis=1)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            keep = gap.sum(axis=0) <= lim2
            out_i.append(ci[keep])
            out_j.append(cj[keep])
    return np.concatenate(out_i), np.concatenate(out_j)


def cluster_tile_pairs(
    positions: np.ndarray,
    a: ClusterLayout,
    b: ClusterLayout,
    ci: np.ndarray,
    cj: np.ndarray,
    r_list: float,
    box: np.ndarray,
    periodic: np.ndarray,
    same: bool,
    budget: BuildBudget | None = None,
    zone_bits: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Atom pairs ``(pi, pj)`` within ``r_list`` in the candidate tiles.

    The oracle of the compiled search's tile stage.  Each candidate
    cluster pair is an M×N tile of atom slots, evaluated
    exactly in float64: ``dx² + dy² + dz²`` with the minimum image taken
    *per atom pair* along periodic dimensions — the arithmetic of
    :meth:`CellList.pairs_within`, and necessary in general: the image
    nearest two cluster centers need not be the image nearest every
    atom pair in the tile.

    Tiles are laid out slot-major, ``(m_a, m_b, T)`` with the tile index
    contiguous, so every ufunc runs over thousands of contiguous
    elements, a cache-sized chunk of tiles at a time.  Padding slots
    read NaN coordinates, which fail ``r² <= r_list²`` without a
    validity mask.  For ``same`` layouts the diagonal tiles keep only
    the strict upper triangle, so each unordered pair appears once.
    With ``zone_bits`` (one ``uint8`` per atom) a pair is also dropped
    when its atoms share a bit — the eighth-shell rule.  The pairs are
    unique but unordered (chunk by chunk, in slot order).
    """
    m_a, m_b = a.m, b.m
    n_tiles = int(ci.size)
    budget = budget or BuildBudget()
    padded = np.vstack([np.asarray(positions, dtype=np.float64),
                        np.full((1, 3), np.nan)])
    # (3, m, C): one contiguous row of clusters per dimension and slot.
    xa = np.ascontiguousarray(padded[a.atoms].transpose(2, 1, 0))
    xb = xa if same else np.ascontiguousarray(padded[b.atoms].transpose(2, 1, 0))
    atoms_a = np.ascontiguousarray(a.atoms.T)
    atoms_b = atoms_a if same else np.ascontiguousarray(b.atoms.T)
    if zone_bits is not None:
        bits = np.concatenate([zone_bits, np.zeros(1, dtype=np.uint8)])
        za, zb = bits[atoms_a], bits[atoms_b]
    boxd = np.asarray(box, dtype=np.float64)
    tri = np.triu(np.ones((m_a, m_b), dtype=bool), k=1)[:, :, None]
    r_list2 = r_list * r_list
    # Per-tile working set: r2, one displacement and one image scratch,
    # the mask, and the gathered coordinate / index / bit rows.
    tile_bytes = m_a * m_b * (3 * 8 + 2) + (m_a + m_b) * (3 * 8 + 8 + 1)
    chunk = max(1, min(n_tiles, CHUNK_TILES))
    budget.note(chunk * tile_bytes)
    scratch = np.empty((3, m_a, m_b, chunk))
    out_i, out_j = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s in range(0, n_tiles, chunk):
        ti, tj = ci[s : s + chunk], cj[s : s + chunk]
        w = ti.size
        r2, dx, img = scratch[:, :, :, :w]
        ga, gb = np.take(xa, ti, axis=2), np.take(xb, tj, axis=2)
        for d in range(3):
            out = dx if d else r2
            np.subtract(ga[d][:, None, :], gb[d][None, :, :], out=out)
            if periodic[d]:
                np.divide(out, boxd[d], out=img)
                np.rint(img, out=img)
                img *= boxd[d]
                out -= img
            out *= out
            if d:
                r2 += dx
        mask = r2 <= r_list2
        if same:
            diag = np.flatnonzero(ti == tj)
            if diag.size:
                mask[:, :, diag] &= tri
        if zone_bits is not None:
            mask &= (za[:, None, ti] & zb[None, :, tj]) == 0
        # A set slot's flat index is (sa * m_b + sb) * w + t; the slot
        # rows of the gathered atom indices are read at sa * w + t and
        # sb * w + t.
        hit = np.flatnonzero(mask)
        sab = hit // w
        sa = sab // m_b
        out_i.append(atoms_a[:, ti].ravel()[hit - (sab - sa) * w])
        out_j.append(atoms_b[:, tj].ravel()[hit - sa * (m_b * w)])
    return np.concatenate(out_i), np.concatenate(out_j)


def _cluster_zone_bits(layout: ClusterLayout, zone_bits: np.ndarray) -> np.ndarray:
    """Zone bits shared by *every* atom of each cluster, shape ``(C,)``
    (padding slots carry all bits, so they never clear one).  Two
    clusters whose shared bits intersect hold no pair the per-atom
    eighth-shell test would keep; the converse does not hold, so the
    per-atom test still decides on the tiles that survive."""
    bits = np.concatenate([zone_bits, np.full(1, 7, dtype=np.uint8)])
    return np.bitwise_and.reduce(bits[layout.atoms], axis=1)


# -- the rank search, composed ------------------------------------------------


def layout_pairs(pos, a, b, r_list, box, periodic, budget, zone_bits=None):
    """The fused keys ``min * stride + max`` (``stride = n_total + 1``) of
    layout pair ``(a, b)``, in no particular order: candidates, the
    cluster zone cut with ``zone_bits``, tiles.  ``budget`` counts the
    candidates enumerated and the tiles tested."""
    same = a is b
    ci, cj = cluster_pair_candidates(a, b, r_list, box, periodic, same, budget=budget)
    if zone_bits is not None:
        keep = (_cluster_zone_bits(a, zone_bits)[ci]
                & _cluster_zone_bits(b, zone_bits)[cj]) == 0
        ci, cj = ci[keep], cj[keep]
    budget.tiles += int(ci.size)
    pi, pj = cluster_tile_pairs(
        pos, a, b, ci, cj, r_list, box, periodic, same, budget=budget,
        zone_bits=zone_bits,
    )
    stride = a.n_total + 1
    return np.minimum(pi, pj) * stride + np.maximum(pi, pj)


def build_split(ws) -> dict:
    """The rank search of ``repro.md.kernels.build_split``, in NumPy: the
    keyword dict of :class:`~repro.par.phases.SplitPairs` (outer lists,
    per-pulse offsets, stats with the candidate and tile counts)."""
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
    # work and the two halo-touching groups the non-local work.
    home = build_clusters(pos[:nh], grid.lo, grid.hi, CLUSTER_M, n_total=n)
    halo = build_clusters(
        pos[nh:], grid.lo, grid.hi, CLUSTER_M, index_offset=nh, n_total=n
    )
    budget.note_cells(home.nbytes + halo.nbytes)

    # Eighth-shell zone rule as a bit test: bit d set = nonzero zone
    # shift along dim d; a pair is ours iff the bit sets are disjoint.
    # Home bits are zero, so only halo-halo tiles need it.
    zs = ws.ns.zone_shift
    nzbits = (
        ((zs != 0) * np.array([1, 2, 4], dtype=np.uint8)).sum(axis=1)
    ).astype(np.uint8)

    flat = []
    for a, b in ((home, home), (home, halo), (halo, halo)):
        if a.n_clusters == 0 or b.n_clusters == 0:
            key = np.zeros(0, np.int64)
        else:
            key = layout_pairs(
                pos, a, b, r_list, box, periodic, budget,
                zone_bits=nzbits if a is halo else None,
            )
        if a is b is home:
            key.sort()  # canonical order of the local list
        flat.append(_split_key(key, stride))

    hh, hx, xx = flat
    ni, nj, pulse_offsets = _pulse_partition(
        ws, np.concatenate([hx[0], xx[0]]), np.concatenate([hx[1], xx[1]]),
    )
    local = DualList(*(a.astype(np.int32) for a in hh), rows=nh)
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
            "pairlist_bytes": local.nbytes + nl.nbytes,
            "cells_bytes": budget.cells_bytes,
            "build_peak_bytes": budget.peak_bytes + budget.cells_bytes
            + local.nbytes + nl.nbytes,
        },
    )


def _split_key(key: np.ndarray, stride: np.int64):
    """``(hi, lo)`` of a fused key ``hi * stride + lo``."""
    hi = key // stride
    return hi, key - hi * stride


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
