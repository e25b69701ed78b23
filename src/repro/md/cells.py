"""Cell-list pair search with per-dimension periodicity.

This is the core neighbour-search substrate.  It must cover two geometries:

* the *global* periodic box (serial reference, pair-list builds), and
* a *rank-local extended domain* (home + halo atoms), which is periodic only
  along dimensions the domain decomposition does not split (halo atoms carry
  explicit shifts along decomposed dimensions and may lie outside the box).

Pairs are found by binning atoms into cells at least one cutoff wide and
scanning each unordered cell pair exactly once (13 half-space offsets plus the
cell itself), with minimum-image displacements applied along periodic
dimensions.  Duplicated cell pairs that arise from wrapping on very small
grids (1-2 cells along a periodic dimension) are deduplicated explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: The 13 half-space neighbour offsets (lexicographically positive) plus self.
_HALF_OFFSETS = [
    off
    for off in itertools.product((-1, 0, 1), repeat=3)
    if off > (0, 0, 0)
]


@dataclass
class BuildBudget:
    """Working-set cap and memory accounting for pair/tile builds.

    ``max_bytes`` bounds the *transient* working set of one build stage:
    streamed stages (the candidate enumeration and the tile test) derive
    their chunk size from it, so a rank never materialises a candidate
    or tile batch larger than the cap; each stage's tuned default chunk
    (sized for cache behaviour, not memory pressure) is the upper limit.

    Chunk size never changes results — candidates stream in the order
    of their outer loop, tile pairs are a set and the final canonical
    sort is chunk-oblivious — so a capped build is bit-identical to an
    uncapped one; tests assert this across several caps.

    The budget also *measures*: ``peak_bytes`` records the largest
    transient working set any stage actually used and ``cells_bytes``
    the footprint of the search structures (cell grid occupancy or
    cluster layouts), feeding the ``md.cells.bytes`` /
    ``md.build.peak_bytes`` gauges; ``candidates`` counts the cluster
    pairs the candidate stage enumerated.
    """

    max_bytes: int | None = None
    peak_bytes: int = 0
    cells_bytes: int = 0
    candidates: int = 0

    def __post_init__(self) -> None:
        if self.max_bytes is not None:
            self.max_bytes = int(self.max_bytes)
            if self.max_bytes < 4096:
                raise ValueError(
                    f"max_build_bytes must be >= 4096 (got {self.max_bytes}); "
                    f"a smaller cap cannot hold one candidate row"
                )

    def rows(self, bytes_per_row: int, default_rows: int) -> int:
        """Chunk length for a stage whose working set is ``bytes_per_row``:
        its tuned ``default_rows``, cut down to what fits under a set
        ``max_bytes`` (always at least one row — correctness never
        depends on the cap being achievable)."""
        rows = int(default_rows)
        if self.max_bytes is not None:
            rows = min(rows, self.max_bytes // max(int(bytes_per_row), 1))
        return max(1, rows)

    def note(self, nbytes: int) -> None:
        """Record one stage's transient working set."""
        if nbytes > self.peak_bytes:
            self.peak_bytes = int(nbytes)

    def note_cells(self, nbytes: int) -> None:
        """Record search-structure footprint (cell grid / cluster layouts)."""
        self.cells_bytes += int(nbytes)


@dataclass
class CellList:
    """A 3D cell grid over ``[lo, hi)`` with per-dimension periodic flags.

    Parameters
    ----------
    lo, hi:
        Grid bounds per dimension.  Along periodic dimensions these must be
        the bounds of the periodic cell itself (minimum-image uses ``hi-lo``).
    cutoff:
        Interaction range; cells are never thinner than this.
    periodic:
        Boolean flags per dimension.
    """

    lo: np.ndarray
    hi: np.ndarray
    cutoff: float
    periodic: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        self.periodic = np.asarray(self.periodic, dtype=bool)
        if self.lo.shape != (3,) or self.hi.shape != (3,) or self.periodic.shape != (3,):
            raise ValueError("lo, hi, periodic must each have shape (3,)")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        extent = self.hi - self.lo
        if np.any(extent <= 0):
            raise ValueError(f"hi must exceed lo, got extent {extent}")
        # Minimum image is only valid when the periodic extent is at least
        # twice the cutoff; the DD layer guarantees this for real systems.
        bad = self.periodic & (extent < 2.0 * self.cutoff)
        if np.any(bad):
            raise ValueError(
                f"periodic extent {extent} must be >= 2*cutoff={2 * self.cutoff} "
                f"along periodic dimensions"
            )
        self.extent = extent
        self.ncells = np.maximum(1, np.floor(extent / self.cutoff).astype(int))
        self.cell_size = extent / self.ncells

    # -- binning ----------------------------------------------------------

    def cell_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer cell coordinates, shape (N, 3)."""
        rel = (np.asarray(positions, dtype=np.float64) - self.lo) / self.cell_size
        coords = np.floor(rel).astype(int)
        for d in range(3):
            if self.periodic[d]:
                coords[:, d] %= self.ncells[d]
            else:
                coords[:, d] = np.clip(coords[:, d], 0, self.ncells[d] - 1)
        return coords

    def linear_ids(self, coords: np.ndarray) -> np.ndarray:
        nz, ny, nx = self.ncells
        return (coords[:, 0] * ny + coords[:, 1]) * nx + coords[:, 2]

    # -- pair search -------------------------------------------------------

    def _cell_pairs(self, occupied: np.ndarray) -> list[tuple[int, int]]:
        """All unordered pairs of occupied cells that may contain neighbours."""
        occ = set(int(c) for c in occupied)
        nz, ny, nx = (int(v) for v in self.ncells)
        pairs: set[tuple[int, int]] = set()
        for cid in occ:
            cz, rem = divmod(cid, ny * nx)
            cy, cx = divmod(rem, nx)
            pairs.add((cid, cid))
            for dz, dy, dx in _HALF_OFFSETS:
                zz, yy, xx = cz + dz, cy + dy, cx + dx
                if self.periodic[0]:
                    zz %= nz
                elif not 0 <= zz < nz:
                    continue
                if self.periodic[1]:
                    yy %= ny
                elif not 0 <= yy < ny:
                    continue
                if self.periodic[2]:
                    xx %= nx
                elif not 0 <= xx < nx:
                    continue
                nid = (zz * ny + yy) * nx + xx
                if nid in occ:
                    pairs.add((min(cid, nid), max(cid, nid)))
        return sorted(pairs)

    def min_image(self, dx: np.ndarray) -> np.ndarray:
        """Minimum-image displacement along periodic dimensions only."""
        for d in range(3):
            if self.periodic[d]:
                ext = self.extent[d]
                dx[..., d] -= np.rint(dx[..., d] / ext) * ext
        return dx

    def pairs_within(
        self,
        positions: np.ndarray,
        cutoff: float | None = None,
        budget: "BuildBudget | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All index pairs (i < j) with minimum-image distance <= cutoff.

        Returns two int64 arrays; each unordered pair appears exactly once.
        The optional ``budget`` records the grid-occupancy footprint and
        the largest per-cell-pair dense block; the scan is already one
        cell pair at a time, so its working set is bounded by cell
        occupancy (density × cell volume), not by the atom count.
        """
        rc = self.cutoff if cutoff is None else float(cutoff)
        if rc > self.cutoff + 1e-12:
            raise ValueError(f"search cutoff {rc} exceeds cell size budget {self.cutoff}")
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ids = self.linear_ids(self.cell_coords(positions))
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        # Start offset of every occupied cell in the sorted order.
        uniq, starts = np.unique(sorted_ids, return_index=True)
        bounds = np.append(starts, n)
        members = {int(c): order[bounds[k] : bounds[k + 1]] for k, c in enumerate(uniq)}
        if budget is not None:
            budget.note_cells(ids.nbytes + order.nbytes + uniq.nbytes + bounds.nbytes)
            max_occ = int(np.diff(bounds).max())
            # Largest dense block a cell pair can produce: dx (na*nb*3
            # f64) + r2 (na*nb f64) + the boolean keep mask.
            budget.note(max_occ * max_occ * (3 * 8 + 8 + 1))

        rc2 = rc * rc
        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        for ca, cb in self._cell_pairs(uniq):
            a = members[ca]
            if ca == cb:
                if a.size < 2:
                    continue
                dx = positions[a][:, None, :] - positions[a][None, :, :]
                dx = self.min_image(dx)
                r2 = np.einsum("ijk,ijk->ij", dx, dx)
                ii, jj = np.nonzero(np.triu(r2 <= rc2, k=1))
                if ii.size:
                    out_i.append(a[ii])
                    out_j.append(a[jj])
            else:
                b = members[cb]
                dx = positions[a][:, None, :] - positions[b][None, :, :]
                dx = self.min_image(dx)
                r2 = np.einsum("ijk,ijk->ij", dx, dx)
                ii, jj = np.nonzero(r2 <= rc2)
                if ii.size:
                    out_i.append(a[ii])
                    out_j.append(b[jj])
        if not out_i:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        # Canonical ordering: i < j, then lexicographic, for deterministic output.
        swap = i > j
        i2 = np.where(swap, j, i)
        j2 = np.where(swap, i, j)
        key = np.lexsort((j2, i2))
        return i2[key].astype(np.int64), j2[key].astype(np.int64)


def periodic_cell_list(box: np.ndarray, cutoff: float) -> CellList:
    """Cell list over the full periodic box (all dimensions periodic)."""
    box = np.asarray(box, dtype=np.float64)
    return CellList(lo=np.zeros(3), hi=box, cutoff=cutoff, periodic=np.ones(3, dtype=bool))


class CellGrid(CellList):
    """A rank-local cell grid covering exactly one rank's home+halo extent.

    The rank-side counterpart of :func:`periodic_cell_list`: along
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


# -- cluster layout (the GROMACS M×N scheme's atom grouping) -------------------


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

    Linear in the cluster count: candidates are *enumerated* from the
    column grid ``b`` was built on, never tested all against all.

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
    chunks sized by ``budget``, so neither the set nor its order depends
    on the cap.  ``budget.candidates`` counts what step 2 enumerated.
    """
    n_a = a.n_clusters
    if n_a == 0 or b.n_clusters == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    budget = budget or BuildBudget()
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

    # Step 1 for every a cluster: at most 3 x 3 column rectangles each,
    # as (first column, y width, column count) per rectangle.
    (x0, xn), (y0, yn) = (
        _column_windows(wlo[:, d], whi[:, d], shifts[d], b.lo[d], b.ext[d],
                        n, bmin[d], bmax[d])
        for d, n in ((0, b.nx), (1, b.ny))
    )
    rect_col = (x0[:, :, None] * b.ny + y0[:, None, :]).reshape(n_a, -1)
    rect_ny = np.repeat(yn[:, None, :], xn.shape[1], axis=1).reshape(n_a, -1)
    rect_n = (xn[:, :, None] * yn[:, None, :]).reshape(n_a, -1)

    # Step 2 keys; z offsets are taken from b's lowest face so that
    # 0 <= offset <= zspan = Z - 2 and a clamped query never leaves its
    # column's band of the key.
    zspan = bmax[2] - bmin[2]
    band = b.col * (zspan + 2.0)
    key_hi, key_lo = band + (bhi[:, 2] - bmin[2]), band + (blo[:, 2] - bmin[2])
    qlo = np.clip(wlo[:, 2, None] + shifts[2] - bmin[2], 0.0, zspan + 1.0)
    qhi = np.clip(whi[:, 2, None] + shifts[2] - bmin[2], -1.0, zspan + 1.0)
    n_img = shifts[2].size

    # Two nested streams, both sized from exact counts: a clusters by
    # the (column, image) rows they expand to, and those rows by the
    # candidates in their z-ranges.  Per candidate: the index pair, its
    # expansion, four gathered box rows, the gap vector, the verdict.
    row_bytes = 72 + 40 * n_img
    a_chunk = budget.rows(int(rect_n.sum(axis=1).max()) * row_bytes, 256)
    cand_bytes = 32 + 4 * 24 + 24 + 9
    cand_chunk = budget.rows(cand_bytes, 1 << 16)
    lim2 = slack * slack
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
        base = (col * (zspan + 2.0))[:, None]
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

    Each candidate cluster pair is an M×N tile of atom slots, evaluated
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
    chunk = max(1, min(n_tiles, budget.rows(tile_bytes, 4096)))
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


def open_cell_list(positions: np.ndarray, cutoff: float) -> CellList:
    """Cell list over the bounding box of ``positions``, fully non-periodic."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0) - 1e-9
    hi = positions.max(axis=0) + 1e-9
    hi = np.maximum(hi, lo + cutoff)  # degenerate extents
    return CellList(lo=lo, hi=hi, cutoff=cutoff, periodic=np.zeros(3, dtype=bool))
