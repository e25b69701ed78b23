"""Cell-list pair search with per-dimension periodicity.

This is the serial reference's neighbour search
(:func:`periodic_cell_list`, which :class:`~repro.md.pairlist.VerletListBuilder`
runs) and the independent search every DD rank's lists are held to
(``tests/test_kernels.py``).  A :class:`CellList` is periodic only along
the dimensions it is told to be, so it also covers an open extent.

Pairs are found by binning atoms into cells at least one cutoff wide and
scanning each unordered cell pair exactly once (13 half-space offsets plus the
cell itself), with minimum-image displacements applied along periodic
dimensions.  Duplicated cell pairs that arise from wrapping on very small
grids (1-2 cells along a periodic dimension) are deduplicated explicitly.

The DD ranks search with M×N clusters instead, in one compiled pass per
rank (:func:`repro.md.kernels.build_split`, ``pairsearch.c``); the NumPy
stages it was written from are its oracles in ``tests/oracles.py``.
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
    """Memory accounting for pair/tile builds.

    ``peak_bytes`` records the largest transient working set any stage
    used and ``cells_bytes`` the footprint of the search structures
    (cell grid occupancy or cluster layouts), feeding the
    ``md.cells.bytes`` / ``md.build.peak_bytes`` gauges.  ``candidates``
    and ``tiles`` count the cluster pairs the NumPy cluster search of
    ``tests/oracles.py`` enumerated and tested atom by atom.
    """

    peak_bytes: int = 0
    cells_bytes: int = 0
    candidates: int = 0
    tiles: int = 0

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


#: Atoms per cluster of the rank search (GROMACS' CPU/SIMD cluster size;
#: tiles are ``CLUSTER_M`` × ``CLUSTER_M`` slots): ``M`` in
#: ``pairsearch.c``, which :func:`repro.md.kernels.build_split` runs.
CLUSTER_M = 4
