"""DD grid factorization and rank <-> cell-coordinate mapping.

GROMACS chooses the decomposition grid by minimizing estimated communication
cost subject to the constraint that domains stay wide enough for the
requested number of pulses per dimension.  We reproduce the same selection:
enumerate all factorizations of the rank count and pick the one with the
smallest communicated halo volume (ties broken toward decomposing z first,
matching GROMACS' z -> y -> x communication order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: Communication phase order: z first, then y, then x (paper Sec. 2.2).
PHASE_DIMS: tuple[int, ...] = (2, 1, 0)


def _factor_triples(n: int) -> list[tuple[int, int, int]]:
    """All ordered triples (nx, ny, nz) with nx*ny*nz == n."""
    triples = []
    for nx in range(1, n + 1):
        if n % nx:
            continue
        rem = n // nx
        for ny in range(1, rem + 1):
            if rem % ny:
                continue
            triples.append((nx, ny, rem // ny))
    return triples


@dataclass(frozen=True)
class DDGrid:
    """An (nx, ny, nz) decomposition grid over an orthorhombic box.

    The rank <-> cell arithmetic is stated once, as a table: x runs
    fastest, so ``rank == coords[rank] @ stride`` with ``stride = (1, nx,
    nx*ny)``.  ``coords`` is the ``(n_ranks, 3)`` cell of every rank;
    every rank lookup in the DD layer reads it (or ``stride``).
    """

    shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValueError(f"grid shape must be 3 positive ints, got {self.shape}")
        nx, ny, nz = self.shape
        ranks = np.arange(nx * ny * nz)
        stride = np.array([1, nx, nx * ny], dtype=np.int64)
        coords = np.stack(np.unravel_index(ranks, self.shape, order="F"), axis=1)
        assert np.array_equal(coords @ stride, ranks)
        stride.setflags(write=False)
        coords.setflags(write=False)
        # Derived, not fields: equality and hashing stay on ``shape``.
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "coords", coords)

    @property
    def n_ranks(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def ndim(self) -> int:
        """Number of decomposed dimensions (the paper's 1D/2D/3D DD)."""
        return sum(1 for s in self.shape if s > 1)

    def decomposed_dims(self) -> list[int]:
        """Dimensions with more than one domain, in phase (z, y, x) order."""
        return [d for d in PHASE_DIMS if self.shape[d] > 1]

    def rank_of_coords(self, coords) -> int | np.ndarray:
        """Rank of cell ``coords`` (periodic); ``(n, 3)`` cells give ``(n,)`` ranks."""
        cells = np.mod(coords, self.shape) @ self.stride
        return cells if np.ndim(cells) else int(cells)

    def coords_of_rank(self, rank: int) -> tuple[int, int, int]:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range for grid {self.shape}")
        cx, cy, cz = self.coords[rank].tolist()
        return (cx, cy, cz)

    def neighbor_ranks(self, dim: int, step: int) -> np.ndarray:
        """Every rank's neighbour ``step`` cells away along ``dim`` (periodic)."""
        col = self.coords[:, dim]
        moved = np.mod(col + step, self.shape[dim]) - col
        return np.arange(self.n_ranks) + moved * self.stride[dim]

    def neighbor_rank(self, rank: int, dim: int, step: int) -> int:
        """Rank ``step`` cells away along ``dim`` (periodic)."""
        coords = np.array(self.coords_of_rank(rank))
        coords[dim] += step
        return self.rank_of_coords(coords)

    def all_ranks(self) -> range:
        return range(self.n_ranks)


def group_by_rank(ranks: np.ndarray, n_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order that groups ``ranks`` ascending, and each rank's count.

    Rank ids fit 16 bits, and NumPy sorts 16-bit keys stably by radix in
    linear time — ten times faster than the ``int64`` merge sort at 12k
    keys.  Stability keeps each group in its original (ascending) order.
    """
    key = ranks.astype(np.uint16) if n_ranks <= 1 << 16 else ranks
    return np.argsort(key, kind="stable"), np.bincount(ranks, minlength=n_ranks)


def halo_volume_estimate(shape: tuple[int, int, int], box: np.ndarray, r_comm: float) -> float:
    """Estimated per-rank communicated halo volume for a candidate grid.

    Sums the staged zone volumes of the eighth-shell scheme: for decomposed
    dimensions with domain extents (ax, ay, az) and halo width rc, the
    received halo volume is the `+octant` shell, e.g. for a 3D decomposition
    ``(a+rc)^3 - a^3`` scaled to the actual extents.
    """
    box = np.asarray(box, dtype=np.float64)
    ext = box / np.asarray(shape, dtype=np.float64)
    grown = np.where(np.asarray(shape) > 1, ext + r_comm, ext)
    return float(np.prod(grown) - np.prod(ext))


def choose_grid(
    n_ranks: int,
    box: np.ndarray,
    r_comm: float,
    max_pulses: int = 1,
) -> DDGrid:
    """Pick the factorization with minimal estimated halo volume.

    Grids whose domains would be thinner than ``r_comm / max_pulses`` along a
    decomposed dimension are rejected (they would need more pulses than
    allowed); if nothing qualifies a ValueError explains the limit, mirroring
    GROMACS' "too many ranks" diagnostics.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    box = np.asarray(box, dtype=np.float64)
    candidates = []
    for shape in _factor_triples(n_ranks):
        ext = box / np.asarray(shape, dtype=np.float64)
        ok = all(shape[d] == 1 or ext[d] * max_pulses >= r_comm for d in range(3))
        # Minimum-image validity for undecomposed (periodic) dims is checked
        # by the cell list; decomposed dims additionally need >= 2 domains'
        # worth of space beyond the halo to avoid self-communication.
        if not ok:
            continue
        cost = halo_volume_estimate(shape, box, r_comm)
        # Prefer decomposing z, then y, then x (matches GROMACS' ordering
        # preference for the staged communication).
        tie = (shape[0], shape[1])
        candidates.append((cost, tie, shape))
    if not candidates:
        raise ValueError(
            f"no valid DD grid for {n_ranks} ranks: domains would be thinner "
            f"than r_comm={r_comm} (box={box}, max_pulses={max_pulses})"
        )
    candidates.sort()
    return DDGrid(shape=candidates[0][2])
