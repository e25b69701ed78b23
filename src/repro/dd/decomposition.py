"""Spatial domains and home-atom assignment.

Domains default to uniform slabs of the orthorhombic box (the paper's
GPU-resident runs do not use dynamic load balancing — Sec. 2.2); each rank
owns the atoms whose wrapped coordinates fall inside its half-open box
``[lo, hi)``.

Dynamic load balancing (:mod:`repro.dd.dlb`) may install *non-uniform*
per-dimension cell boundaries via :meth:`DomainDecomposition.set_boundaries`
— a tensor-product grid, so one boundary plane spans the whole
perpendicular cross-section (GROMACS' fully staggered rows are not
modelled; see DESIGN.md §8).  Correctness is preserved by construction:
every width must stay at or above the **cutoff floor** ``r_comm /
npulses[d]``, which guarantees any ``npulses[d]`` consecutive cells still
span ``r_comm``, so the fixed per-dimension pulse counts keep delivering
every atom the eighth-shell zone rule needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dd.grid import DDGrid, group_by_rank
from repro.md.system import wrap_positions


@dataclass(frozen=True)
class DomainBounds:
    """Half-open spatial bounds of one rank's domain."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of positions inside ``[lo, hi)``."""
        return np.all((positions >= self.lo) & (positions < self.hi), axis=1)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass
class DomainDecomposition:
    """A DD grid bound to a concrete box and communication cutoff.

    ``max_pulses`` allows domains thinner than ``r_comm``: dimension ``d``
    then uses ``ceil(r_comm / extent_d)`` forwarding pulses, as GROMACS does
    for second-neighbour communication (paper Sec. 2.2 — "up to two pulses
    per dimension").  A pulse count must stay below the number of domains in
    its dimension (otherwise data would wrap back to its owner).

    ``dlb=True`` plans each decomposed dimension for the *minimum* width
    dynamic load balancing may shrink a cell to, exactly as GROMACS plans
    communication for the DLB cell-size limit rather than the current cell
    size: ``npulses[d]`` rises to the ``max_pulses`` cap so the cutoff
    floor drops to ``r_comm / max_pulses``.  Extra pulses over still-wide
    cells forward nothing (the selection geometry is distance-based), so
    uniform-grid trajectories are bit-identical either way — but the plan
    carries the extra (possibly empty) pulse stages, which is why the
    default stays ``False`` for DLB-off runs.
    """

    grid: DDGrid
    box: np.ndarray
    r_comm: float
    max_pulses: int = 1
    dlb: bool = False

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float64)
        if self.box.shape != (3,) or np.any(self.box <= 0):
            raise ValueError(f"box must be 3 positive lengths, got {self.box}")
        if self.r_comm <= 0:
            raise ValueError(f"r_comm must be positive, got {self.r_comm}")
        if self.max_pulses < 1:
            raise ValueError(f"max_pulses must be >= 1, got {self.max_pulses}")
        shape = np.asarray(self.grid.shape, dtype=np.float64)
        ext = self.box / shape
        npulses = []
        for d in range(3):
            if self.grid.shape[d] == 1:
                npulses.append(0)
                continue
            need = int(np.ceil(self.r_comm / ext[d] - 1e-12))
            if need > self.max_pulses:
                raise ValueError(
                    f"domain extent {ext[d]:.3f} along dim {d} needs {need} "
                    f"pulses for r_comm={self.r_comm}, but max_pulses="
                    f"{self.max_pulses} (use a coarser grid or raise max_pulses)"
                )
            if need >= self.grid.shape[d]:
                raise ValueError(
                    f"dim {d}: {need} pulses over only {self.grid.shape[d]} "
                    f"domains would wrap halo data back to its owner"
                )
            if self.dlb:
                # Plan for the smallest cell DLB may create, not the
                # current (uniform) width: every pulse count the resizer
                # could ever need is staged from the start.
                need = max(need, min(self.max_pulses, self.grid.shape[d] - 1))
            npulses.append(need)
        self.domain_extent = ext
        #: Pulses per dimension (0 for undecomposed dimensions).
        self.npulses = tuple(npulses)
        #: Per-dim non-uniform cell edges (length shape[d]+1) or None for
        #: the uniform default.  Installed only via :meth:`set_boundaries`.
        self._boundaries: list[np.ndarray | None] = [None, None, None]
        self._refresh_bounds()

    def _refresh_bounds(self) -> None:
        """Rebuild ``lo``/``hi``: every rank's half-open domain, ``(n_ranks, 3)``."""
        cells = self.grid.coords
        lo = cells * self.domain_extent
        # Close the box edge exactly for the last domain along each dim
        # so wrapped coordinates equal to box-epsilon are always assigned.
        top = cells == np.asarray(self.grid.shape) - 1
        hi = np.where(top, self.box, lo + self.domain_extent)
        for d, edges in enumerate(self._boundaries):
            if edges is not None:
                lo[:, d] = edges[cells[:, d]]
                hi[:, d] = edges[cells[:, d] + 1]
        lo.setflags(write=False)
        hi.setflags(write=False)
        #: Lower and upper domain corner of every rank (read-only tables).
        self.lo, self.hi = lo, hi

    # -- non-uniform boundaries (dynamic load balancing) ----------------------

    @property
    def is_uniform(self) -> bool:
        """True while every dimension still uses the uniform default."""
        return all(b is None for b in self._boundaries)

    def width_floor(self, d: int) -> float:
        """Hard minimum cell width along dim ``d`` (the cutoff floor).

        With ``npulses[d]`` forwarding pulses, halo coverage for arbitrary
        widths needs any ``npulses[d]`` *consecutive* cells to span
        ``r_comm`` — guaranteed iff every width is at least
        ``r_comm / npulses[d]``.  Undecomposed dims have no floor.
        """
        n = self.npulses[d]
        return self.r_comm / n if n else 0.0

    def boundaries(self, d: int) -> np.ndarray:
        """Current cell edges along dim ``d`` (length ``shape[d] + 1``)."""
        if self._boundaries[d] is not None:
            return self._boundaries[d].copy()
        edges = np.arange(self.grid.shape[d] + 1) * self.domain_extent[d]
        edges[-1] = self.box[d]
        return edges

    def cell_widths(self, d: int) -> np.ndarray:
        """Current cell widths along dim ``d`` (length ``shape[d]``)."""
        return np.diff(self.boundaries(d))

    def set_boundaries(self, d: int, edges: np.ndarray) -> None:
        """Install non-uniform cell edges along dim ``d``.

        Validates the invariants the halo machinery relies on — fixed
        endpoints, strict monotonicity, and the cutoff floor — and raises
        :class:`ValueError` on any violation, so a buggy resizer can never
        silently break eighth-shell coverage.  Callers (the DLB
        controller via the engine) must follow every accepted move with a
        full redistribution + pair-list rebuild.
        """
        edges = np.asarray(edges, dtype=np.float64).copy()
        n_cells = self.grid.shape[d]
        if n_cells == 1:
            raise ValueError(f"dim {d} is undecomposed; boundaries are fixed")
        if edges.shape != (n_cells + 1,):
            raise ValueError(
                f"dim {d} needs {n_cells + 1} edges, got shape {edges.shape}"
            )
        if edges[0] != 0.0 or abs(edges[-1] - self.box[d]) > 1e-9 * self.box[d]:
            raise ValueError(
                f"dim {d} edges must span [0, {self.box[d]}], got "
                f"[{edges[0]}, {edges[-1]}]"
            )
        edges[-1] = self.box[d]
        widths = np.diff(edges)
        if np.any(widths <= 0):
            raise ValueError(f"dim {d} edges must be strictly increasing: {edges}")
        floor = self.width_floor(d)
        # Tolerate only float round-off below the floor: anything more is
        # a resizer bug that would break halo coverage.
        if float(widths.min()) < floor * (1.0 - 1e-9):
            raise ValueError(
                f"dim {d}: min cell width {widths.min():.6f} violates the "
                f"cutoff floor {floor:.6f} (r_comm={self.r_comm} over "
                f"{self.npulses[d]} pulse(s))"
            )
        self._boundaries[d] = edges
        self._refresh_bounds()

    def bounds_of_rank(self, rank: int) -> DomainBounds:
        if not 0 <= rank < self.grid.n_ranks:
            raise ValueError(f"rank {rank} out of range for grid {self.grid.shape}")
        return DomainBounds(lo=self.lo[rank], hi=self.hi[rank])

    def assign_atoms(self, positions: np.ndarray) -> np.ndarray:
        """Home rank of every atom (positions are wrapped internally).

        A non-finite coordinate has no home: it raises :class:`ValueError`
        naming the first such atom (the rank search's binning needs finite
        coordinates too).
        """
        positions = np.asarray(positions, dtype=np.float64)
        if not np.isfinite(positions).all():
            atom = int(np.flatnonzero(~np.isfinite(positions).all(axis=1))[0])
            raise ValueError(
                f"atom {atom} has a non-finite position {positions[atom].tolist()}"
            )
        wrapped = wrap_positions(positions, self.box)
        if self.is_uniform:
            cell = np.floor(wrapped / self.domain_extent).astype(int)
            cell = np.minimum(cell, np.asarray(self.grid.shape) - 1)
        else:
            cell = np.empty(wrapped.shape, dtype=int)
            for d in range(3):
                edges = self._boundaries[d]
                if edges is None:
                    col = np.floor(
                        wrapped[:, d] / self.domain_extent[d]
                    ).astype(int)
                else:
                    col = np.searchsorted(edges, wrapped[:, d], side="right") - 1
                cell[:, d] = np.minimum(col, self.grid.shape[d] - 1)
        return cell @ self.grid.stride

    def home_indices(self, positions: np.ndarray) -> list[np.ndarray]:
        """Per-rank arrays of global atom indices (ascending within a rank)."""
        order, counts = group_by_rank(self.assign_atoms(positions), self.grid.n_ranks)
        return np.split(order, np.cumsum(counts[:-1]))
