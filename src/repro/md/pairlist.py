"""Buffered Verlet pair lists: the serial reference's list lifecycle.

GROMACS builds its pair list with a buffered radius ``r_list = r_c +
r_buffer`` every ``nstlist`` steps.  We reproduce that lifecycle on flat
pair arrays:

* ``build``   — full search at ``r_list`` via the cell list,
* ``needs_rebuild`` — max displacement since build exceeds half the buffer.

This is the whole-system list of the serial
:class:`~repro.md.reference.ReferenceSimulator`, evaluated unpruned: it is
the independent oracle the DD engine's *dynamically pruned* dual list
(:mod:`repro.par.phases`, the paper's Sec. 5.4 prune kernel) is checked
against.  It is also the independent search the DD engine's one pair
search (:func:`repro.md.kernels.build_split`, M×N clusters over each
rank's home + halo atoms) is held to: ``tests/test_kernels.py`` maps
every rank's outer lists to global ids and asks for this module's cell
list pairs at ``r_list``, each on exactly one rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.cells import BuildBudget, CellList, periodic_cell_list
from repro.obs.metrics import METRICS


@dataclass
class PairList:
    """A flat i/j pair list with build-time bookkeeping.

    Lists from :meth:`VerletListBuilder.build` are canonically
    ``(i, j)``-lexsorted, so ``i`` is non-decreasing — what makes
    :class:`repro.md.nonbonded.PairBlock`'s segment reduction fast (its
    correctness does not depend on it).
    """

    i: np.ndarray
    j: np.ndarray
    r_list: float
    ref_positions: np.ndarray = field(repr=False)
    steps_since_build: int = 0

    def __post_init__(self) -> None:
        if self.i.shape != self.j.shape:
            raise ValueError("pair arrays must have equal length")
        if self.r_list <= 0:
            raise ValueError("r_list must be positive")

    @property
    def n_pairs(self) -> int:
        return int(self.i.size)

    @property
    def nbytes(self) -> int:
        """Stored footprint of the list (pairs + reference positions)."""
        return int(self.i.nbytes + self.j.nbytes + self.ref_positions.nbytes)


@dataclass
class VerletListBuilder:
    """Builds and maintains buffered Verlet lists over a periodic box."""

    box: np.ndarray
    cutoff: float
    buffer: float = 0.1  # nm; GROMACS' verlet-buffer is of this order
    nstlist: int = 20

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float64)
        if self.buffer < 0:
            raise ValueError("buffer must be non-negative")
        if self.nstlist < 1:
            raise ValueError("nstlist must be >= 1")
        self.r_list = self.cutoff + self.buffer
        self._cells: CellList = periodic_cell_list(self.box, self.r_list)
        self._scratch: dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Reusable named scratch buffer (reallocated only on shape change)."""
        b = self._scratch.get(name)
        if b is None or b.shape != shape or b.dtype != dtype:
            b = self._scratch[name] = np.empty(shape, dtype=dtype)
        return b

    def _max_displacement(self, pairs, positions: np.ndarray) -> float:
        """Max atom displacement since the reference build, in scratch.

        Publishes the ``pairlist.max_disp`` gauge so rebuild pressure
        (how close the system runs to the ``buffer/2`` trigger) is
        observable without instrumenting callers.
        """
        n = positions.shape[0]
        if n == 0:
            METRICS.gauge("pairlist.max_disp").set(0.0)
            return 0.0
        disp = self._buf("disp", (n, 3))
        np.subtract(positions, pairs.ref_positions, out=disp)
        # Minimum-image the displacement: atoms may have been re-wrapped.
        wrap = self._buf("wrap", (n, 3))
        np.divide(disp, self.box, out=wrap)
        np.rint(wrap, out=wrap)
        wrap *= self.box
        disp -= wrap
        d2 = np.einsum("ij,ij->i", disp, disp, out=self._buf("d2", (n,)))
        max_disp = float(np.sqrt(d2.max()))
        METRICS.gauge("pairlist.max_disp").set(max_disp)
        return max_disp

    def build(self, positions: np.ndarray) -> PairList:
        """Full neighbour search at the buffered radius."""
        budget = BuildBudget()
        i, j = self._cells.pairs_within(positions, self.r_list, budget=budget)
        METRICS.counter("pairlist.builds").inc()
        METRICS.histogram("pairlist.pairs_built").observe(int(i.size))
        # pairs_within emits canonically (i, j)-lexsorted pairs.
        pairs = PairList(
            i=i, j=j, r_list=self.r_list,
            ref_positions=np.array(positions, copy=True),
        )
        METRICS.gauge("md.pairlist.bytes").set(pairs.nbytes)
        METRICS.gauge("md.cells.bytes").set(budget.cells_bytes)
        METRICS.gauge("md.build.peak_bytes").set(budget.peak_bytes)
        return pairs

    def needs_rebuild(self, pairs: PairList, positions: np.ndarray) -> bool:
        """True when list-validity can no longer be guaranteed.

        Rebuild when the schedule says so (``nstlist`` steps elapsed) or when
        any atom moved more than half the buffer since the reference build —
        two atoms approaching each other can then close a ``buffer`` gap.
        """
        if pairs.steps_since_build >= self.nstlist:
            return True
        return self._max_displacement(pairs, positions) > 0.5 * self.buffer
