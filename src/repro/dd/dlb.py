"""Dynamic load balancing: imbalance-driven cell-boundary resizing.

GROMACS' answer to DD load imbalance (Páll et al. 2020, Sec. "Dynamic
load balancing") is to resize decomposition cells so slow (overloaded)
domains shrink and fast (underloaded) domains grow, re-measuring after
every move.  This module is that loop for our tensor-product grid:

* :func:`resize_widths` — one damped relaxation step of a single
  dimension's cell widths toward load-proportional sizes, with the
  **cutoff floor** (:meth:`DomainDecomposition.width_floor`) enforced by
  redistributing width from cells above the floor — never by violating
  it.  Pure function; the property tests drive it with random load
  histories.
* :class:`DlbController` — staggers resizing over the decomposed
  dimensions in pulse order (z, then y, then x — one dim per update, the
  "staggered grid constraint": a tensor-product grid can only move whole
  boundary planes, so per-dim moves must not compound within one
  update), aggregates per-rank loads into per-slab loads, installs new
  edges through :meth:`DomainDecomposition.set_boundaries`, and
  publishes the ``dd.dlb.*`` metrics.

The engine calls :meth:`DlbController.update` only immediately before a
neighbour search, so every accepted boundary move is followed by full
atom redistribution, halo re-planning, and pair-list rebuilds by
construction — the invariants (eighth-shell coverage, exactly-once
delivery) never see a half-moved state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dd.decomposition import DomainDecomposition
from repro.obs.metrics import METRICS
from repro.par.imbalance import imbalance_pct

#: Load-balancing modes a simulator accepts: "off" (uniform cells),
#: "pairs" (deterministic — per-rank pair counts drive the resizer) and
#: "measured" (per-rank wall-clock phase times; nondeterministic run to run).
DLB_MODES = ("off", "pairs", "measured")

#: Default relaxation factor: each update moves widths halfway to the
#: load-proportional target.  GROMACS damps similarly to avoid
#: oscillation against the measurement noise of per-step timings.
DLB_DAMPING = 0.5

#: Relative width change below which a move is skipped (a rebuild costs
#: more than such a move could ever recover).  Set above the move sizes
#: the converged controller proposes from step-to-step load noise, so a
#: balanced grid goes quiet instead of churning micro-moves — each
#: accepted move forces a redistribution + list rebuild on the next
#: search, which is pure overhead once the imbalance is gone.
DLB_MIN_MOVE = 5e-3

#: Max relative width change per update.  The load model assumes a
#: cell's work density is uniform across it, which is only locally true
#: in inhomogeneous systems — an unbounded step lets a vacuum cell grow
#: far into a dense region in one move and oscillate.  Bounding each
#: step keeps the relaxation inside the regime where the model holds.
DLB_MAX_STEP = 0.25


def resize_widths(
    widths: np.ndarray,
    loads: np.ndarray,
    floor: float,
    damping: float = DLB_DAMPING,
    max_step: float = DLB_MAX_STEP,
    last_move: np.ndarray | None = None,
) -> np.ndarray:
    """One damped resize of one dimension's cell widths toward balance.

    The stationary-load model: a cell's load is proportional to the
    work-density along the dimension times its width, so the balanced
    target width of cell ``i`` is ``(widths[i] / loads[i])``, normalized
    to preserve the total extent.  The new widths move ``damping`` of the
    way to the target, each bounded to a ``max_step`` relative change,
    then the cutoff floor is enforced exactly by water-filling: clamp to
    the floor and rescale only the excess above it, which preserves the
    total and keeps every width >= floor.

    ``last_move`` (the previous update's accepted ``new - widths``, per
    cell) enables the anti-oscillation brake: a cell whose proposed move
    *reverses* direction takes half the step.  At a density interface
    the uniform-density model overshoots in alternating directions — a
    vacuum-priced cell grows into dense material, reprices, shrinks,
    repeats — and the halving turns that limit cycle into geometric
    decay, so the controller's min-move gate can actually stop.

    Total extent, element count, and the floor invariant hold for *any*
    input (the property suite asserts this on random histories); loads
    must be non-negative with a positive sum.
    """
    widths = np.asarray(widths, dtype=np.float64)
    loads = np.asarray(loads, dtype=np.float64)
    if widths.ndim != 1 or widths.shape != loads.shape:
        raise ValueError(
            f"widths/loads must be matching 1-D arrays, got {widths.shape} "
            f"and {loads.shape}"
        )
    if np.any(widths <= 0):
        raise ValueError(f"widths must be positive, got {widths}")
    if np.any(loads < 0) or float(loads.sum()) <= 0.0:
        raise ValueError(f"loads must be non-negative with a positive sum: {loads}")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if max_step <= 0.0:
        raise ValueError(f"max_step must be positive, got {max_step}")
    total = float(widths.sum())
    n = widths.size
    if total <= n * floor:
        # The grid is already at (or below) the floor everywhere: no
        # freedom to move anything.
        return widths.copy()
    # Load per unit width ~ local work density; an empty cell would ask
    # for infinite width, so density is floored at a tiny fraction of
    # the mean (the floor clamp bounds the actual growth anyway).
    density = loads / widths
    density = np.maximum(density, 1e-6 * float(density.mean()))
    target = (1.0 / density) / float((1.0 / density).sum()) * total
    new = widths + damping * (target - widths)
    new = np.clip(new, widths * (1.0 - max_step), widths * (1.0 + max_step))
    if last_move is not None:
        last_move = np.asarray(last_move, dtype=np.float64)
        if last_move.shape != widths.shape:
            raise ValueError(
                f"last_move must match widths, got {last_move.shape} "
                f"and {widths.shape}"
            )
        flip = (new - widths) * last_move < 0.0
        new = np.where(flip, widths + 0.5 * (new - widths), new)
    # The per-cell clamp may have changed the sum; restore it before the
    # floor pass so the box extent is always preserved exactly.
    new = new / float(new.sum()) * total
    # Water-filling floor clamp: redistribute the extent above the floor
    # proportionally to each cell's share of it.
    excess = total - n * floor
    free = np.maximum(new - floor, 0.0)
    free_sum = float(free.sum())
    if free_sum <= 0.0:
        # Degenerate (every proposed width at/below floor): split the
        # excess evenly, i.e. fall back to the uniform grid.
        return np.full(n, total / n)
    return floor + free * (excess / free_sum)


@dataclass
class DlbController:
    """Staggered per-dimension DLB driver bound to one decomposition.

    ``update(loads)`` performs at most one dimension's resize per call
    (cycling z -> y -> x over the decomposed dims), so consecutive
    neighbour searches rebalance different dimensions — the
    tensor-product analogue of GROMACS' staggered row updates.
    """

    dd: DomainDecomposition
    damping: float = DLB_DAMPING
    min_move: float = DLB_MIN_MOVE
    #: Dims this controller may resize: decomposed *and* above the floor.
    dims: list[int] = field(init=False)
    #: Total accepted boundary moves (mirrors the ``dd.dlb.adjustments``
    #: counter, kept here for direct assertions).
    adjustments: int = field(init=False, default=0)
    #: Imbalance %% of the last update's input loads, and the model's
    #: prediction after the accepted move (None before the first update).
    last_imbalance_before: float | None = field(init=False, default=None)
    last_imbalance_after: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.dims = [
            d
            for d in self.dd.grid.decomposed_dims()
            if float(self.dd.box[d]) > self.dd.grid.shape[d] * self.dd.width_floor(d)
        ]
        self._turn = 0
        #: Per-dim accepted move of the last update (feeds the
        #: anti-oscillation brake in :func:`resize_widths`).
        self._last_move: dict[int, np.ndarray] = {}

    # -- load aggregation ------------------------------------------------------

    def slab_loads(self, loads: np.ndarray, d: int) -> np.ndarray:
        """Per-slab load along dim ``d``: sum of its ranks' loads."""
        loads = np.asarray(loads, dtype=np.float64)
        if loads.shape != (self.dd.grid.n_ranks,):
            raise ValueError(
                f"need one load per rank ({self.dd.grid.n_ranks}), got "
                f"shape {loads.shape}"
            )
        out = np.zeros(self.dd.grid.shape[d])
        for rank in range(self.dd.grid.n_ranks):
            out[self.dd.grid.coords_of_rank(rank)[d]] += loads[rank]
        return out

    # -- the update step -------------------------------------------------------

    def update(self, loads: np.ndarray) -> bool:
        """One staggered DLB pass; True iff boundaries actually moved.

        Must only be called when the caller is about to run a full
        neighbour search (redistribution + halo re-plan + list rebuild).
        """
        if not self.dims:
            return False
        d = self.dims[self._turn % len(self.dims)]
        self._turn += 1
        slab = self.slab_loads(loads, d)
        widths = self.dd.cell_widths(d)
        self.last_imbalance_before = imbalance_pct(
            float(slab.mean()), float(slab.max())
        )
        if float(slab.sum()) <= 0.0:
            return False
        new = resize_widths(
            widths, slab, self.dd.width_floor(d), self.damping,
            last_move=self._last_move.get(d),
        )
        rel_move = float(np.max(np.abs(new - widths)) / widths.mean())
        if rel_move < self.min_move:
            return False
        edges = np.concatenate(([0.0], np.cumsum(new)))
        edges[-1] = float(self.dd.box[d])
        self.dd.set_boundaries(d, edges)
        self._last_move[d] = new - widths
        self.adjustments += 1
        # Stationary-load prediction of the post-move imbalance: load
        # scales with the width each slab now covers.
        predicted = slab / widths * new
        self.last_imbalance_after = imbalance_pct(
            float(predicted.mean()), float(predicted.max())
        )
        METRICS.counter("dd.dlb.adjustments", dim=str(d)).inc()
        METRICS.gauge("dd.dlb.imbalance_before_pct").set(self.last_imbalance_before)
        METRICS.gauge("dd.dlb.imbalance_after_pct").set(self.last_imbalance_after)
        spread = float(new.max() / new.min())
        METRICS.gauge("dd.dlb.boundary_spread", dim=str(d)).set(spread)
        METRICS.histogram("dd.dlb.move_rel").observe(rel_move)
        return True
