"""Staged eighth-shell halo plan construction.

Builds, for every rank, the ordered pulse list of the GROMACS halo exchange:
z-phase, then y-phase, then x-phase, data moving toward the negative
direction in each decomposed dimension.  The key property reproduced from
the paper (Sec. 2.2 and 5.1):

* *forwarding* — each phase's send selection includes halo atoms received in
  earlier phases, which is what couples the pulses and creates the
  ``depOffset`` dependent/independent split the fused NVSHMEM kernels exploit;
* *zone shifts* — every local atom carries the integer count of boundaries it
  crossed per dimension; the pair-assignment rule ("elementwise min of zone
  shifts is zero") makes every within-cutoff pair computed on exactly one
  rank (neutral territory: possibly a rank owning neither atom).

Selection uses the slab criterion (coordinate within ``r_comm`` of the
sending boundary plane); ``trim_corners=True`` additionally applies the
Euclidean corner-distance trim (GROMACS' multi-body distance check), which
provably preserves correctness while cutting diagonal over-communication:
an atom forwarded with zone shifts S can only be needed by a pair partner
inside the receiving slab column, so sum of squared per-dimension excesses
over S bounded by r_comm^2 is necessary for any within-cutoff pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dd.decomposition import DomainDecomposition
from repro.dd.grid import PHASE_DIMS
from repro.dd.pulse import PulseData


@dataclass
class RankHaloPlan:
    """One rank's halo layout: home atoms first, pulse zones appended after."""

    rank: int
    n_home: int
    global_ids: np.ndarray  # (n_local,) local -> global atom index
    positions: np.ndarray  # (n_local, 3) build-time coordinates (shifted)
    zone_shift: np.ndarray  # (n_local, 3) int boundaries crossed per dim
    src_pulse: np.ndarray  # (n_local,) pulse id that delivered the atom (-1 home)
    pulses: list[PulseData] = field(default_factory=list)

    @property
    def n_local(self) -> int:
        return int(self.global_ids.size)

    @property
    def n_halo(self) -> int:
        return self.n_local - self.n_home

    def pulse(self, pulse_id: int) -> PulseData:
        return self.pulses[pulse_id]


@dataclass
class HaloExchangePlan:
    """The collective plan: one RankHaloPlan per rank plus pulse bookkeeping."""

    dd: DomainDecomposition
    r_comm: float
    ranks: list[RankHaloPlan]
    pulse_dims: list[int]  # dim of each global pulse id, in order

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_dims)

    def total_sent(self) -> int:
        """Total entries communicated per coordinate exchange, all ranks."""
        return sum(p.send_size for r in self.ranks for p in r.pulses)


def build_halo_plan(
    dd: DomainDecomposition,
    positions: np.ndarray,
    home: list[np.ndarray] | None = None,
    trim_corners: bool = False,
) -> HaloExchangePlan:
    """Construct the staged halo plan for wrapped global ``positions``.

    Parameters
    ----------
    dd:
        The decomposition (grid + box + r_comm).
    positions:
        (N, 3) wrapped coordinates used for the selection geometry (the plan
        is rebuilt at every neighbour-search step, like GROMACS').
    home:
        Optional precomputed per-rank home index arrays.
    trim_corners:
        Apply the Euclidean corner-distance trim to forwarded entries.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if home is None:
        home = dd.home_indices(positions)
    grid = dd.grid
    box = dd.box
    r_comm = dd.r_comm

    plans: list[RankHaloPlan] = []
    for rank in grid.all_ranks():
        ids = home[rank]
        plans.append(
            RankHaloPlan(
                rank=rank,
                n_home=int(ids.size),
                global_ids=ids.astype(np.int64),
                positions=positions[ids].copy(),
                zone_shift=np.zeros((ids.size, 3), dtype=np.int8),
                src_pulse=np.full(ids.size, -1, dtype=np.int32),
            )
        )

    pulse_dims: list[int] = []
    pulse_id = 0
    for dim in PHASE_DIMS:
        nd = grid.shape[dim]
        if nd == 1:
            continue
        # Multiple pulses when domains are thinner than r_comm (the paper's
        # second-neighbour case): pulse 0 selects from home + cross-dimension
        # halo; pulse k > 0 forwards only what arrived in pulse k-1 of the
        # same dimension that the next receiver still needs.
        for k in range(dd.npulses[dim]):
            selections: list[np.ndarray] = []
            for rank in grid.all_ranks():
                plan = plans[rank]
                lo_plane = dd.bounds_of_rank(rank).lo[dim]
                coords_d = plan.positions[:, dim]
                mask = coords_d < lo_plane + r_comm
                if k == 0:
                    # First hop: everything not yet moved along this dim.
                    mask &= plan.zone_shift[:, dim] == 0
                else:
                    # Later hops: only the previous same-dim pulse's cargo.
                    mask &= plan.src_pulse == pulse_id - 1
                if trim_corners:
                    mask &= _corner_trim_mask(plan, dd, rank, dim, lo_plane, r_comm)
                sel = np.nonzero(mask)[0]
                # Independent (home) entries first, dependent (forwarded) after.
                is_dep = plan.src_pulse[sel] >= 0
                sel = np.concatenate([sel[~is_dep], sel[is_dep]])
                selections.append(sel)

            # Deliver: rank sends to its -dim neighbour, receives from +dim.
            recv_payload: list[dict] = [None] * grid.n_ranks  # type: ignore[list-item]
            for rank in grid.all_ranks():
                plan = plans[rank]
                sel = selections[rank]
                send_rank = grid.neighbor_rank(rank, dim, -1)
                recv_rank = grid.neighbor_rank(rank, dim, +1)
                sender_coord = grid.coords_of_rank(rank)[dim]
                shift = np.zeros(3)
                if sender_coord == 0:
                    shift[dim] = box[dim]
                dep_offset = int(np.count_nonzero(plan.src_pulse[sel] < 0))
                depends_on = tuple(
                    sorted(set(int(p) for p in plan.src_pulse[sel] if p >= 0))
                )
                pdata = PulseData(
                    pulse_id=pulse_id,
                    dim=dim,
                    pulse_in_dim=k,
                    rank=rank,
                    send_rank=send_rank,
                    recv_rank=recv_rank,
                    index_map=sel,
                    dep_offset=dep_offset,
                    depends_on=depends_on,
                    coord_shift=shift,
                    atom_offset=0,  # set below on the receiving side
                    recv_size=0,
                )
                plan.pulses.append(pdata)
                recv_payload[send_rank] = {
                    "positions": plan.positions[sel] + shift,
                    "global_ids": plan.global_ids[sel],
                    "zone_shift": plan.zone_shift[sel].copy(),
                }

            for rank in grid.all_ranks():
                plan = plans[rank]
                payload = recv_payload[rank]
                pdata = plan.pulses[pulse_id]
                pdata.atom_offset = plan.n_local
                pdata.recv_size = int(payload["global_ids"].size)
                zs = payload["zone_shift"]
                zs[:, dim] += 1
                plan.positions = np.vstack([plan.positions, payload["positions"]])
                plan.global_ids = np.concatenate([plan.global_ids, payload["global_ids"]])
                plan.zone_shift = np.vstack([plan.zone_shift, zs])
                plan.src_pulse = np.concatenate(
                    [plan.src_pulse, np.full(pdata.recv_size, pulse_id, dtype=np.int32)]
                )

            pulse_dims.append(dim)
            pulse_id += 1

    return HaloExchangePlan(dd=dd, r_comm=r_comm, ranks=plans, pulse_dims=pulse_dims)


def _corner_trim_mask(
    plan: RankHaloPlan,
    dd: DomainDecomposition,
    rank: int,
    dim: int,
    lo_plane: float,
    r_comm: float,
) -> np.ndarray:
    """Euclidean corner-distance trim for forwarded entries.

    For an atom with zone shifts along dims S (after the prospective hop the
    current dim joins S), any within-cutoff pair partner on the receiving
    rank lies inside the receiver's slab in every dim of S (the pair rule
    forces the partner's shift to 0 there), so the per-dim excesses beyond
    the receiver-adjacent boundaries bound the pair distance from below:
    keep only entries with sum(excess^2) <= r_comm^2.  Home entries (no prior
    shifts) reduce to the plain slab criterion and are always kept here.
    """
    bounds = dd.bounds_of_rank(rank)
    n = plan.n_local
    d2 = np.maximum(plan.positions[:, dim] - lo_plane, 0.0) ** 2
    for k in range(3):
        if k == dim:
            continue
        shifted = plan.zone_shift[:, k] > 0
        if not np.any(shifted):
            continue
        excess = np.where(shifted, plan.positions[:, k] - bounds.hi[k], 0.0)
        d2 += np.maximum(excess, 0.0) ** 2
    return d2 <= r_comm * r_comm
