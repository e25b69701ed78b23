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

``build_halo_plan`` works on *zones* — the home atoms, then what each pulse
delivered — each held flat over all ranks, so a pulse is a fixed number of
array operations whatever the rank count; only the final per-rank arrays
are cut out rank by rank.  DESIGN.md §4 "the rebuild at array speed" has
the measurements behind the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.dd.decomposition import DomainDecomposition
from repro.dd.grid import PHASE_DIMS, group_by_rank
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


class _Zone(NamedTuple):
    """One zone of every rank at once: the home atoms, or what one pulse
    delivered.  Rows are rank-major, each rank's block in local order."""

    pulse: int  # the pulse that delivered it (-1: home)
    rank: np.ndarray  # (m,) the rank holding each row
    local: np.ndarray  # (m,) each row's local index on that rank
    first: np.ndarray  # (n_ranks,) each rank's first row in the zone
    count: np.ndarray  # (n_ranks,) each rank's row count
    global_ids: np.ndarray  # (m,)
    positions: np.ndarray  # (m, 3)
    zone_shift: np.ndarray  # (m, 3)


def _zone(pulse, counts, base, global_ids, positions, zone_shift) -> _Zone:
    """A zone whose rank blocks hold ``counts`` rows, the first at ``base``."""
    first = np.cumsum(counts) - counts
    rank = np.repeat(np.arange(counts.size), counts)
    local = np.arange(rank.size) + np.repeat(base - first, counts)
    return _Zone(pulse, rank, local, first, counts, global_ids, positions, zone_shift)


def build_halo_plan(
    dd: DomainDecomposition,
    positions: np.ndarray,
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
    trim_corners:
        Apply the Euclidean corner-distance trim to forwarded entries.
    """
    positions = np.asarray(positions, dtype=np.float64)
    grid = dd.grid
    n_ranks = grid.n_ranks
    box = dd.box
    r_comm = dd.r_comm

    order, n_home = group_by_rank(dd.assign_atoms(positions), n_ranks)
    zones = [
        _zone(
            -1, n_home, np.zeros(n_ranks, dtype=np.int64), order,
            positions.take(order, axis=0), np.zeros((order.size, 3), dtype=np.int8),
        )
    ]
    n_local = n_home.copy()
    rank_pulses: list[list[PulseData]] = [[] for _ in range(n_ranks)]
    pulse_dims: list[int] = []
    pulse_id = 0
    for dim in PHASE_DIMS:
        if grid.shape[dim] == 1:
            continue
        # Rank r sends to its -dim neighbour send_to[r] and receives from
        # its +dim neighbour recv_from[r]; a sender at the low edge of the
        # box shifts what it sends by one box length.
        send_to = grid.neighbor_ranks(dim, -1)
        recv_from = grid.neighbor_ranks(dim, +1)
        shifts = np.zeros((n_ranks, 3))
        shifts[grid.coords[:, dim] == 0, dim] = box[dim]
        # Multiple pulses when domains are thinner than r_comm (the paper's
        # second-neighbour case): pulse 0 selects from home + cross-dimension
        # halo; pulse k > 0 forwards only what arrived in pulse k-1 of the
        # same dimension that the next receiver still needs.  (No row has
        # moved along ``dim`` before its first pulse.)
        for k in range(dd.npulses[dim]):
            sources = zones if k == 0 else zones[-1:]
            picks = [_select(z, dd, dim, trim_corners) for z in sources]
            senders = [z.rank.take(sel) for z, sel in zip(sources, picks)]
            sender = np.concatenate(senders)
            # Group the selected rows by receiver.  The rows arrive zone by
            # zone, each zone rank-major in local order, so the stable
            # grouping leaves every sender's rows in ascending local order:
            # independent (home) entries first, dependent (forwarded) after.
            by_recv, recv_size = group_by_rank(send_to.take(sender), n_ranks)
            sender = sender.take(by_recv)

            def gather(field: str) -> np.ndarray:
                parts = [getattr(z, field).take(sel, axis=0) for z, sel in zip(sources, picks)]
                return np.concatenate(parts).take(by_recv, axis=0)

            index_maps = _split(gather("local"), recv_size)
            dep_offset = np.zeros(n_ranks, dtype=np.int64)
            feeds = []  # (pulse id, ranks whose selection holds its rows)
            for z, s in zip(sources, senders):
                count = np.bincount(s, minlength=n_ranks)
                if z.pulse < 0:
                    dep_offset = count
                else:
                    feeds.append((z.pulse, count > 0))

            atom_offset = n_local.copy()
            for rank, (send, recv, dep, off, size) in enumerate(
                zip(send_to.tolist(), recv_from.tolist(), dep_offset.tolist(),
                    atom_offset.tolist(), recv_size.tolist())
            ):
                rank_pulses[rank].append(
                    PulseData(
                        pulse_id=pulse_id,
                        dim=dim,
                        pulse_in_dim=k,
                        rank=rank,
                        send_rank=send,
                        recv_rank=recv,
                        index_map=index_maps[send],  # what its receiver gets
                        dep_offset=dep,
                        depends_on=tuple(p for p, fed in feeds if fed[rank]),
                        coord_shift=shifts[rank],
                        atom_offset=off,
                        recv_size=size,
                    )
                )

            moved = gather("positions")
            moved += shifts.take(sender, axis=0)
            zone_shift = gather("zone_shift")
            zone_shift[:, dim] += 1
            zones.append(
                _zone(pulse_id, recv_size, atom_offset, gather("global_ids"), moved, zone_shift)
            )
            n_local += recv_size
            pulse_dims.append(dim)
            pulse_id += 1

    # Lay every rank's zones out one after another, in zone order.
    spans = [list(zip(z.first.tolist(), (z.first + z.count).tolist())) for z in zones]

    def per_rank(field: str) -> list[np.ndarray]:
        columns = [getattr(z, field) for z in zones]
        return [
            np.concatenate([col[a:b] for col, (a, b) in zip(columns, rank_spans)])
            for rank_spans in zip(*spans)
        ]

    zone_pulse = np.array([z.pulse for z in zones], dtype=np.int32)
    plans = [
        RankHaloPlan(
            rank=rank,
            n_home=home,
            global_ids=ids,
            positions=pos,
            zone_shift=zs,
            src_pulse=np.repeat(zone_pulse, counts),
            pulses=rank_pulses[rank],
        )
        for rank, (home, ids, pos, zs, counts) in enumerate(
            zip(
                n_home.tolist(),
                per_rank("global_ids"),
                per_rank("positions"),
                per_rank("zone_shift"),
                np.stack([z.count for z in zones], axis=1),
            )
        )
    ]
    return HaloExchangePlan(dd=dd, r_comm=r_comm, ranks=plans, pulse_dims=pulse_dims)


def _split(array: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """``array`` cut into consecutive views of ``counts`` rows each."""
    ends = np.cumsum(counts).tolist()
    return [array[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _select(zone: _Zone, dd: DomainDecomposition, dim: int, trim_corners: bool) -> np.ndarray:
    """Rows of ``zone`` within ``r_comm`` of their rank's lower ``dim`` plane."""
    lo_plane = dd.lo[:, dim].take(zone.rank)
    coords_d = zone.positions[:, dim]
    mask = coords_d < lo_plane + dd.r_comm
    if trim_corners:
        mask &= _corner_trim_mask(zone, dd, dim, lo_plane)
    return np.flatnonzero(mask)


def _corner_trim_mask(
    zone: _Zone, dd: DomainDecomposition, dim: int, lo_plane: np.ndarray
) -> np.ndarray:
    """Euclidean corner-distance trim for forwarded entries.

    For an atom with zone shifts along dims S (after the prospective hop the
    current dim joins S), any within-cutoff pair partner on the receiving
    rank lies inside the receiver's slab in every dim of S (the pair rule
    forces the partner's shift to 0 there), so the per-dim excesses beyond
    the receiver-adjacent boundaries bound the pair distance from below:
    keep only entries with sum(excess^2) <= r_comm^2.  Home entries (no prior
    shifts) reduce to the plain slab criterion and are always kept here.
    An unshifted row adds an exact ``+0.0``.
    """
    pos = zone.positions
    d2 = np.maximum(pos[:, dim] - lo_plane, 0.0) ** 2
    for k in range(3):
        if k == dim:
            continue
        shifted = zone.zone_shift[:, k] > 0
        if not np.any(shifted):
            continue
        excess = np.where(shifted, pos[:, k] - dd.hi[:, k].take(zone.rank), 0.0)
        d2 += np.maximum(excess, 0.0) ** 2
    return d2 <= dd.r_comm * dd.r_comm
