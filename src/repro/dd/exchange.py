"""Cluster state and the synchronous reference halo exchange.

The reference exchange is the simplest correct implementation: pulses are
processed strictly in global order, all ranks in lock-step (what the paper
calls the "baseline (serialized pulses)" formulation, Sec. 5.1).  The
fused NVSHMEM-style backend in :mod:`repro.comm` must produce bit-identical
results while exercising its own signal-driven data path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dd.decomposition import DomainDecomposition
from repro.dd.halo import HaloExchangePlan, build_halo_plan
from repro.md.system import MDSystem


@dataclass
class ClusterState:
    """Per-rank working arrays for a decomposed system.

    ``local_pos``/``local_forces`` have ``n_local`` rows (home atoms first,
    halo zones appended in pulse order at their ``atom_offset``); velocities
    exist for home atoms only (halo atoms are integrated by their owners).
    """

    system: MDSystem
    dd: DomainDecomposition
    plan: HaloExchangePlan
    local_pos: list[np.ndarray]
    local_vel: list[np.ndarray]
    local_forces: list[np.ndarray]
    local_types: list[np.ndarray]
    local_charges: list[np.ndarray]
    local_masses: list[np.ndarray]

    @property
    def n_ranks(self) -> int:
        return self.dd.grid.n_ranks

    def invalidate_halo_coords(self) -> None:
        """Poison halo coordinate slots so stale reads are caught by tests."""
        for r, plan in enumerate(self.plan.ranks):
            self.local_pos[r][plan.n_home :] = np.nan


def build_cluster(
    system: MDSystem,
    dd: DomainDecomposition,
    trim_corners: bool = False,
    fresh_halo: bool = True,
) -> ClusterState:
    """Decompose ``system`` and materialize per-rank arrays.

    ``fresh_halo=False`` poisons the halo coordinate slots with NaN so that
    tests can prove a backend actually communicates every entry.
    """
    system.wrap()
    plan = build_halo_plan(dd, system.positions, trim_corners=trim_corners)
    dtype = system.dtype
    local_pos, local_vel, local_forces = [], [], []
    local_types, local_charges, local_masses = [], [], []
    for rank_plan in plan.ranks:
        ids = rank_plan.global_ids
        home_ids = ids[: rank_plan.n_home]
        # A copy even in float64: the plan keeps its build-time positions,
        # while local_pos is integrated in place.
        pos = rank_plan.positions.astype(dtype)
        local_pos.append(pos)
        local_forces.append(np.zeros_like(pos))
        local_vel.append(system.velocities.take(home_ids, axis=0))
        local_types.append(system.type_ids.take(ids))
        local_charges.append(system.charges.take(ids))
        local_masses.append(system.masses.take(home_ids))
    cluster = ClusterState(
        system=system,
        dd=dd,
        plan=plan,
        local_pos=local_pos,
        local_vel=local_vel,
        local_forces=local_forces,
        local_types=local_types,
        local_charges=local_charges,
        local_masses=local_masses,
    )
    if not fresh_halo:
        cluster.invalidate_halo_coords()
    return cluster


# -- reference (serialized) exchanges ---------------------------------------


def reference_coordinate_exchange(cluster: ClusterState, on_pulse=None) -> None:
    """Coordinate halo: pulses strictly in order, all ranks in lock-step.

    ``on_pulse(rank, pulse_id)``, when given, fires for every rank after
    each pulse's deliveries land (lock-step order means every rank's
    inbound pulse ``pid`` is complete at the same point).
    """
    plan = cluster.plan
    for pid in range(plan.n_pulses):
        # Pack everything first (lock-step: sends use pre-pulse state, which
        # is safe because earlier pulses already completed).
        packed: list[np.ndarray] = []
        for rank_plan in plan.ranks:
            p = rank_plan.pulses[pid]
            buf = cluster.local_pos[rank_plan.rank][p.index_map]
            buf = buf + p.coord_shift.astype(buf.dtype)
            packed.append(buf)
        for rank_plan in plan.ranks:
            p = rank_plan.pulses[pid]
            dest = cluster.local_pos[p.send_rank]
            dp = plan.ranks[p.send_rank].pulses[pid]
            if dp.recv_size != p.send_size:
                raise AssertionError(
                    f"pulse {pid}: rank {rank_plan.rank} sends {p.send_size} "
                    f"but rank {p.send_rank} expects {dp.recv_size}"
                )
            dest[dp.atom_offset : dp.atom_offset + dp.recv_size] = packed[rank_plan.rank]
        if on_pulse is not None:
            for rank_plan in plan.ranks:
                on_pulse(rank_plan.rank, pid)


def reference_force_exchange(cluster: ClusterState) -> None:
    """Force halo: reverse sweep, accumulating into the coordinate senders.

    Roles reverse versus coordinates (paper Algorithm 6): the rank that
    received a zone's coordinates now returns the forces accumulated on that
    zone to the rank that sent them, which adds them at its ``index_map``
    positions — possibly into its own halo slots, to be forwarded by an
    earlier (in coordinate order) pulse: the dependency chain handled in
    DEP_MGMT mode.
    """
    plan = cluster.plan
    for pid in range(plan.n_pulses - 1, -1, -1):
        staged: list[np.ndarray] = []
        for rank_plan in plan.ranks:
            p = rank_plan.pulses[pid]
            block = cluster.local_forces[rank_plan.rank][
                p.atom_offset : p.atom_offset + p.recv_size
            ]
            staged.append(block.copy())
        for rank_plan in plan.ranks:
            p = rank_plan.pulses[pid]
            # Forces for the zone this rank received go back to recv_rank,
            # whose own pulse-p index_map says where they accumulate.
            target = p.recv_rank
            tp = plan.ranks[target].pulses[pid]
            buf = staged[rank_plan.rank]
            if buf.shape[0] != tp.send_size:
                raise AssertionError(
                    f"pulse {pid}: force return size {buf.shape[0]} != "
                    f"coordinate send size {tp.send_size}"
                )
            np.add.at(cluster.local_forces[target], tp.index_map, buf)


# -- gathers ------------------------------------------------------------------


def gather_positions(cluster: ClusterState) -> np.ndarray:
    """Reassemble the global position array from per-rank home atoms."""
    out = np.zeros_like(cluster.system.positions)
    seen = np.zeros(cluster.system.n_atoms, dtype=bool)
    for rank_plan in cluster.plan.ranks:
        ids = rank_plan.global_ids[: rank_plan.n_home]
        if np.any(seen[ids]):
            raise AssertionError("atom owned by more than one rank")
        seen[ids] = True
        out[ids] = cluster.local_pos[rank_plan.rank][: rank_plan.n_home]
    if not np.all(seen):
        raise AssertionError("atom owned by no rank")
    return out


def gather_forces(cluster: ClusterState, dtype=np.float64) -> np.ndarray:
    """Reassemble global forces from per-rank *home* entries.

    Must be called after the force halo exchange; halo contributions have
    then been folded back into their owners.
    """
    out = np.zeros((cluster.system.n_atoms, 3), dtype=dtype)
    for rank_plan in cluster.plan.ranks:
        ids = rank_plan.global_ids[: rank_plan.n_home]
        out[ids] = cluster.local_forces[rank_plan.rank][: rank_plan.n_home]
    return out
