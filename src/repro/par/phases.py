"""Per-rank phase kernels shared by every executor.

These are the bodies of the DD engine's former ``for r in range(n_ranks)``
loops — neighbour-pair search, non-bonded/bonded force computation, and
leap-frog integration — factored into module-level functions so the
process executor can name them across a pickle boundary.  Every executor
(serial, process) runs exactly this code on exactly the same
per-rank arrays, which makes cross-executor bit-identity a structural
property of the design rather than a numerical accident: a rank's work
involves no cross-rank reduction, so scheduling order cannot change any
floating-point result.

The force phase is split the way GROMACS splits its non-bonded streams
(Páll et al. 2020; the paper's Algorithm 4 consumes the same partition):

* ``forces_local`` — pairs with both atoms home, home-only bonded terms,
  and home-only exclusion corrections.  Needs no halo data, so it is
  eligible the moment integration lands — *before* the coordinate halo.
* ``forces_nonlocal`` — pairs touching at least one halo atom (partitioned
  per delivering pulse via ``src_pulse``, the per-atom record of the
  ``dep_offset`` machinery), halo-touching bonded terms, and the remaining
  exclusion corrections.  Eligible per rank once that rank's inbound halo
  pulses have completed.

Both phases accumulate into the same per-rank force array in a fixed
order (local first), so the split changes nothing observable — it only
creates the window in which the halo exchange can hide.

The data model:

* :class:`RankConfig` — static for the life of a simulator (kernel,
  integrator, box geometry).  Sent to process workers once.
* :class:`RankNsData` — per-neighbour-search, per-rank metadata (home
  count, zone shifts, pulse provenance, rank-local bonded lists).  Sent at
  every rebind; contains only index arrays and small parameter tables.
* :class:`RankWorkspace` — the per-rank working set: views over the
  cluster arrays (or their shared-memory twins in worker processes) plus
  the cached :class:`SplitPairs` produced by the ``pairs`` phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.bonded import angle_forces, bond_forces, exclusion_correction
from repro.md.integrator import LeapFrogIntegrator, kinetic_energy
from repro.md.nonbonded import NonbondedKernel, PairBlock

#: Cluster array fields every workspace carries, in layout order.  The
#: executor shared-memory arena and the engine's ``ClusterState`` lists
#: (``local_<name>``) both follow this naming.
FIELDS: tuple[str, ...] = ("pos", "vel", "forces", "types", "charges", "masses")


@dataclass
class RankConfig:
    """Simulator-lifetime configuration shared by all ranks (picklable)."""

    kernel: NonbondedKernel
    integrator: LeapFrogIntegrator
    box: np.ndarray
    periodic: np.ndarray
    r_comm: float
    #: Transient working-set cap for each rank's pair-list build stages
    #: (bytes; ``None`` keeps the tuned default chunking).  Capped and
    #: uncapped builds produce bit-identical lists — see
    #: :class:`repro.md.cells.BuildBudget`.
    max_build_bytes: int | None = None


@dataclass
class RankNsData:
    """Per-rank state rebuilt at every neighbour search (picklable).

    ``bonded`` is the rank-local bonded work package or ``None`` when the
    system has no topology: ``{"mol": ..., "home": {...}, "halo": {...}}``
    where the ``home`` package references only home atoms (computed in
    ``forces_local``) and ``halo`` the rest (computed in
    ``forces_nonlocal``).  ``src_pulse`` maps each local atom to the halo
    pulse that delivered it (-1 for home atoms) and drives the per-pulse
    partition of the non-local pair list.
    """

    rank: int
    n_home: int
    zone_shift: np.ndarray
    bonded: dict | None = None
    src_pulse: np.ndarray | None = None
    n_pulses: int = 0


@dataclass
class SplitPairs:
    """The per-rank pair list, split for comm–compute overlap.

    ``local``/``nonlocal_kernel`` are segment-reduction
    :class:`~repro.md.nonbonded.PairBlock` caches; the non-local block is
    sorted by (required pulse, i) with ``pulse_offsets`` marking the
    per-pulse groups (offset ``p`` .. ``p+1`` needs pulses 0..p complete),
    mirroring the paper's ``depOffset`` dependency partition.  Excluded
    (intramolecular) pairs are carried separately for the electrostatic
    exclusion correction, split by the same home/halo rule.
    """

    local: PairBlock
    nonlocal_kernel: PairBlock
    pulse_offsets: np.ndarray
    excl_local: tuple[np.ndarray, np.ndarray]
    excl_nonlocal: tuple[np.ndarray, np.ndarray]
    stats: dict


@dataclass
class RankWorkspace:
    """One rank's live working set: config + NS data + array views."""

    cfg: RankConfig
    ns: RankNsData
    pos: np.ndarray
    vel: np.ndarray
    forces: np.ndarray
    types: np.ndarray
    charges: np.ndarray
    masses: np.ndarray
    pairs: SplitPairs | None = field(default=None)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in FIELDS}


# -- phase kernels ------------------------------------------------------------


def pair_search(ws: RankWorkspace) -> dict:
    """Rank-local pair search over home + halo with the zone rule.

    Eighth-shell assignment: a pair is computed here iff the elementwise
    minimum of the two atoms' zone shifts is zero (both atoms visible, and
    no other rank sees the pair with this property).  The kept pairs are
    split into local / per-pulse non-local blocks with cached kernel
    parameters (see :class:`SplitPairs`) — exclusion masking, parameter
    gathers, and the segment sort all happen here, once per neighbour
    search, not per step.  Only the lightweight ``stats`` dict crosses an
    executor boundary.

    The search itself is delegated to the configured kernel implementation
    (:mod:`repro.md.kernels`): ``"segment"`` searches over atoms with the
    flat cell list, ``"cluster"`` over M×N cluster tiles.  Both return
    the same :class:`SplitPairs` parts — flat :class:`PairBlock` lists
    with the same local/non-local/per-pulse semantics — so executors,
    the engine and the force phases never see which search produced
    the list.
    """
    ws.pairs = SplitPairs(**ws.cfg.kernel.impl.build_split(ws))
    return ws.pairs.stats


def _bonded_package(ws: RankWorkspace, which: str, out_forces) -> float:
    """Bond + angle forces for the ``home`` or ``halo`` bonded package."""
    cfg = ws.cfg
    bd = ws.ns.bonded[which]
    _, e_b = bond_forces(
        ws.pos, bd["bonds"], bd["bond_r0"], bd["bond_k"],
        box=cfg.box, periodic=cfg.periodic, out_forces=out_forces,
    )
    _, e_a = angle_forces(
        ws.pos, bd["angles"], bd["angle_theta0"], bd["angle_k"],
        box=cfg.box, periodic=cfg.periodic, out_forces=out_forces,
    )
    return e_b + e_a


def _forces_half(
    ws: RankWorkspace, block: PairBlock, excl: tuple, which: str
) -> tuple[float, float, float, float]:
    """Shared body of the two force phases: corrections, bonded, kernel."""
    cfg = ws.cfg
    e_corr = 0.0
    e_bonded = 0.0
    if ws.ns.bonded is not None:
        ei, ej = excl
        _, e_corr = exclusion_correction(
            ws.pos, ei, ej,
            ws.charges, cfg.kernel.ff,
            coulomb=cfg.kernel.coulomb, ewald_beta=cfg.kernel.ewald_beta,
            box=cfg.box, periodic=cfg.periodic,
            out_forces=ws.forces,
        )
        e_bonded = _bonded_package(ws, which, ws.forces)
    _, e_lj, e_coul = cfg.kernel.compute_block(
        ws.pos, block,
        box=cfg.box, periodic=cfg.periodic, out_forces=ws.forces,
    )
    return e_lj, e_corr, e_coul, e_bonded


def compute_forces_local(ws: RankWorkspace) -> tuple[float, float, float, float]:
    """Home-only forces for one rank (no halo coordinates touched).

    Zeroes the force array, then accumulates home-pair non-bonded forces,
    home-only bonded terms, and home-only exclusion corrections.  Reads
    only home coordinate rows, so it may run concurrently with the
    coordinate halo exchange writing the halo rows.

    Returns ``(e_lj, e_coul_correction, e_coul_pair, e_bonded)``.
    """
    sp = ws.pairs
    if sp is None:
        raise RuntimeError("run the 'pairs' phase before 'forces_local'")
    ws.forces[:] = 0.0
    return _forces_half(ws, sp.local, sp.excl_local, "home")


def compute_forces_nonlocal(ws: RankWorkspace) -> tuple[float, float, float, float]:
    """Halo-touching forces for one rank; requires fresh halo coordinates.

    Must run after ``forces_local`` (it accumulates into the same array)
    and after this rank's inbound coordinate pulses have completed.

    Returns ``(e_lj, e_coul_correction, e_coul_pair, e_bonded)``.
    """
    sp = ws.pairs
    if sp is None:
        raise RuntimeError("run the 'pairs' phase before 'forces_nonlocal'")
    return _forces_half(ws, sp.nonlocal_kernel, sp.excl_nonlocal, "halo")


def integrate(ws: RankWorkspace) -> float:
    """Leap-frog step for one rank's home atoms; returns kinetic energy.

    Positions and velocities are written back *in place* so the updates
    land in the shared arrays regardless of which process ran the phase.
    """
    nh = ws.ns.n_home
    x, v = ws.cfg.integrator.step(
        ws.pos[:nh], ws.vel, ws.forces[:nh], ws.masses
    )
    ws.pos[:nh] = x
    ws.vel[:] = v
    return kinetic_energy(v, ws.masses)


#: Phase registry: the names executors accept in ``run``.
PHASES: dict[str, "callable"] = {
    "pairs": pair_search,
    "forces_local": compute_forces_local,
    "forces_nonlocal": compute_forces_nonlocal,
    "integrate": integrate,
}
