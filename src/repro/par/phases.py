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

Each half is a *dual* pair list (Páll et al. 2020's dynamic pruning, the
paper's Sec. 5.4 prune kernel): the search's *outer* list holds every
pair within ``r_comm`` = cutoff + buffer and lives until the next search;
the kernel evaluates an *inner* list of the outer pairs within
:attr:`RankConfig.r_inner` = cutoff + buffer/2, made at the search and
re-made from the outer list inside the force phase whenever one of the
half's position rows has moved more than :attr:`RankConfig.prune_drift`
= buffer/4 since.  A pruned pair was more than cutoff + buffer/2 apart
and each atom has since moved at most buffer/4, so it is still beyond the
cutoff: the guard is exact, and local to the rank.

The outer list's own lifetime is decided on the ranks too: the search
keeps a copy of the home rows (:attr:`SplitPairs.home_ref`), and
``integrate`` returns the largest squared home-row displacement since
then.  Home atoms partition the system, so the engine's maximum over
ranks is the global maximum its buffer/2 rebuild rule needs.

The data model:

* :class:`RankConfig` — static for the life of a simulator (force field,
  kernel precision, integrator, box geometry).  Sent to process workers once.
* :class:`RankNsData` — per-neighbour-search, per-rank metadata (home
  count, zone shifts, pulse provenance, rank-local bonded lists).  Sent at
  every rebind; contains only index arrays and small parameter tables.
* :class:`RankWorkspace` — the per-rank working set: views over the
  cluster arrays (or their shared-memory twins in worker processes) plus
  the cached :class:`SplitPairs` produced by the ``pairs`` phase.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.md.bonded import angle_forces, bond_forces, exclusion_correction
from repro.md.integrator import LeapFrogIntegrator
from repro.md.forcefield import ForceField
from repro.md.kernels import build_split
from repro.md.nonbonded import DualList, PairBlock, block_forces, drift_guard

#: Cluster array fields every workspace carries, in layout order.  The
#: executor shared-memory arena and the engine's ``ClusterState`` lists
#: (``local_<name>``) both follow this naming.
FIELDS: tuple[str, ...] = ("pos", "vel", "forces", "types", "charges", "masses")


@dataclass
class RankConfig:
    """Simulator-lifetime configuration shared by all ranks (picklable)."""

    ff: ForceField
    #: Kernel compute precision, kept as the name, never as an
    #: ``np.dtype``: this config reaches process workers by pickle, and an
    #: unpickled ``np.dtype`` is a copy, not NumPy's singleton — scratch
    #: arrays created with the copy run ~3 % slower through
    #: ``block_forces``, which therefore keys and creates its scratch by
    #: this name.
    dtype: str
    integrator: LeapFrogIntegrator
    box: np.ndarray
    periodic: np.ndarray
    r_comm: float

    @property
    def r_inner(self) -> float:
        """Radius of the inner (evaluated) pair lists: cutoff + buffer/2."""
        cutoff = self.ff.cutoff
        return cutoff + 0.5 * (self.r_comm - cutoff)

    @property
    def prune_drift(self) -> float:
        """Largest displacement since its prune an inner list tolerates.

        Two atoms can close twice this, which must not span the
        ``r_inner - cutoff`` margin: buffer/4.
        """
        return 0.5 * (self.r_inner - self.ff.cutoff)


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
    """The per-rank dual pair list, split for comm–compute overlap.

    ``local`` holds the home–home pairs in ``(i, j)`` order; ``nonlocal_``
    the halo-touching ones sorted by (required pulse, i, j) with
    ``pulse_offsets`` marking the per-pulse groups of its outer list
    (offset ``p`` .. ``p+1`` needs pulses 0..p complete), mirroring the
    paper's ``depOffset`` dependency partition; its inner block keeps the
    groups as segment boundaries.  Excluded (intramolecular) pairs are
    carried separately for the electrostatic exclusion correction, split
    by the same home/halo rule.  ``home_ref`` is the home rows at the
    search: the outer lists hold while no row has moved buffer/2 from it.
    """

    local: DualList
    nonlocal_: DualList
    pulse_offsets: np.ndarray
    excl_local: tuple[np.ndarray, np.ndarray]
    excl_nonlocal: tuple[np.ndarray, np.ndarray]
    stats: dict
    home_ref: np.ndarray
    #: The rank's leap-frog (:meth:`LeapFrogIntegrator.bind`), bound to
    #: its arrays and ``home_ref`` at the first step after the search.
    advance: Callable[[], tuple[float, float]] | None = None


class ForceHalf(NamedTuple):
    """What one force phase returns for one rank.

    The energies, the inner pairs the kernel evaluated and whether the
    guard re-pruned them first: the phase result is the only channel
    from a worker process back to the engine's metrics.
    """

    e_lj: float
    e_corr: float
    e_coul: float
    e_bonded: float
    pairs: int
    pruned: bool


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
    split into local / per-pulse non-local outer lists (see
    :class:`SplitPairs`) — exclusion masking and the sorts happen here,
    once per neighbour search, not per step.  Only the lightweight
    ``stats`` dict crosses an executor boundary.

    The search itself is the M×N cluster-pair search of
    :func:`repro.md.kernels.build_split`, which returns the flat outer
    lists; both inner blocks, with their cached kernel parameters, are
    pruned from them here, at the search's positions.
    """
    ws.pairs = None  # the last search's lists are garbage from here on
    sp = ws.pairs = SplitPairs(
        **build_split(ws),
        home_ref=ws.pos[: ws.ns.n_home].copy(),
    )
    for half in (sp.local, sp.nonlocal_):
        _prune(ws, half)
        # The inner blocks stand beside the outer list until the next search.
        for key in ("pairlist_bytes", "build_peak_bytes"):
            sp.stats[key] += half.block.nbytes
    return sp.stats


def _prune(ws: RankWorkspace, half: DualList) -> None:
    """Make ``half``'s inner block from its outer list at the current
    positions, and remember those positions."""
    cfg = ws.cfg
    # Release the previous block first: the new one reuses its pages
    # instead of growing the heap beside it.
    half.block = None
    # A half that reads halo rows keeps its outer list's pulse partition
    # as segment boundaries; home rows need no pulse.
    src = ws.ns.src_pulse if half.rows > ws.ns.n_home else None
    half.block = PairBlock.pruned(
        ws.pos, half.i, half.j, cfg.r_inner, ws.types, ws.charges,
        cfg.ff, box=cfg.box, periodic=cfg.periodic, src_pulse=src,
    )
    half.ref = ws.pos[: half.rows].copy()
    half.drifted = drift_guard(ws.pos, half.ref, cfg.prune_drift)


def _guard(ws: RankWorkspace, half: DualList) -> bool:
    """Re-prune ``half`` if any of its rows moved more than
    ``prune_drift`` since its last prune; return whether it did.

    A non-finite displacement re-prunes too.
    """
    if not half.drifted():
        return False
    _prune(ws, half)
    return True


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
    ws: RankWorkspace, half: DualList, excl: tuple, which: str
) -> ForceHalf:
    """Shared body of the two force phases: guard, corrections, bonded,
    kernel."""
    cfg = ws.cfg
    pruned = _guard(ws, half)
    e_corr = 0.0
    e_bonded = 0.0
    if ws.ns.bonded is not None:
        ei, ej = excl
        _, e_corr = exclusion_correction(
            ws.pos, ei, ej,
            ws.charges, cfg.ff,
            box=cfg.box, periodic=cfg.periodic,
            out_forces=ws.forces,
        )
        e_bonded = _bonded_package(ws, which, ws.forces)
    _, e_lj, e_coul = block_forces(
        ws.pos, half.block, cfg.ff,
        box=cfg.box, periodic=cfg.periodic, out_forces=ws.forces,
        dtype=cfg.dtype,
    )
    return ForceHalf(e_lj, e_corr, e_coul, e_bonded, half.block.n_pairs, pruned)


def compute_forces_local(ws: RankWorkspace) -> ForceHalf:
    """Home-only forces for one rank (no halo coordinates touched).

    Zeroes the force array, then accumulates home-pair non-bonded forces,
    home-only bonded terms, and home-only exclusion corrections.  Reads
    only home coordinate rows — the guard watches exactly those — so it
    may run concurrently with the coordinate halo exchange writing the
    halo rows.
    """
    sp = ws.pairs
    if sp is None:
        raise RuntimeError("run the 'pairs' phase before 'forces_local'")
    ws.forces[:] = 0.0
    return _forces_half(ws, sp.local, sp.excl_local, "home")


def compute_forces_nonlocal(ws: RankWorkspace) -> ForceHalf:
    """Halo-touching forces for one rank; requires fresh halo coordinates.

    Must run after ``forces_local`` (it accumulates into the same array)
    and after this rank's inbound coordinate pulses have completed — so
    its guard can watch every row.
    """
    sp = ws.pairs
    if sp is None:
        raise RuntimeError("run the 'pairs' phase before 'forces_nonlocal'")
    return _forces_half(ws, sp.nonlocal_, sp.excl_nonlocal, "halo")


def integrate(ws: RankWorkspace) -> tuple[float, float]:
    """Leap-frog step for one rank's home atoms.

    Returns ``(kinetic energy, max_disp²)``: the largest squared
    displacement of a home row since the search, the rank's share of
    the rebuild decision.  Positions stay unwrapped between searches, so
    no minimum image is needed; the difference is taken in the storage
    precision and squared in float64.  A non-finite row yields NaN.

    Positions and velocities are written *in place* so the updates land
    in the shared arrays regardless of which process ran the phase.
    """
    sp = ws.pairs
    if sp.advance is None:  # the first step since the search
        sp.advance = ws.cfg.integrator.bind(
            ws.pos, ws.vel, ws.forces, ws.masses, sp.home_ref
        )
    return sp.advance()


#: Phase registry: the names executors accept in ``run``.
PHASES: dict[str, "callable"] = {
    "pairs": pair_search,
    "forces_local": compute_forces_local,
    "forces_nonlocal": compute_forces_nonlocal,
    "integrate": integrate,
}
