"""Serial reference MD simulator — the ground truth for the DD engine.

Runs the exact same physics as the domain-decomposed engine (same force
field, same buffered pair-list lifecycle, same integrator) on a single
"rank", so any discrepancy isolated in tests points at the halo exchange or
pair-assignment logic rather than the physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md import kernels
from repro.md.forcefield import ForceField
from repro.md.integrator import LeapFrogIntegrator
from repro.md.nonbonded import PairBlock, block_forces
from repro.md.pairlist import PairList, VerletListBuilder
from repro.md.system import MDSystem


@dataclass
class StepEnergies:
    """Energies recorded for one MD step."""

    step: int
    lj: float
    coulomb: float
    kinetic: float
    bonded: float = 0.0

    @property
    def potential(self) -> float:
        return self.lj + self.coulomb + self.bonded

    @property
    def total(self) -> float:
        return self.potential + self.kinetic


@dataclass
class ReferenceSimulator:
    """Single-rank MD driver with the GROMACS pair-list lifecycle."""

    system: MDSystem
    ff: ForceField
    nstlist: int = 20
    buffer: float = 0.1
    dt: float = 0.002
    topology: "object | None" = None
    #: Accepted and ignored (see ``DDSimulator.kernel``): the list
    #: always comes from the flat
    #: :class:`~repro.md.pairlist.VerletListBuilder`, so this oracle
    #: shares no search code with the cluster search it checks.
    kernel: str = "cluster"
    #: Evaluation precision ("float64"/"float32") of ``block_forces``.
    kernel_dtype: str = "float64"
    step_count: int = 0
    energies: list[StepEnergies] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._builder = VerletListBuilder(
            box=self.system.box, cutoff=self.ff.cutoff, buffer=self.buffer, nstlist=self.nstlist
        )
        kernels.load(self.kernel_dtype)  # fail fast: dtype, compiler
        self._integrator = LeapFrogIntegrator(dt=self.dt)
        self._pairs: PairList | None = None
        self._cached_for: PairList | None = None
        self._block: PairBlock | None = None
        self._excl: tuple[np.ndarray, np.ndarray] | None = None

    # -- forces -------------------------------------------------------------

    def ensure_pairs(self) -> PairList:
        """(Re)build the buffered pair list when the lifecycle demands it."""
        sys = self.system
        if self._pairs is None or self._builder.needs_rebuild(self._pairs, sys.positions):
            sys.wrap()
            self._pairs = self._builder.build(sys.positions)
        return self._pairs

    def _refresh_pair_cache(self, pairs: PairList) -> None:
        """Per-list caches: exclusion split + segment-reduction block.

        The exclusion mask and the kernel's parameter gathers depend only
        on the pair list, so they are computed once per (re)build instead
        of every step.
        """
        sys = self.system
        pi, pj = pairs.i, pairs.j
        if self.topology is not None:
            mol = self.topology.molecule_of
            excl = mol[pi] == mol[pj]
            self._excl = (pi[excl], pj[excl])
            pi, pj = pi[~excl], pj[~excl]
        else:
            self._excl = (pi[:0], pj[:0])
        self._block = PairBlock(
            pi, pj, sys.type_ids, sys.charges, self.ff, n_atoms=sys.n_atoms
        )
        self._cached_for = pairs

    def compute_forces(self) -> tuple[float, float, float]:
        """Fill ``system.forces``; returns (E_lj, E_coulomb, E_bonded)."""
        sys = self.system
        pairs = self.ensure_pairs()
        if self._cached_for is not pairs:
            self._refresh_pair_cache(pairs)
        sys.forces = np.zeros_like(sys.positions)
        e_bonded = 0.0
        if self.topology is not None:
            from repro.md.bonded import angle_forces, bond_forces, exclusion_correction

            ei, ej = self._excl
            _, e_corr = exclusion_correction(
                sys.positions, ei, ej, sys.charges, self.ff,
                box=sys.box, out_forces=sys.forces,
            )
            _, e_b = bond_forces(
                sys.positions, self.topology.bonds, self.topology.bond_r0,
                self.topology.bond_k, box=sys.box, out_forces=sys.forces,
            )
            _, e_a = angle_forces(
                sys.positions, self.topology.angles, self.topology.angle_theta0,
                self.topology.angle_k, box=sys.box, out_forces=sys.forces,
            )
            e_bonded = e_b + e_a
        else:
            e_corr = 0.0
        _, e_lj, e_coul = block_forces(
            sys.positions, self._block, self.ff, box=sys.box,
            out_forces=sys.forces, dtype=self.kernel_dtype,
        )
        e_coul += e_corr
        return e_lj, e_coul, e_bonded

    # -- stepping -------------------------------------------------------------

    def step(self) -> StepEnergies:
        """One leap-frog step; records energies."""
        from repro.md.integrator import kinetic_energy

        sys = self.system
        e_lj, e_coul, e_bonded = self.compute_forces()
        sys.positions, sys.velocities = self._integrator.step(
            sys.positions, sys.velocities, sys.forces, sys.masses
        )
        if self._pairs is not None:
            self._pairs.steps_since_build += 1
        kin = kinetic_energy(sys.velocities, sys.masses)
        rec = StepEnergies(self.step_count, e_lj, e_coul, kin, e_bonded)
        self.energies.append(rec)
        self.step_count += 1
        return rec

    def run(self, n_steps: int) -> list[StepEnergies]:
        """Run ``n_steps`` and return their energy records."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        return [self.step() for _ in range(n_steps)]
