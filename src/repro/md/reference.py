"""Serial reference MD simulator — the ground truth for the DD engine.

Runs the exact same physics as the domain-decomposed engine (same force
field, same buffered pair-list lifecycle, same integrator) on a single
"rank", so any discrepancy isolated in tests points at the halo exchange or
pair-assignment logic rather than the physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.forcefield import ForceField
from repro.md.integrator import LeapFrogIntegrator
from repro.md.nonbonded import NonbondedKernel, PairBlock
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


def _default_pme_grid(box) -> tuple[int, int, int]:
    """FFT-friendly mesh with ~0.12 nm spacing (GROMACS' fourier-spacing)."""
    import numpy as _np

    out = []
    for length in box:
        k = int(2 ** _np.ceil(_np.log2(max(8.0, length / 0.12))))
        out.append(k)
    return tuple(out)


@dataclass
class ReferenceSimulator:
    """Single-rank MD driver with the GROMACS pair-list lifecycle."""

    system: MDSystem
    ff: ForceField
    nstlist: int = 20
    buffer: float = 0.1
    dt: float = 0.002
    #: "rf" (reaction field) or "pme" (erfc real space + SPME reciprocal).
    coulomb: str = "rf"
    pme_grid: tuple[int, int, int] | None = None
    topology: "object | None" = None
    #: Non-bonded kernel registry name ("segment" or "cluster") and
    #: compute precision ("float64"/"float32").  The name is validated
    #: against the registry and ``kernel_dtype`` selects the evaluation
    #: precision; the list itself always comes from the flat
    #: :class:`~repro.md.pairlist.VerletListBuilder`, so this oracle
    #: shares no search code with the cluster kernel it checks.
    kernel: str = "segment"
    kernel_dtype: str = "float64"
    step_count: int = 0
    energies: list[StepEnergies] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._builder = VerletListBuilder(
            box=self.system.box, cutoff=self.ff.cutoff, buffer=self.buffer, nstlist=self.nstlist
        )
        self._pme = None
        if self.coulomb == "pme":
            from repro.pme.spme import SpmeSolver, optimal_beta

            beta = optimal_beta(self.ff.cutoff)
            grid = self.pme_grid or _default_pme_grid(self.system.box)
            self._pme = SpmeSolver(box=self.system.box, grid=grid, beta=beta)
            self._kernel = NonbondedKernel(
                self.ff, coulomb="ewald", ewald_beta=beta,
                name=self.kernel, dtype=self.kernel_dtype,
            )
        elif self.coulomb == "rf":
            self._kernel = NonbondedKernel(
                self.ff, name=self.kernel, dtype=self.kernel_dtype
            )
        else:
            raise ValueError(f"unknown coulomb mode '{self.coulomb}' (use 'rf' or 'pme')")
        self._kernel.impl  # fail fast on unknown names / dtypes
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
        self._block = self._kernel.make_block(
            pi, pj, sys.type_ids, sys.charges, n_atoms=sys.n_atoms
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
                coulomb=self._kernel.coulomb, ewald_beta=self._kernel.ewald_beta,
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
        _, e_lj, e_coul = self._kernel.compute_block(
            sys.positions, self._block, box=sys.box, out_forces=sys.forces
        )
        e_coul += e_corr
        if self._pme is not None:
            from repro.md.system import wrap_positions

            wrapped = wrap_positions(sys.positions, sys.box).astype(np.float64)
            e_rec, f_rec = self._pme.reciprocal(wrapped, sys.charges)
            sys.forces += f_rec.astype(sys.forces.dtype)
            e_coul += e_rec + self._pme.self_energy(sys.charges)
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
        rec = StepEnergies(
            step=self.step_count,
            lj=e_lj,
            coulomb=e_coul,
            kinetic=kinetic_energy(sys.velocities, sys.masses),
            bonded=e_bonded,
        )
        self.energies.append(rec)
        self.step_count += 1
        return rec

    def run(self, n_steps: int) -> list[StepEnergies]:
        """Run ``n_steps`` and return their energy records."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        return [self.step() for _ in range(n_steps)]
