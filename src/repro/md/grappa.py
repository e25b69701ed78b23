"""Synthetic "grappa"-style benchmark systems.

The paper's evaluation uses the grappa benchmark set: homogeneous
water/ethanol mixtures from 45k to 23.04M atoms with reaction-field
electrostatics, sized so that atoms-per-GPU sweeps the latency-bound to
compute-bound transition.  The real inputs are Zenodo tarballs of GROMACS
``.tpr`` files; we generate equivalent synthetic systems: the same number
density as aqueous mixtures (~100 atoms/nm^3), neutral 3-atom groups, cubic
boxes, and Maxwell-Boltzmann velocities at 300 K.

Because the composition is homogeneous, halo-exchange communication volumes
and pair counts — the quantities the reproduction depends on — match the
originals' scaling behaviour by construction.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield import ForceField, default_forcefield
from repro.md.integrator import BOLTZ
from repro.md.system import MDSystem
from repro.util.rng import make_rng

#: Atom counts of the paper's grappa inputs (45k ... 23.04M atoms).
GRAPPA_SIZES: dict[str, int] = {
    "45k": 45_000,
    "90k": 90_000,
    "180k": 180_000,
    "360k": 360_000,
    "720k": 720_000,
    "1440k": 1_440_000,
    "2880k": 2_880_000,
    "5760k": 5_760_000,
    "11520k": 11_520_000,
    "23040k": 23_040_000,
}

#: Number density of the synthetic mixture, atoms / nm^3 (water-like).
GRAPPA_DENSITY = 100.0

#: Fraction of 3-atom groups that are "ethanol-like" (apolar CE sites).
ETHANOL_GROUP_FRACTION = 0.125

#: Density-scenario prefixes a system label may carry ("slab-45k").
#: "uniform" is the homogeneous grappa recipe and needs no prefix;
#: the others live in :mod:`repro.md.inhomogeneous`.
SCENARIOS = ("uniform", "slab", "droplet", "gap")


def resolve_scenario(system: str | int) -> str:
    """Density-scenario kind of a system label (``"slab-45k"`` -> ``"slab"``)."""
    if isinstance(system, str):
        for s in SCENARIOS:
            if system.startswith(s + "-"):
                return s
    return "uniform"


def strip_scenario(system: str) -> str:
    """A system label without its scenario prefix (``"slab-45k"`` -> ``"45k"``)."""
    for s in SCENARIOS:
        if system.startswith(s + "-"):
            return system[len(s) + 1:]
    return system


def scenario_label(scenario: str, atoms: int | str) -> str:
    """The system label of a scenario + size (``"slab", 1400`` -> ``"slab-1400"``)."""
    return str(atoms) if scenario == "uniform" else f"{scenario}-{atoms}"


def resolve_atoms(system: str | int) -> int:
    """Atom count for a system label: ``45000``, ``"45k"``, ``"grappa-45k"``,
    or a scenario-prefixed label (``"slab-45k"``, ``"droplet-90k"``).

    The one canonical resolver for every CLI, spec, and benchmark entry
    point; raises :class:`ValueError` with the full label set so callers
    can surface a single actionable error.
    """
    if isinstance(system, int):
        if system <= 0:
            raise ValueError(f"atom count must be positive, got {system}")
        return system
    label = strip_scenario(system)
    label = label[len("grappa-"):] if label.startswith("grappa-") else label
    if label in GRAPPA_SIZES:
        return GRAPPA_SIZES[label]
    try:
        # Generic suffixed labels ("192k", "768k", "2.5M") scale the same
        # synthetic recipe to sizes between the canonical grappa points —
        # the scaling sweep uses these for intermediate atom counts.
        if label and label[-1] in ("k", "K"):
            n = int(float(label[:-1]) * 1_000)
        elif label and label[-1] == "M":
            n = int(float(label[:-1]) * 1_000_000)
        else:
            n = int(label)
    except ValueError:
        raise ValueError(
            f"unknown system '{system}': use an atom count, a 'k'/'M'-"
            f"suffixed count (e.g. '192k'), or one of "
            f"{', '.join(GRAPPA_SIZES)} (optionally prefixed 'grappa-' or a "
            f"density scenario: {', '.join(s + '-' for s in SCENARIOS[1:])})"
        ) from None
    if n <= 0:
        raise ValueError(f"atom count must be positive, got {n}")
    return n


def grappa_label(n_atoms: int) -> str:
    """Human label for an atom count (e.g. 45000 -> '45k')."""
    for label, n in GRAPPA_SIZES.items():
        if n == n_atoms:
            return label
    if n_atoms % 1000 == 0:
        return f"{n_atoms // 1000}k"
    return str(n_atoms)


def grappa_box_length(n_atoms: int, density: float = GRAPPA_DENSITY) -> float:
    """Cubic box edge (nm) for a given atom count at the grappa density."""
    if n_atoms <= 0:
        raise ValueError(f"n_atoms must be positive, got {n_atoms}")
    return float((n_atoms / density) ** (1.0 / 3.0))


def grappa_triplet_types(rng, n_atoms: int) -> np.ndarray:
    """Neutral triplet typing: OW HW HW (water) or CE CE CE (ethanol-ish).

    Consumes exactly one ``rng.random(n_groups)`` draw, so callers that
    compose it with placement draws keep a stable RNG call sequence.
    """
    n_groups = n_atoms // 3
    group_types = np.where(
        rng.random(n_groups) < ETHANOL_GROUP_FRACTION,
        2,  # CE group
        0,  # water group
    )
    type_ids = np.empty(n_atoms, dtype=np.int32)
    water_pattern = np.array([0, 1, 1], dtype=np.int32)  # OW HW HW
    ce_pattern = np.array([2, 2, 2], dtype=np.int32)
    full = np.where(
        np.repeat(group_types, 3)[:, None] == 2, ce_pattern[None, :], water_pattern[None, :]
    )
    # full has shape (3*n_groups, 3) from broadcasting; take the
    # per-position pattern entry instead.
    pattern_pos = np.tile(np.arange(3), n_groups)
    type_ids[: 3 * n_groups] = full[np.arange(3 * n_groups), pattern_pos]
    # Leftover atoms (n_atoms not divisible by 3) become neutral CE sites.
    type_ids[3 * n_groups:] = 2
    return type_ids


def maxwell_boltzmann_velocities(
    rng, masses: np.ndarray, temperature: float
) -> np.ndarray:
    """Per-atom velocities at ``temperature`` (one ``rng.normal`` draw)."""
    sigma_v = np.sqrt(BOLTZ * temperature / masses)[:, None]
    return rng.normal(0.0, 1.0, size=(masses.size, 3)) * sigma_v


def finish_grappa_system(
    rng,
    positions: np.ndarray,
    box: np.ndarray,
    ff: ForceField,
    temperature: float,
    dtype: np.dtype | type,
) -> MDSystem:
    """Type, charge, and thermalize placed positions into an MDSystem.

    The shared back half of every grappa-style generator (homogeneous and
    the :mod:`repro.md.inhomogeneous` scenarios): neutral triplet types,
    force-field charges/masses, Maxwell-Boltzmann velocities.
    """
    n_atoms = positions.shape[0]
    type_ids = grappa_triplet_types(rng, n_atoms)
    charges = ff.charges_for(type_ids)
    masses = ff.masses_for(type_ids)
    # Charge neutrality by construction; assert to catch pattern bugs.
    assert abs(float(np.sum(charges))) < 1e-9 * n_atoms
    velocities = maxwell_boltzmann_velocities(rng, masses, temperature)
    return MDSystem(
        box=np.asarray(box, dtype=np.float64),
        positions=positions.astype(dtype),
        velocities=velocities.astype(dtype),
        type_ids=type_ids,
        charges=charges,
        masses=masses,
    )


def make_grappa_system(
    n_atoms: int,
    seed: int = 2025,
    temperature: float = 300.0,
    ff: ForceField | None = None,
    density: float = GRAPPA_DENSITY,
    dtype: np.dtype | type = np.float32,
) -> MDSystem:
    """Build a synthetic grappa-like system.

    Atoms are placed on a jittered cubic lattice (avoiding the overlaps a
    uniform draw would produce) and typed in neutral triplets: OW+HW+HW
    water-like groups with an ETHANOL_GROUP_FRACTION admixture of CE triples.
    """
    if n_atoms < 3:
        raise ValueError("grappa systems need at least one 3-atom group")
    ff = ff or default_forcefield()
    rng = make_rng(seed)
    box_len = grappa_box_length(n_atoms, density)
    box = np.full(3, box_len)

    # Jittered lattice: pick n_atoms distinct sites of the smallest cubic
    # lattice that holds them, then displace by up to 30% of the spacing.
    n_side = int(np.ceil(n_atoms ** (1.0 / 3.0)))
    spacing = box_len / n_side
    site_ids = rng.choice(n_side**3, size=n_atoms, replace=False)
    coords = np.empty((n_atoms, 3), dtype=np.float64)
    coords[:, 0] = site_ids // (n_side * n_side)
    coords[:, 1] = (site_ids // n_side) % n_side
    coords[:, 2] = site_ids % n_side
    # 10% jitter keeps the minimum initial separation at 0.8*spacing, inside
    # the soft repulsive shoulder of the ~0.2 nm LJ cores: no initial blow-up.
    positions = (coords + 0.5) * spacing
    positions += rng.uniform(-0.1 * spacing, 0.1 * spacing, size=positions.shape)
    positions = np.mod(positions, box_len)

    return finish_grappa_system(rng, positions, box, ff, temperature, dtype)
