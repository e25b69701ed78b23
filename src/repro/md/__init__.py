"""Molecular-dynamics substrate.

A compact NumPy MD engine, with a compiled non-bonded evaluator and
cluster pair search, standing in for GROMACS' particle-particle machinery: Lennard-Jones plus reaction-field electrostatics (the model used by
the paper's "grappa" benchmarks), cell-list based Verlet pair lists with a
buffer and rolling pruning, and a leap-frog integrator.  The serial
:class:`~repro.md.reference.ReferenceSimulator` is the ground truth against
which the domain-decomposed engine is verified.
"""

from repro.md.cells import CellList
from repro.md.forcefield import ForceField, default_forcefield
from repro.md.grappa import (
    GRAPPA_SIZES,
    SCENARIOS,
    grappa_label,
    make_grappa_system,
    resolve_atoms,
    resolve_scenario,
)
from repro.md.inhomogeneous import (
    density_profile,
    make_droplet_system,
    make_slab_system,
    make_system,
    make_vacuum_gap_system,
)
from repro.md.integrator import LeapFrogIntegrator, kinetic_energy, remove_com_motion
from repro.md.nonbonded import PairBlock, block_forces, pair_forces
from repro.md.pairlist import PairList, VerletListBuilder
from repro.md.reference import ReferenceSimulator
from repro.md.system import MDSystem, minimum_image, wrap_positions
from repro.md.topology import Topology, make_molecular_grappa_system

__all__ = [
    "CellList",
    "ForceField",
    "GRAPPA_SIZES",
    "LeapFrogIntegrator",
    "MDSystem",
    "PairBlock",
    "PairList",
    "block_forces",
    "ReferenceSimulator",
    "VerletListBuilder",
    "default_forcefield",
    "grappa_label",
    "kinetic_energy",
    "make_grappa_system",
    "minimum_image",
    "pair_forces",
    "remove_com_motion",
    "wrap_positions",
    "Topology",
    "make_molecular_grappa_system",
    "resolve_atoms",
    "SCENARIOS",
    "resolve_scenario",
    "density_profile",
    "make_droplet_system",
    "make_slab_system",
    "make_system",
    "make_vacuum_gap_system",
]
