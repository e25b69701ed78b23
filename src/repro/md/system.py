"""MD system state: positions, velocities, forces, and the periodic box.

GROMACS runs production MD in mixed precision: single-precision coordinates
and forces with double-precision accumulation where it matters.  We mirror
that: :class:`MDSystem` stores state in a configurable dtype (float32 by
default), and verification paths can request float64 for tight comparisons
between the domain-decomposed engine and the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def wrap_positions(positions: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Wrap coordinates into the primary periodic cell ``[0, box)``.

    Operates out-of-place; the box is orthorhombic (lengths per dimension).
    """
    box = np.asarray(box, dtype=np.float64)
    if np.any(box <= 0):
        raise ValueError(f"box lengths must be positive, got {box}")
    box = box.astype(positions.dtype)
    # A coordinate strictly inside (0, box) is its own image, so only the
    # rest pay for the floating-point mod (8x the cost of the compares).
    # Zeros take the mod too: it turns -0.0 into +0.0.
    outside = ~((positions > 0) & (positions < box))
    wrapped = positions.copy()
    if outside.any():
        np.mod(positions, box, out=wrapped, where=outside)
        # mod can return exactly box for values like -1e-9 in float32; fold those.
        wrapped[wrapped >= box] = 0.0
    return wrapped


def minimum_image(dx: np.ndarray, box: np.ndarray, periodic: np.ndarray | None = None) -> np.ndarray:
    """Apply the minimum-image convention to displacement vectors.

    ``periodic`` optionally restricts wrapping to a subset of dimensions —
    rank-local pair searches are periodic only along undecomposed dimensions
    (halo atoms carry explicit shifts along decomposed ones).
    """
    dx = np.asarray(dx)
    box = np.asarray(box, dtype=dx.dtype if dx.dtype.kind == "f" else np.float64)
    shift = np.rint(dx / box) * box
    if periodic is not None:
        shift = np.where(np.asarray(periodic, dtype=bool), shift, 0.0).astype(dx.dtype)
    return dx - shift


@dataclass
class MDSystem:
    """Complete state of a simulated system.

    Attributes
    ----------
    box:
        Orthorhombic box lengths, nm, shape (3,), float64.
    positions, velocities, forces:
        (N, 3) arrays in the working dtype.
    type_ids:
        (N,) int32 force-field type indices.
    charges, masses:
        (N,) float64, derived from the force field at construction.
    """

    box: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    type_ids: np.ndarray
    charges: np.ndarray
    masses: np.ndarray
    forces: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float64)
        if self.box.shape != (3,) or np.any(self.box <= 0):
            raise ValueError(f"box must be 3 positive lengths, got {self.box}")
        n = self.positions.shape[0]
        for name in ("positions", "velocities"):
            arr = getattr(self, name)
            if arr.shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3), got {arr.shape}")
        for name in ("type_ids", "charges", "masses"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.forces is None:
            self.forces = np.zeros_like(self.positions)
        if np.any(self.masses <= 0):
            raise ValueError("all masses must be positive")

    @property
    def n_atoms(self) -> int:
        return int(self.positions.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.positions.dtype

    @property
    def volume(self) -> float:
        """Box volume, nm^3."""
        return float(np.prod(self.box))

    @property
    def density(self) -> float:
        """Number density, atoms / nm^3."""
        return self.n_atoms / self.volume

    def copy(self) -> "MDSystem":
        """Deep copy of all state arrays."""
        return MDSystem(
            box=self.box.copy(),
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            type_ids=self.type_ids.copy(),
            charges=self.charges.copy(),
            masses=self.masses.copy(),
            forces=self.forces.copy(),
        )

    def astype(self, dtype: np.dtype | type) -> "MDSystem":
        """Return a copy with positions/velocities/forces cast to ``dtype``."""
        return MDSystem(
            box=self.box.copy(),
            positions=self.positions.astype(dtype),
            velocities=self.velocities.astype(dtype),
            type_ids=self.type_ids.copy(),
            charges=self.charges.copy(),
            masses=self.masses.copy(),
            forces=self.forces.astype(dtype),
        )

    def wrap(self) -> None:
        """Wrap all positions into the primary cell, in place."""
        self.positions = wrap_positions(self.positions, self.box)
