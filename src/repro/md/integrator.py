"""Leap-frog integration, the default GROMACS integrator ("md").

Velocities live at half-steps: ``v(t + dt/2) = v(t - dt/2) + (f(t)/m) dt`` and
``x(t + dt) = x(t) + v(t + dt/2) dt``.  Units follow GROMACS: nm, ps, amu,
kJ/mol — with these, force/mass has units nm/ps^2 directly and no conversion
constant is needed.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.md import native

#: Boltzmann constant in kJ mol^-1 K^-1 (GROMACS value).
BOLTZ = 0.00831446261815324


def kinetic_energy(velocities: np.ndarray, masses: np.ndarray) -> float:
    """Total kinetic energy, kJ/mol."""
    v2 = np.einsum("ij,ij->i", velocities.astype(np.float64), velocities.astype(np.float64))
    return float(0.5 * np.sum(masses * v2))


def instantaneous_temperature(velocities: np.ndarray, masses: np.ndarray) -> float:
    """Kinetic temperature in K (3N degrees of freedom, no constraints)."""
    n = velocities.shape[0]
    if n == 0:
        return 0.0
    return 2.0 * kinetic_energy(velocities, masses) / (3.0 * n * BOLTZ)


def remove_com_motion(velocities: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Remove centre-of-mass drift (GROMACS' comm-mode = linear)."""
    total_mass = float(np.sum(masses))
    p = (masses[:, None] * velocities.astype(np.float64)).sum(axis=0)
    return (velocities - (p / total_mass).astype(velocities.dtype)).astype(velocities.dtype)


@dataclass
class LeapFrogIntegrator:
    """Leap-frog stepper (NVE: no thermostat)."""

    dt: float = 0.002  # ps (2 fs, the grappa time-step)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def step(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        masses: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one step; returns (new_positions, new_velocities)."""
        inv_m = (1.0 / masses)[:, None]
        v_new = velocities + (forces * inv_m).astype(velocities.dtype) * velocities.dtype.type(self.dt)
        x_new = positions + v_new * positions.dtype.type(self.dt)
        return x_new, v_new

    def bind(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        masses: np.ndarray,
        ref: np.ndarray,
    ) -> Callable[[], tuple[float, float]]:
        """The step of the first ``len(velocities)`` rows in place — a DD
        rank's home rows — compiled (``nonbonded.c``) and bound to these
        arrays once: each call steps them and returns ``(kinetic energy,
        max_disp²)``.

        Bit for bit :meth:`step` written back into ``positions`` and
        ``velocities``, :func:`kinetic_energy` of the new velocities, and
        the largest squared distance of a new position row from its row
        of ``ref``: the difference in the positions' dtype, squared and
        summed in float64 in ``einsum``'s order, 0.0 for no rows, NaN
        for a NaN row.  ``positions``, ``velocities``, ``forces`` and
        ``ref`` share one dtype, float32 or float64, and ``masses`` are
        float64; all are C-contiguous, read and written in place, and
        kept alive by the call.
        """
        nh = velocities.shape[0]
        lib = native.library()
        fn = {"d": lib.nb_leapfrog_f64, "f": lib.nb_leapfrog_f32}.get(positions.dtype.char)
        stepped = (positions, velocities, forces, ref)
        if (
            fn is None
            or any(a.dtype != positions.dtype or a.shape[1:] != (3,)
                   or not a.flags.c_contiguous for a in stepped)
            or not (positions.flags.writeable and velocities.flags.writeable)
            or masses.dtype != np.float64 or not masses.flags.c_contiguous
            or velocities.shape != (nh, 3) or ref.shape != (nh, 3)
            or masses.shape != (nh,)
            or min(positions.shape[0], forces.shape[0]) < nh
        ):
            raise ValueError(
                "bind takes writeable positions and velocities, forces and "
                "ref: C-contiguous, of one dtype (float32 or float64), n rows "
                "of velocities and ref, at least n of the others; and n float64 masses"
            )
        out = (ctypes.c_double * 2)()
        call = functools.partial(
            fn, *map(native.address, (positions, velocities, forces, masses, ref)),
            nh, self.dt, out,
        )

        def advance() -> tuple[float, float]:
            call()
            return out[0], out[1]

        advance.arrays = (positions, velocities, forces, masses, ref)
        return advance
