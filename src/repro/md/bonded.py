"""Bonded interactions: harmonic bonds, harmonic angles, and the
electrostatic corrections for excluded intramolecular pairs.

These are the "Bonded F" kernel of the paper's schedules.  Under domain
decomposition a bonded interaction can span ranks; it is assigned by the
same eighth-shell zone rule as non-bonded pairs (the rank where every member
is visible with elementwise-min zone shift zero), which covers it exactly
once because all members lie within the communication cutoff of each other.

Excluded pairs still need care: the reaction field's correction term applies
inside the cutoff regardless of exclusion (the standard GROMACS exclusion
correction).
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield import COULOMB_FACTOR, ForceField


def bond_forces(
    positions: np.ndarray,
    bonds: np.ndarray,
    r0: np.ndarray,
    k: np.ndarray,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Harmonic bonds V = k/2 (r - r0)^2; returns (forces, energy)."""
    positions = np.asarray(positions)
    if out_forces is None:
        out_forces = np.zeros((positions.shape[0], 3), dtype=positions.dtype)
    if bonds.size == 0:
        return out_forces, 0.0
    i, j = bonds[:, 0], bonds[:, 1]
    dx = positions[i].astype(np.float64) - positions[j].astype(np.float64)
    if box is not None:
        box64 = np.asarray(box, dtype=np.float64)
        shift = np.rint(dx / box64) * box64
        if periodic is not None:
            shift *= np.asarray(periodic, dtype=bool)
        dx -= shift
    r = np.sqrt(np.einsum("ij,ij->i", dx, dx))
    if np.any(r <= 0):
        raise FloatingPointError("zero-length bond")
    dr = r - r0
    energy = float(np.sum(0.5 * k * dr * dr))
    # F_i = -k (r - r0) * dx / r
    fvec = (-(k * dr) / r)[:, None] * dx
    fvec = fvec.astype(out_forces.dtype)
    np.add.at(out_forces, i, fvec)
    np.add.at(out_forces, j, -fvec)
    return out_forces, energy


def angle_forces(
    positions: np.ndarray,
    angles: np.ndarray,
    theta0: np.ndarray,
    k: np.ndarray,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Harmonic angles V = k/2 (theta - theta0)^2 with the vertex at
    ``angles[:, 1]``; analytic gradients."""
    positions = np.asarray(positions)
    if out_forces is None:
        out_forces = np.zeros((positions.shape[0], 3), dtype=positions.dtype)
    if angles.size == 0:
        return out_forces, 0.0
    ai, aj, ak = angles[:, 0], angles[:, 1], angles[:, 2]

    def disp(a, b):
        dx = positions[a].astype(np.float64) - positions[b].astype(np.float64)
        if box is not None:
            box64 = np.asarray(box, dtype=np.float64)
            shift = np.rint(dx / box64) * box64
            if periodic is not None:
                shift *= np.asarray(periodic, dtype=bool)
            dx -= shift
        return dx

    u = disp(ai, aj)
    v = disp(ak, aj)
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    if np.any(nu <= 0) or np.any(nv <= 0):
        raise FloatingPointError("degenerate angle (coincident atoms)")
    cos_t = np.clip(np.einsum("ij,ij->i", u, v) / (nu * nv), -1.0, 1.0)
    theta = np.arccos(cos_t)
    dtheta = theta - theta0
    energy = float(np.sum(0.5 * k * dtheta * dtheta))
    # dV/dtheta, with the near-linear singularity regularized.
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 1e-12))
    coef = k * dtheta / sin_t  # = -dV/dcos
    dcos_di = (v / (nu * nv)[:, None]) - (cos_t / (nu * nu))[:, None] * u
    dcos_dk = (u / (nu * nv)[:, None]) - (cos_t / (nv * nv))[:, None] * v
    f_i = (coef[:, None] * dcos_di).astype(out_forces.dtype)
    f_k = (coef[:, None] * dcos_dk).astype(out_forces.dtype)
    np.add.at(out_forces, ai, f_i)
    np.add.at(out_forces, ak, f_k)
    np.add.at(out_forces, aj, -(f_i + f_k))
    return out_forces, energy


def exclusion_correction(
    positions: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    charges: np.ndarray,
    ff: ForceField,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Electrostatic correction for excluded (intramolecular) pairs.

    The reaction-field polarization term survives exclusion:
    V = f q_i q_j (k_rf r^2 - c_rf).
    """
    positions = np.asarray(positions)
    if out_forces is None:
        out_forces = np.zeros((positions.shape[0], 3), dtype=positions.dtype)
    if pair_i.size == 0:
        return out_forces, 0.0
    dx = positions[pair_i].astype(np.float64) - positions[pair_j].astype(np.float64)
    if box is not None:
        box64 = np.asarray(box, dtype=np.float64)
        shift = np.rint(dx / box64) * box64
        if periodic is not None:
            shift *= np.asarray(periodic, dtype=bool)
        dx -= shift
    r2 = np.einsum("ij,ij->i", dx, dx)
    if np.any(r2 <= 0):
        raise FloatingPointError("coincident excluded pair")
    qq = COULOMB_FACTOR * charges[pair_i] * charges[pair_j]
    energy = float(np.sum(qq * (ff.k_rf * r2 - ff.c_rf)))
    fscal_r = -2.0 * qq * ff.k_rf  # F = fscal_r * dx
    fvec = (fscal_r[:, None] * dx).astype(out_forces.dtype)
    np.add.at(out_forces, pair_i, fvec)
    np.add.at(out_forces, pair_j, -fvec)
    return out_forces, energy
