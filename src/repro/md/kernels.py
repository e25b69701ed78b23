"""Registry of interchangeable non-bonded kernel implementations.

Mirrors the backend/executor registry shape (see :mod:`repro.comm` and
:mod:`repro.par`): implementations register under a short name, callers
select one with a string, and unknown names fail with an actionable
error listing what is available.  Three implementations ship:

* ``"segment"`` — the flat sorted-pair segment reduction (PR 3's hot
  path; the :class:`~repro.md.reference.ReferenceSimulator` default, kept
  as the algorithmically independent oracle).  Pair search runs over the
  cell list and the per-step kernel is :func:`~repro.md.nonbonded.block_forces`.
* ``"cluster"`` — the default: the GROMACS M×N cluster-pair scheme (Páll
  et al. 2020): atoms are sorted into ``m``-atom clusters along the cell-list
  spatial ordering, the list is built over *cluster pairs* with exact
  per-tile interaction masks, and the flat pair view is extracted once
  at build time.  Pure NumPy, always available.  The per-step NumPy
  evaluation runs the same segment chain as ``"segment"`` over the
  extracted entries (dense Python-level tile math cannot beat it — the
  per-entry ufunc cost is equal and tiles carry padded slots), so the
  win is at *build* time: candidate search over ~N/m cluster centers
  instead of all atoms, and per-cluster structures that cap bytes/atom.
* ``"cluster-numba"`` — the compiled cluster path: the dense M×N tile
  loop JIT-compiled with numba, evaluating tiles in place with no
  per-step gather/scatter arrays at all.  Optional: numba is imported
  lazily and a missing install raises an actionable error naming
  ``"cluster"`` as the drop-in fallback.

Every implementation accepts ``dtype="float32"`` — the documented fast
path: kernel-internal geometry and interaction math in float32, energy
sums and per-atom accumulation in float64.  Tolerance gates versus the
float64 reference live in ``tests/test_kernels.py`` and DESIGN.md.

All implementations are cross-checked against each other and against
:func:`~repro.md.nonbonded.pair_forces` in ``tests/test_kernels.py``;
the ``"segment"``/``"cluster"`` float64 paths agree to reduction-order
rounding and produce identical pair *sets*.
"""

from __future__ import annotations

import numpy as np

from repro.md.cells import (
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_masks,
)
from repro.md.forcefield import COULOMB_FACTOR, ForceField
from repro.md.nonbonded import (
    ClusterPairBlock,
    PairBlock,
    block_forces,
)

#: Registry name -> implementation class.
kernel_registry: dict[str, type] = {}

#: Kernel compute precisions (``dtype`` option values).
KERNEL_DTYPES = ("float64", "float32")


def register_kernel(name: str):
    """Class decorator registering a :class:`KernelImpl` under ``name``."""

    def deco(cls: type) -> type:
        cls.name = name
        kernel_registry[name] = cls
        return cls

    return deco


def make_kernel(name: str, **options) -> "KernelImpl":
    """Instantiate a registered kernel implementation by name.

    Raises a ``KeyError`` naming the registered kernels when ``name`` is
    unknown — the same actionable-error convention as the backend and
    executor registries.
    """
    if name not in kernel_registry:
        raise KeyError(
            f"unknown kernel '{name}'; registered kernels: "
            f"{sorted(kernel_registry)}"
        )
    return kernel_registry[name](**options)


class KernelImpl:
    """One non-bonded implementation: pair search + per-block evaluation.

    ``build_split(ws)`` runs the rank-local pair search over a
    :class:`~repro.par.phases.RankWorkspace`-shaped object and returns
    the keyword dict for :class:`~repro.par.phases.SplitPairs` (the
    local/non-local blocks, per-pulse offsets, exclusion lists, stats).
    ``compute_block`` evaluates forces for one block per step.
    """

    name = "abstract"

    def __init__(self, dtype: str = "float64") -> None:
        if dtype not in KERNEL_DTYPES:
            raise ValueError(
                f"unknown kernel dtype '{dtype}'; use one of {KERNEL_DTYPES}"
            )
        self.dtype = dtype
        self.np_dtype = np.dtype(dtype)

    def build_split(self, ws) -> dict:
        raise NotImplementedError

    def compute_block(
        self,
        positions: np.ndarray,
        block: PairBlock,
        ff: ForceField,
        *,
        box: np.ndarray | None = None,
        periodic: np.ndarray | None = None,
        out_forces: np.ndarray | None = None,
        coulomb: str = "rf",
        ewald_beta: float = 0.0,
    ) -> tuple[np.ndarray, float, float]:
        return block_forces(
            positions, block, ff,
            box=box, periodic=periodic, out_forces=out_forces,
            coulomb=coulomb, ewald_beta=ewald_beta, dtype=self.np_dtype,
        )


@register_kernel("segment")
class SegmentKernel(KernelImpl):
    """Flat cell-list search + sorted-pair segment reduction."""

    def build_split(self, ws) -> dict:
        cfg = ws.cfg
        pos = ws.pos.astype(np.float64)
        r_list = cfg.r_comm
        periodic = cfg.periodic
        budget = BuildBudget(max_bytes=getattr(cfg, "max_build_bytes", None))
        cells = CellGrid.for_rank(pos, cfg.box, periodic, r_list)
        i, j = cells.pairs_within(pos, r_list, budget=budget)
        zs = ws.ns.zone_shift
        keep = np.all(np.minimum(zs[i], zs[j]) == 0, axis=1)
        i, j = i[keep], j[keep]

        # Exclusion (intramolecular) filtering is static per NS interval,
        # so it happens here rather than per step.
        if ws.ns.bonded is not None:
            mol = ws.ns.bonded["mol"]
            excl = mol[i] == mol[j]
            ei, ej = i[excl], j[excl]
            i, j = i[~excl], j[~excl]
        else:
            ei, ej = i[:0], j[:0]

        nh = ws.ns.n_home
        n_atoms = ws.pos.shape[0]
        kernel = cfg.kernel

        # Local split: pairs_within emits (i, j)-lexsorted pairs and
        # boolean masking preserves order, so both halves stay sorted by i.
        local_mask = (i < nh) & (j < nh)
        li, lj = i[local_mask], j[local_mask]
        ni, nj = i[~local_mask], j[~local_mask]

        req, pulse_offsets, order = _pulse_partition(ws, ni, nj)
        ni, nj, req = ni[order], nj[order], req[order]

        el_mask = (ei < nh) & (ej < nh)
        local = kernel.make_block(li, lj, ws.types, ws.charges, n_atoms=n_atoms)
        nl = kernel.make_block(
            ni, nj, ws.types, ws.charges, n_atoms=n_atoms, group_key=req
        )
        return dict(
            local=local,
            nonlocal_kernel=nl,
            pulse_offsets=pulse_offsets,
            excl_local=(ei[el_mask], ej[el_mask]),
            excl_nonlocal=(ei[~el_mask], ej[~el_mask]),
            stats={
                "n_local": int(li.size),
                "n_nonlocal": int(ni.size),
                "n_excluded": int(ei.size),
                "pulse_pairs": np.diff(pulse_offsets).tolist(),
                **_memory_stats(ws, budget, local.nbytes + nl.nbytes),
            },
        )


@register_kernel("cluster")
class ClusterKernel(KernelImpl):
    """M×N cluster-pair search; NumPy per-step evaluation (flat chain).
    The default kernel of the DD engine and the spec."""

    def __init__(self, dtype: str = "float64", m: int = 4) -> None:
        super().__init__(dtype)
        if m not in (4, 8):
            raise ValueError(f"cluster size m must be 4 or 8, got {m}")
        self.m = int(m)

    def build_split(self, ws) -> dict:
        cfg = ws.cfg
        pos = ws.pos.astype(np.float64)
        r_list = cfg.r_comm
        periodic = cfg.periodic
        box = np.asarray(cfg.box, dtype=np.float64)
        budget = BuildBudget(max_bytes=getattr(cfg, "max_build_bytes", None))
        # The rank-local grid pins the home+halo extent the cluster
        # layouts cover; clusters are binned over the same bounds.
        grid = CellGrid.for_rank(pos, box, periodic, r_list)
        lo, hi = grid.lo, grid.hi
        nh = ws.ns.n_home
        n = pos.shape[0]

        # Home and halo atoms get separate cluster layouts over rows
        # [0, nh) and [nh, n): home-home tiles are then exactly the local
        # (overlap-eligible) work and the two halo-touching groups the
        # non-local work, so the local/non-local split is a property of
        # the layout rather than a post-hoc filter.
        home = build_clusters(pos[:nh], lo, hi, self.m, n_total=n)
        halo = build_clusters(
            pos[nh:], lo, hi, self.m, index_offset=nh, n_total=n
        )
        budget.note_cells(home.nbytes + halo.nbytes)

        # Eighth-shell zone rule as a bit test: bit d set = nonzero zone
        # shift along dim d; a pair is ours iff the bit sets are disjoint.
        # Only halo-touching tiles need it (home shifts are all zero).
        zs = ws.ns.zone_shift
        nzbits = (
            ((zs != 0) * np.array([1, 2, 4], dtype=np.uint8)).sum(axis=1)
        ).astype(np.uint8)
        nzp = np.concatenate([nzbits, np.zeros(1, dtype=np.uint8)])

        mol = ws.ns.bonded["mol"] if ws.ns.bonded is not None else None
        groups = {
            "hh": (home, home, True),
            "hx": (home, halo, False),
            "xx": (halo, halo, True),
        }
        flat: dict[str, tuple] = {}
        tiles: dict[str, tuple] = {}
        excl_i: list[np.ndarray] = []
        excl_j: list[np.ndarray] = []
        for tag, (a, b, same) in groups.items():
            ci, cj = cluster_pair_candidates(
                a, b, r_list, box, periodic, same, budget=budget
            )
            masks = cluster_tile_masks(
                pos, a, b, ci, cj, r_list, box, periodic, same, budget=budget
            )
            if tag != "hh" and masks.size:
                masks &= (
                    nzp[a.atoms][ci][:, :, None] & nzp[b.atoms][cj][:, None, :]
                ) == 0
            if masks.size:
                # Drop all-empty tiles (loose candidates, zone-filtered
                # halo tiles) before extraction: they carry no pairs but
                # would cost nonzero/gather time here and dead tile
                # iterations in the compiled path.
                occupied = masks.any(axis=(1, 2))
                if not occupied.all():
                    ci, cj, masks = ci[occupied], cj[occupied], masks[occupied]
            ti, tm, tn = np.nonzero(masks)
            pi = a.atoms[ci[ti], tm]
            pj = b.atoms[cj[ti], tn]
            if mol is not None and pi.size:
                excl = mol[pi] == mol[pj]
                if np.any(excl):
                    excl_i.append(pi[excl])
                    excl_j.append(pj[excl])
                    masks[ti[excl], tm[excl], tn[excl]] = False
                    pi, pj = pi[~excl], pj[~excl]
            flat[tag] = (np.minimum(pi, pj), np.maximum(pi, pj))
            tiles[tag] = (a.atoms[ci], b.atoms[cj], masks)

        kernel = cfg.kernel
        li, lj = flat["hh"]
        # Canonical (i, j) order via one argsort of a fused key: pairs
        # are unique, so this equals the two-pass lexsort((lj, li)) and
        # costs roughly half of it on these list sizes.
        lorder = np.argsort(li * np.int64(n + 1) + lj)
        li, lj = li[lorder], lj[lorder]
        ni = np.concatenate([flat["hx"][0], flat["xx"][0]])
        nj = np.concatenate([flat["hx"][1], flat["xx"][1]])
        req, pulse_offsets, order = _pulse_partition(ws, ni, nj)
        ni, nj, req = ni[order], nj[order], req[order]

        local = ClusterPairBlock(
            li, lj, ws.types, ws.charges, kernel.ff, n_atoms=n,
            tile_atoms_i=tiles["hh"][0], tile_atoms_j=tiles["hh"][1],
            tile_masks=tiles["hh"][2],
        )
        nl = ClusterPairBlock(
            ni, nj, ws.types, ws.charges, kernel.ff, n_atoms=n,
            group_key=req,
            tile_atoms_i=np.concatenate([tiles["hx"][0], tiles["xx"][0]]),
            tile_atoms_j=np.concatenate([tiles["hx"][1], tiles["xx"][1]]),
            tile_masks=np.concatenate([tiles["hx"][2], tiles["xx"][2]]),
        )
        ei = np.concatenate(excl_i) if excl_i else li[:0]
        ej = np.concatenate(excl_j) if excl_j else lj[:0]
        ei, ej = np.minimum(ei, ej), np.maximum(ei, ej)
        el_mask = (ei < nh) & (ej < nh)
        return dict(
            local=local,
            nonlocal_kernel=nl,
            pulse_offsets=pulse_offsets,
            excl_local=(ei[el_mask], ej[el_mask]),
            excl_nonlocal=(ei[~el_mask], ej[~el_mask]),
            stats={
                "n_local": int(li.size),
                "n_nonlocal": int(ni.size),
                "n_excluded": int(ei.size),
                "pulse_pairs": np.diff(pulse_offsets).tolist(),
                "n_tiles_local": int(local.n_tiles),
                "n_tiles_nonlocal": int(nl.n_tiles),
                "cluster_m": self.m,
                **_memory_stats(ws, budget, local.nbytes + nl.nbytes),
            },
        )


@register_kernel("cluster-numba")
class ClusterNumbaKernel(ClusterKernel):
    """Cluster search + numba-compiled dense M×N tile evaluation.

    The per-step kernel is a JIT-compiled loop over tiles: no per-step
    gather/scatter arrays, forces accumulated in registers per cluster
    row.  Internal math runs in float64 regardless of ``dtype`` (the
    float32 option only narrows the gathered inputs); energies are
    float64.  Requires numba — constructing this kernel without it
    installed raises an actionable ``ImportError``.
    """

    def __init__(self, dtype: str = "float64", m: int = 4) -> None:
        super().__init__(dtype, m)
        self._tile_kernel = _load_numba_tile_kernel()

    def compute_block(
        self,
        positions: np.ndarray,
        block: PairBlock,
        ff: ForceField,
        *,
        box: np.ndarray | None = None,
        periodic: np.ndarray | None = None,
        out_forces: np.ndarray | None = None,
        coulomb: str = "rf",
        ewald_beta: float = 0.0,
    ) -> tuple[np.ndarray, float, float]:
        if not isinstance(block, ClusterPairBlock):
            # Plain flat blocks (e.g. the reference simulator's rebuilt
            # lists) have no tile structure; use the shared flat chain.
            return super().compute_block(
                positions, block, ff,
                box=box, periodic=periodic, out_forces=out_forces,
                coulomb=coulomb, ewald_beta=ewald_beta,
            )
        positions = np.asarray(positions)
        n = positions.shape[0]
        if out_forces is None:
            out_forces = np.zeros((n, 3), dtype=positions.dtype)
        if block.n_pairs == 0:
            return out_forces, 0.0, 0.0
        if coulomb == "ewald" and ewald_beta <= 0.0:
            raise ValueError("coulomb='ewald' requires a positive ewald_beta")
        if coulomb not in ("rf", "ewald"):
            raise ValueError(
                f"unknown coulomb mode '{coulomb}' (use 'rf' or 'ewald')"
            )
        padded = np.vstack(
            [positions.astype(self.np_dtype), np.zeros((1, 3), self.np_dtype)]
        ).astype(np.float64)
        charges = np.ascontiguousarray(block.charges, dtype=np.float64)
        types = np.ascontiguousarray(block.type_ids, dtype=np.int64)
        if box is None:
            box_arr = np.ones(3)
            pbc = np.zeros(3, dtype=np.bool_)
        else:
            box_arr = np.asarray(box, dtype=np.float64)
            pbc = (
                np.ones(3, dtype=np.bool_) if periodic is None
                else np.asarray(periodic, dtype=np.bool_)
            )
        acc = out_forces if out_forces.dtype == np.float64 else np.zeros((n, 3))
        e_lj, e_coul = self._tile_kernel(
            padded,
            block.tile_atoms_i, block.tile_atoms_j, block.tile_masks,
            box_arr, pbc,
            types, charges,
            np.ascontiguousarray(ff.c6), np.ascontiguousarray(ff.c12),
            float(ff.cutoff * ff.cutoff),
            float(ff.k_rf), float(ff.c_rf),
            0 if coulomb == "rf" else 1, float(ewald_beta),
            float(COULOMB_FACTOR),
            acc,
        )
        if acc is not out_forces:
            out_forces += acc.astype(out_forces.dtype)
        return out_forces, float(e_lj), float(e_coul)


def _load_numba_tile_kernel():
    """Compile (once per process) the dense tile loop; needs numba."""
    global _TILE_KERNEL
    if _TILE_KERNEL is not None:
        return _TILE_KERNEL
    try:
        import numba
    except ImportError as err:
        raise ImportError(
            "the 'cluster-numba' kernel needs the optional numba package "
            "(pip install numba); use kernel='cluster' for the always-"
            "available NumPy cluster path"
        ) from err

    import math

    @numba.njit(cache=False)
    def tile_kernel(
        padded, atoms_i, atoms_j, masks, box, pbc, types, charges,
        c6tab, c12tab, rc2, k_rf, c_rf, mode, beta, coul, out,
    ):
        n = out.shape[0]
        n_tiles, mm = atoms_i.shape
        nn = atoms_j.shape[1]
        rc_inv6 = 1.0 / (rc2 * rc2 * rc2)
        bx = box[0]
        by = box[1]
        bz = box[2]
        px = pbc[0]
        py = pbc[1]
        pz = pbc[2]
        e_lj = 0.0
        e_c = 0.0
        for t in range(n_tiles):
            for a in range(mm):
                ia = atoms_i[t, a]
                if ia >= n:
                    continue
                xa = padded[ia, 0]
                ya = padded[ia, 1]
                za = padded[ia, 2]
                fax = 0.0
                fay = 0.0
                faz = 0.0
                for b in range(nn):
                    if not masks[t, a, b]:
                        continue
                    jb = atoms_j[t, b]
                    dx = xa - padded[jb, 0]
                    dy = ya - padded[jb, 1]
                    dz = za - padded[jb, 2]
                    if px:
                        dx -= np.rint(dx / bx) * bx
                    if py:
                        dy -= np.rint(dy / by) * by
                    if pz:
                        dz -= np.rint(dz / bz) * bz
                    r2 = dx * dx + dy * dy + dz * dz
                    if r2 > rc2:
                        continue
                    if r2 <= 0.0:
                        raise FloatingPointError(
                            "overlapping atoms in pair list (r == 0)"
                        )
                    c6 = c6tab[types[ia], types[jb]]
                    c12 = c12tab[types[ia], types[jb]]
                    qq = coul * charges[ia] * charges[jb]
                    inv_r2 = 1.0 / r2
                    inv_r6 = inv_r2 * inv_r2 * inv_r2
                    inv_r12 = inv_r6 * inv_r6
                    inv_r = math.sqrt(inv_r2)
                    f = (12.0 * c12 * inv_r12 - 6.0 * c6 * inv_r6) * inv_r2
                    if mode == 0:
                        f += qq * (inv_r * inv_r2 - 2.0 * k_rf)
                        e_c += qq * (inv_r + k_rf * r2 - c_rf)
                    else:
                        r = math.sqrt(r2)
                        s = math.erfc(beta * r)
                        g = (
                            2.0 * beta / math.sqrt(math.pi)
                            * math.exp(-((beta * r) ** 2))
                        )
                        f += qq * (s * inv_r + g) * inv_r2
                        e_c += qq * s * inv_r
                    e_lj += (
                        c12 * inv_r12 - c6 * inv_r6
                        - (c12 * rc_inv6 * rc_inv6 - c6 * rc_inv6)
                    )
                    fx = f * dx
                    fy = f * dy
                    fz = f * dz
                    fax += fx
                    fay += fy
                    faz += fz
                    out[jb, 0] -= fx
                    out[jb, 1] -= fy
                    out[jb, 2] -= fz
                out[ia, 0] += fax
                out[ia, 1] += fay
                out[ia, 2] += faz
        return e_lj, e_c

    _TILE_KERNEL = tile_kernel
    return tile_kernel


_TILE_KERNEL = None


def _memory_stats(ws, budget: BuildBudget, pairlist_bytes: int) -> dict:
    """Per-rank build-memory accounting carried home in the stats dict.

    The stats dict is the only thing that crosses the executor boundary
    after a pair search, so this is how worker-process builds report
    memory back to the engine (which folds it into ``md.*`` gauges).
    ``build_peak_bytes`` is the largest transient working set plus the
    standing structures — the number the per-atom budget in CI is
    asserted on.
    """
    n_local = max(int(ws.pos.shape[0]), 1)
    peak = int(budget.peak_bytes + budget.cells_bytes + pairlist_bytes)
    return {
        "pairlist_bytes": int(pairlist_bytes),
        "cells_bytes": int(budget.cells_bytes),
        "build_peak_bytes": peak,
        "build_bytes_per_atom": peak / n_local,
    }


def _pulse_partition(ws, ni: np.ndarray, nj: np.ndarray):
    """Per-pulse partition of a non-local pair list (shared by kernels).

    A non-local pair is computable once the latest pulse that delivered
    either atom has arrived (``src_pulse`` is -1 for home atoms, so
    ``max`` picks the halo dependency).  Returns ``(req, pulse_offsets,
    order)`` with ``order`` the (req, i, j)-stable sort to apply — the
    paper's ``depOffset`` dependency partition.
    """
    sp = ws.ns.src_pulse
    n_pulses = ws.ns.n_pulses
    if sp is not None and ni.size:
        req = np.maximum(sp[ni], sp[nj]).astype(np.int64)
    else:
        req = np.zeros(ni.size, dtype=np.int64)
    # One argsort of a fused (req, i, j) key instead of a three-pass
    # lexsort; (i, j) pairs are unique so the permutations coincide.
    stride = np.int64(ws.pos.shape[0] + 1)
    order = np.argsort((req * stride + ni) * stride + nj)
    req_sorted = req[order]
    pulse_offsets = np.searchsorted(req_sorted, np.arange(max(n_pulses, 1) + 1))
    return req, pulse_offsets, order
