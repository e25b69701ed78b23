"""Non-bonded pair interactions: Lennard-Jones 12-6 + reaction-field Coulomb.

One evaluated pair-list representation, one evaluator, one oracle — all
over flat pair arrays ``i``/``j``:

* :func:`pair_forces` — the scatter oracle ``tests/`` compare against:
  per-step parameter gathers and ``np.add.at`` scatter, the NumPy
  analogue of the ``atomicAdd`` accumulation the paper's GPU unpack
  kernels use.  Simple, slow; no ``src/`` path calls it.
* :class:`PairBlock` + :func:`block_forces` — what every simulator runs,
  whichever search built the list: the pair list is sorted by ``i`` once
  (at build/prune time), LJ parameters and charge products are cached
  per list, and the force reduction runs as ``np.add.reduceat`` over
  ``i``-segments plus one ``np.bincount`` per component for the ``j``
  side — the NumPy analogue of GROMACS' sorted cluster-pair reduction,
  several times faster than the scatter.  The evaluator is cache-blocked:
  it walks the list in :data:`CHUNK_PAIRS`-pair chunks cut at
  ``i``-segment boundaries over one chunk-sized scratch per thread, so
  the chain's ~35 ufunc passes stream through cache instead of DRAM and
  a block holds nothing but its list.
* :class:`DualList` + :func:`within_radius` — a DD rank's dual pair list
  (outer search list, evaluated inner block) and its prune pass, a
  distance test over the evaluator's scratch (:mod:`repro.par.phases`
  runs both).

Pairs beyond the interaction cutoff (present in a buffered Verlet list)
contribute zero, matching GROMACS' buffered-list semantics; the block path
masks them instead of compacting, so the cached parameters stay aligned
with the sorted list.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.md.forcefield import COULOMB_FACTOR, ForceField
from repro.obs.metrics import METRICS


def pair_forces(
    positions: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    type_ids: np.ndarray,
    charges: np.ndarray,
    ff: ForceField,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
    coulomb: str = "rf",
    ewald_beta: float = 0.0,
) -> tuple[np.ndarray, float, float]:
    """Compute LJ + reaction-field forces/energies for an explicit pair list.

    Parameters
    ----------
    positions:
        (N, 3) coordinates.  Halo atoms must already carry their periodic
        shifts; minimum-image wrapping is applied only along ``periodic`` dims.
    pair_i, pair_j:
        Pair index arrays (each unordered pair appears exactly once).
    box, periodic:
        Periodic wrapping configuration for the displacement computation;
        ``box=None`` disables wrapping entirely.
    out_forces:
        Optional (N, 3) accumulation buffer; allocated (zeroed) if omitted.
    coulomb:
        ``"rf"`` (reaction field, the grappa default) or ``"ewald"`` (the
        screened erfc real-space term; the reciprocal part then comes from
        :class:`repro.pme.SpmeSolver`).  ``"ewald"`` requires ``ewald_beta``.

    Returns
    -------
    (forces, e_lj, e_coulomb):
        Forces in kJ mol^-1 nm^-1 and the two energy terms in kJ/mol.
    """
    positions = np.asarray(positions)
    n = positions.shape[0]
    if out_forces is None:
        out_forces = np.zeros((n, 3), dtype=positions.dtype)
    elif out_forces.shape != (n, 3):
        raise ValueError(f"out_forces must have shape ({n}, 3)")
    if pair_i.shape != pair_j.shape:
        raise ValueError("pair arrays must have equal shape")
    if pair_i.size == 0:
        return out_forces, 0.0, 0.0

    # Work in float64 internally for stable energy accounting; forces are
    # cast back to the caller's dtype at scatter time (mixed precision).
    xi = positions[pair_i].astype(np.float64)
    xj = positions[pair_j].astype(np.float64)
    dx = xi - xj
    if box is not None:
        box = np.asarray(box, dtype=np.float64)
        shift = np.rint(dx / box) * box
        if periodic is not None:
            shift *= np.asarray(periodic, dtype=bool)
        dx -= shift
    r2 = np.einsum("ij,ij->i", dx, dx)

    rc2 = ff.cutoff * ff.cutoff
    inside = r2 <= rc2
    if not np.any(inside):
        return out_forces, 0.0, 0.0
    # Compact to interacting pairs only.
    dx = dx[inside]
    r2 = r2[inside]
    pi = pair_i[inside]
    pj = pair_j[inside]

    if np.any(r2 <= 0):
        raise FloatingPointError("overlapping atoms in pair list (r == 0)")

    ti = type_ids[pi]
    tj = type_ids[pj]
    c6 = ff.c6[ti, tj]
    c12 = ff.c12[ti, tj]
    qq = COULOMB_FACTOR * charges[pi] * charges[pj]

    inv_r2 = 1.0 / r2
    inv_r6 = inv_r2 * inv_r2 * inv_r2
    inv_r12 = inv_r6 * inv_r6
    inv_r = np.sqrt(inv_r2)

    # Scalar force over r: F_vec = fscal_r * dx.
    f_lj = (12.0 * c12 * inv_r12 - 6.0 * c6 * inv_r6) * inv_r2
    if coulomb == "rf":
        f_coul = qq * (inv_r * inv_r2 - 2.0 * ff.k_rf)
        e_coul = float(np.sum(qq * (inv_r + ff.k_rf * r2 - ff.c_rf)))
    elif coulomb == "ewald":
        if ewald_beta <= 0.0:
            raise ValueError("coulomb='ewald' requires a positive ewald_beta")
        from scipy.special import erfc

        r = np.sqrt(r2)
        screened = erfc(ewald_beta * r)
        gauss = (
            2.0 * ewald_beta / np.sqrt(np.pi) * np.exp(-((ewald_beta * r) ** 2))
        )
        f_coul = qq * (screened * inv_r + gauss) * inv_r2
        e_coul = float(np.sum(qq * screened * inv_r))
    else:
        raise ValueError(f"unknown coulomb mode '{coulomb}' (use 'rf' or 'ewald')")
    fscal_r = f_lj + f_coul
    fvec = fscal_r[:, None] * dx

    # Potential-shifted LJ energy so V(rc) = 0 (continuous at the cutoff).
    rc_inv6 = 1.0 / rc2**3
    e_shift = c12 * rc_inv6 * rc_inv6 - c6 * rc_inv6
    e_lj = float(np.sum(c12 * inv_r12 - c6 * inv_r6 - e_shift))

    fvec = fvec.astype(out_forces.dtype)
    np.add.at(out_forces, pi, fvec)
    np.add.at(out_forces, pj, -fvec)
    return out_forces, e_lj, e_coul


class PairBlock:
    """A pair list prepared for segment reduction, with cached parameters.

    Built once per neighbour-search interval from a list sorted by ``i``
    (optionally within contiguous ``group_key`` segments, e.g. the
    per-pulse partition of a non-local list).  Caches everything that is
    constant while the list lives: LJ ``C6``/``C12`` (plus the
    force-prefactored ``12*C12``/``6*C6``), charge products, the LJ
    potential shift, and the segment boundaries for ``np.add.reduceat``.
    Nothing is written after ``__init__``: the evaluator's scratch
    belongs to :func:`block_forces`, not to the list.

    Correctness does not require sortedness — boundaries are wherever
    ``i`` (or ``group_key``) changes between consecutive entries — but an
    unsorted list degenerates to one segment per pair and loses the point.
    Indices outside ``[0, n_atoms)`` raise :class:`ValueError` here, once,
    so the evaluator's gathers need no bounds check of their own.
    """

    __slots__ = (
        "i", "j", "n_atoms", "seg_starts", "seg_i",
        "c6", "c12", "c12_12", "c6_6", "qq", "e_shift",
    )

    def __init__(
        self,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        type_ids: np.ndarray,
        charges: np.ndarray,
        ff: ForceField,
        n_atoms: int,
        group_key: np.ndarray | None = None,
    ) -> None:
        i = np.ascontiguousarray(pair_i, dtype=np.int64)
        j = np.ascontiguousarray(pair_j, dtype=np.int64)
        if i.shape != j.shape:
            raise ValueError("pair arrays must have equal shape")
        self.i = i
        self.j = j
        self.n_atoms = int(n_atoms)
        if i.size and (
            min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= self.n_atoms
        ):
            raise ValueError(f"pair indices must lie in [0, {self.n_atoms})")
        if i.size:
            change = i[1:] != i[:-1]
            if group_key is not None:
                change = change | (group_key[1:] != group_key[:-1])
            self.seg_starts = np.concatenate(
                ([0], np.nonzero(change)[0] + 1)
            ).astype(np.intp)
        else:
            self.seg_starts = np.zeros(0, dtype=np.intp)
        self.seg_i = i[self.seg_starts]
        # One flat type-pair code and 1-D gathers: a 2-D fancy index
        # would compute the code once per table, and gathers slower.
        pair_type = type_ids.take(i) * ff.n_types + type_ids.take(j)
        self.c6 = ff.c6.ravel().take(pair_type)
        self.c12 = ff.c12.ravel().take(pair_type)
        self.c12_12 = 12.0 * self.c12
        self.c6_6 = 6.0 * self.c6
        self.qq = COULOMB_FACTOR * charges.take(i) * charges.take(j)
        rc2 = ff.cutoff * ff.cutoff
        rc_inv6 = 1.0 / rc2**3
        self.e_shift = self.c12 * rc_inv6 * rc_inv6 - self.c6 * rc_inv6

    @property
    def n_pairs(self) -> int:
        return int(self.i.size)

    @property
    def nbytes(self) -> int:
        """Stored footprint: pair indices, segment tables, cached params.

        All a block holds — evaluator scratch is per process, not per
        list (:func:`scratch_nbytes`).  Feeds ``md.pairlist.bytes``.
        """
        return int(
            self.i.nbytes + self.j.nbytes
            + self.seg_starts.nbytes + self.seg_i.nbytes
            + self.c6.nbytes + self.c12.nbytes
            + self.c12_12.nbytes + self.c6_6.nbytes
            + self.qq.nbytes + self.e_shift.nbytes
        )


@dataclass
class DualList:
    """One half of a DD rank's dual pair list.

    ``i``/``j`` are the *outer* list — the search's pairs, ``int32``, in
    the evaluator's order — and ``block`` the *inner* list the kernel
    evaluates: the outer pairs at most ``RankConfig.r_inner`` apart when
    ``ref``, a copy of the first ``rows`` position rows, was taken
    (:mod:`repro.par.phases` prunes and guards it).  Masking keeps the
    outer order, so the inner list is sorted the same way.
    """

    i: np.ndarray
    j: np.ndarray
    #: Position rows the half reads: home rows for the local half, all
    #: rows for the non-local one.
    rows: int
    block: PairBlock | None = None
    ref: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        return int(self.i.size)

    @property
    def nbytes(self) -> int:
        """Stored footprint of the outer list (8 B/pair)."""
        return int(self.i.nbytes + self.j.nbytes)


#: Pairs per evaluation chunk: the middle of the flat 16k-32k bottom of
#: the sweep on both MD workloads (DESIGN.md §4).  Smaller chunks pay the
#: ~50 NumPy calls per chunk too often, larger ones push the chunk's
#: 130 B/pair working set out of cache.
CHUNK_PAIRS = 24576

class _Scratch(threading.local):
    """Evaluator scratch of one thread (= one process under both
    executors).  ``by_dtype``
    maps the compute dtype *name* to ``geom`` (the two gathered ``(rows, 3)``
    coordinate sets), ``cols`` (the chain's ten float columns) and ``masks``
    (its two boolean ones), all chunk-sized, plus ``fvec``, the force
    components of the largest block seen (``(3, pairs)``, grow-only).
    No call reads what an earlier call left there."""

    def __init__(self) -> None:
        self.by_dtype: dict[str, dict[str, np.ndarray]] = {}


_scratch = _Scratch()


def scratch_nbytes() -> int:
    """Bytes of evaluator scratch the calling thread holds, over all
    dtypes (the ``md.kernel.scratch_bytes`` gauge)."""
    return sum(a.nbytes for s in _scratch.by_dtype.values() for a in s.values())


def _scratch_for(dtype: str, rows: int, pairs: int) -> dict[str, np.ndarray]:
    """Scratch with at least ``rows`` chunk rows and ``fvec`` room for
    ``pairs`` pairs.  Arrays are created from the dtype *name*: an
    ``np.dtype`` that came through pickle is a copy of NumPy's singleton
    and arrays made with it run slower (see ``KernelImpl.dtype``)."""
    s = _scratch.by_dtype.setdefault(dtype, {})
    # CHUNK_PAIRS rows hold every chunk unless one i-segment alone is
    # longer than that, so the chunk arrays are made once per process.
    rows = max(rows, CHUNK_PAIRS)
    for name, shape, kind in (
        ("geom", (2, rows, 3), dtype), ("cols", (10, rows), dtype),
        ("masks", (2, rows), bool), ("fvec", (3, pairs), dtype),
    ):
        if name not in s or s[name].shape[1] < shape[1]:
            s[name] = np.empty(shape, dtype=kind)
            METRICS.gauge("md.kernel.scratch_bytes").set(scratch_nbytes())
    return s


def within_radius(
    positions: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    radius: float,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
) -> np.ndarray:
    """Keep mask of the pairs at most ``radius`` apart — the prune pass.

    Chunk by chunk over :func:`block_forces`' per-thread float64 scratch,
    but one coordinate at a time: gathers from a contiguous column and
    ``r²`` as a running sum run ≈1.7× faster than row gathers and
    ``einsum``, and a mask needs no bit-compatibility with the kernel's
    ``r²``.  The gathers clip instead of bounds-checking: an index out of
    range yields a meaningless distance, and a kept one is rejected by
    the :class:`PairBlock` the survivors are made into.
    """
    cols = np.ascontiguousarray(np.asarray(positions).T, dtype=np.float64)
    box = None if box is None else np.asarray(box, dtype=np.float64)
    r2_max = radius * radius
    keep = np.empty(pair_i.size, dtype=bool)
    for lo in range(0, pair_i.size, CHUNK_PAIRS):
        hi = min(lo + CHUNK_PAIRS, pair_i.size)
        c = hi - lo
        xi, xj, shift, r2 = _scratch_for("float64", c, 0)["cols"][:4, :c]
        for d in range(3):
            np.take(cols[d], pair_i[lo:hi], out=xi, mode="clip")
            np.take(cols[d], pair_j[lo:hi], out=xj, mode="clip")
            xi -= xj
            if box is not None and (periodic is None or periodic[d]):
                np.divide(xi, box[d], out=shift)
                np.rint(shift, out=shift)
                shift *= box[d]
                xi -= shift
            if d == 0:
                np.multiply(xi, xi, out=r2)
            else:
                xi *= xi
                r2 += xi
        np.less_equal(r2, r2_max, out=keep[lo:hi])
    return keep


def _chunks(block: PairBlock, target: int):
    """Cut ``block`` into chunks of at most ``target`` pairs that end on
    ``i``-segment boundaries (a longer segment is a chunk of its own).
    Yields ``(lo, hi, s0, s1)``: pairs ``[lo, hi)`` = segments ``[s0, s1)``."""
    starts, m = block.seg_starts, block.n_pairs
    s0 = 0
    while s0 < starts.size:
        lo = int(starts[s0])
        # Cut at the last segment start within ``target`` pairs of ``lo``.
        s1 = int(np.searchsorted(starts, lo + target, side="right")) - 1
        s1 = starts.size if lo + target >= m else max(s1, s0 + 1)
        yield lo, (int(starts[s1]) if s1 < starts.size else m), s0, s1
        s0 = s1


def block_forces(
    positions: np.ndarray,
    block: PairBlock,
    ff: ForceField,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
    coulomb: str = "rf",
    ewald_beta: float = 0.0,
    dtype="float64",
) -> tuple[np.ndarray, float, float]:
    """Segment-reduced twin of :func:`pair_forces` over a :class:`PairBlock`.

    Per-pair force vectors are bit-identical to :func:`pair_forces` on the
    same list ordering (the arithmetic keeps the same evaluation order);
    only the accumulation into per-atom forces differs — ``reduceat`` over
    ``i``-segments and ``bincount`` over ``j`` instead of two ``add.at``
    scatters — so per-atom results agree to accumulation-order rounding.
    Out-of-cutoff pairs are masked (zeroed) rather than compacted.

    The block runs in chunks of at most :data:`CHUNK_PAIRS` pairs cut at
    ``i``-segment boundaries: gather, minimum image, interaction chain,
    energy sums and ``i``-side reduction per chunk over one chunk-sized
    scratch; the chunks' force vectors collect in a pair-length buffer
    and the ``j``-side ``bincount`` runs once over the whole block.  No
    segment is split, so per-atom forces do not depend on the chunk size;
    energies are sums of per-chunk sums and do, to rounding.

    ``dtype="float32"`` selects the fast path: geometry, parameters, and
    the interaction chain run in float32 while energy sums and per-atom
    force accumulation stay float64 (mixed precision, the GPU convention).
    The overlap (``r == 0``) check considers only pairs that interact —
    buffered lists legitimately carry entries beyond the cutoff; when it
    raises, ``out_forces`` may already hold earlier chunks' ``i``-side sums.
    """
    positions = np.asarray(positions)
    n = positions.shape[0]
    if n != block.n_atoms:
        raise ValueError(
            f"positions have {n} rows but the block was built for {block.n_atoms}"
        )
    if out_forces is None:
        out_forces = np.zeros((n, 3), dtype=positions.dtype)
    elif out_forces.shape != (n, 3):
        raise ValueError(f"out_forces must have shape ({n}, 3)")
    m = block.n_pairs
    if m == 0:
        return out_forces, 0.0, 0.0
    if coulomb == "ewald":
        if ewald_beta <= 0.0:
            raise ValueError("coulomb='ewald' requires a positive ewald_beta")
        from scipy.special import erfc
    elif coulomb != "rf":
        raise ValueError(f"unknown coulomb mode '{coulomb}' (use 'rf' or 'ewald')")
    dt = np.dtype(dtype)
    sc = dt.type  # scalar-constant cast; a no-op for float64
    pos = positions.astype(dt, copy=False)
    box_dt = None if box is None else np.asarray(box, dtype=dt)
    rc2 = ff.cutoff * ff.cutoff
    odt = out_forces.dtype
    params = (block.c12_12, block.c6_6, block.c12, block.c6, block.qq, block.e_shift)

    e_lj = e_coul = 0.0
    for lo, hi, s0, s1 in _chunks(block, CHUNK_PAIRS):
        c = hi - lo
        scratch = _scratch_for(dt.name, c, m)
        fvec = scratch["fvec"][:, lo:hi]
        xi, xj = scratch["geom"][:, :c]
        r2, inv_r2, inv_r6, inv_r12, inv_r, f_lj, t, f_coul, e_c, e_l = (
            scratch["cols"][:, :c]
        )
        inside, bad = scratch["masks"][:, :c]
        # Indices were validated once, in PairBlock.__init__: "clip" skips
        # the per-call check and the output buffering "raise" implies.
        np.take(pos, block.i[lo:hi], axis=0, out=xi, mode="clip")
        np.take(pos, block.j[lo:hi], axis=0, out=xj, mode="clip")
        dx = np.subtract(xi, xj, out=xi)
        if box_dt is not None:
            # Minimum image per periodic dim only: DD rank domains are
            # mostly (often fully) non-periodic, and skipping the wrapped
            # divide/rint there is a real per-step saving.  Bit-compatible
            # with the all-dims form — the shift was exactly zero anyway.
            for d in range(3):
                if periodic is not None and not periodic[d]:
                    continue
                col = dx[:, d]
                shift = np.divide(col, box_dt[d], out=xj[:, d])
                np.rint(shift, out=shift)
                shift *= box_dt[d]
                col -= shift
        np.einsum("ij,ij->i", dx, dx, out=r2)

        np.less_equal(r2, rc2, out=inside)
        if not np.any(inside):
            # Nothing interacts here, but the whole-block bincount below
            # reads this span: clear what the previous call left in it.
            fvec[:] = 0.0
            continue
        # Overlap check on interacting pairs only.
        np.less_equal(r2, 0.0, out=bad)
        bad &= inside
        if np.any(bad):
            raise FloatingPointError("overlapping atoms in pair list (r == 0)")
        # Give non-interacting entries a dummy finite distance before the
        # reciprocal chain: ``fscal *= inside`` zeroes them later, but a
        # non-finite value in the chain would survive it (inf * 0 is nan)
        # and the reductions would smear it across the segment.
        outside = np.logical_not(inside, out=bad)
        np.copyto(r2, sc(1.0), where=outside)

        # float64 slices are views; the float32 path casts per chunk.
        c12_12, c6_6, c12, c6, qq, e_shift = (
            p[lo:hi].astype(dt, copy=False) for p in params
        )
        np.divide(sc(1.0), r2, out=inv_r2)
        np.multiply(inv_r2, inv_r2, out=inv_r6)
        inv_r6 *= inv_r2
        np.multiply(inv_r6, inv_r6, out=inv_r12)
        np.sqrt(inv_r2, out=inv_r)

        # fscal and per-pair energies, in the exact evaluation order of
        # pair_forces so per-pair results match it bit for bit (in float64).
        np.multiply(c12_12, inv_r12, out=f_lj)
        np.multiply(c6_6, inv_r6, out=t)
        f_lj -= t
        f_lj *= inv_r2
        if coulomb == "rf":
            np.multiply(inv_r, inv_r2, out=f_coul)
            f_coul -= sc(2.0 * ff.k_rf)
            f_coul *= qq
            np.multiply(sc(ff.k_rf), r2, out=e_c)
            e_c += inv_r
            e_c -= sc(ff.c_rf)
            e_c *= qq
        else:
            r = np.sqrt(r2)
            screened = erfc(sc(ewald_beta) * r)
            gauss = (
                2.0 * ewald_beta / np.sqrt(np.pi) * np.exp(-((sc(ewald_beta) * r) ** 2))
            )
            np.multiply(screened, inv_r, out=f_coul)
            f_coul += gauss
            f_coul *= qq
            f_coul *= inv_r2
            np.multiply(qq, screened, out=e_c)
            e_c *= inv_r
        fscal = f_lj
        fscal += f_coul
        fscal *= inside
        for d in range(3):
            np.multiply(fscal, dx[:, d], out=fvec[d])

        np.multiply(c12, inv_r12, out=e_l)
        np.multiply(c6, inv_r6, out=t)
        e_l -= t
        e_l -= e_shift
        e_l *= inside
        e_lj += float(np.sum(e_l, dtype=np.float64))
        e_c *= inside
        e_coul += float(np.sum(e_c, dtype=np.float64))

        # i-side: reduceat over this chunk's (whole) segments; seg_i may
        # repeat across group-key boundaries, hence add.at on the small
        # per-segment sums.
        starts = block.seg_starts[s0:s1] - lo
        seg_i = block.seg_i[s0:s1]
        for d in range(3):
            seg = np.add.reduceat(fvec[d], starts)
            np.add.at(out_forces[:, d], seg_i, seg.astype(odt, copy=False))

    # j-side: one bincount per component over the whole block.
    fvec = scratch["fvec"]
    for d in range(3):
        jsum = np.bincount(block.j, weights=fvec[d, :m], minlength=n)
        out_forces[:, d] -= jsum.astype(odt, copy=False)
    return out_forces, e_lj, e_coul


@dataclass
class NonbondedKernel:
    """Force field + registry-selected non-bonded implementation.

    ``name`` picks the pair-search strategy from :mod:`repro.md.kernels`
    (``"segment"`` or ``"cluster"``); ``dtype`` is the kernel compute
    precision (``"float64"`` or the documented ``"float32"`` fast path).
    The implementation object is resolved lazily because
    :mod:`repro.md.kernels` imports this module.
    """

    ff: ForceField
    coulomb: str = "rf"
    ewald_beta: float = 0.0
    name: str = "cluster"
    dtype: str = "float64"

    @property
    def impl(self):
        """The resolved kernel implementation (cached)."""
        impl = self.__dict__.get("_impl")
        if impl is None:
            from repro.md.kernels import make_kernel

            impl = make_kernel(self.name, dtype=self.dtype)
            self.__dict__["_impl"] = impl
        return impl

    def compute_block(
        self,
        positions: np.ndarray,
        block: PairBlock,
        box: np.ndarray | None = None,
        periodic: np.ndarray | None = None,
        out_forces: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float, float]:
        """Force evaluation over a block, via the registry implementation."""
        return self.impl.compute_block(
            positions,
            block,
            self.ff,
            box=box,
            periodic=periodic,
            out_forces=out_forces,
            coulomb=self.coulomb,
            ewald_beta=self.ewald_beta,
        )

    def make_block(
        self,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        type_ids: np.ndarray,
        charges: np.ndarray,
        n_atoms: int,
        group_key: np.ndarray | None = None,
    ) -> PairBlock:
        """Build a :class:`PairBlock` against this kernel's force field."""
        return PairBlock(
            pair_i, pair_j, type_ids, charges, self.ff,
            n_atoms=n_atoms, group_key=group_key,
        )
