"""Non-bonded pair interactions: Lennard-Jones 12-6 + reaction-field Coulomb.

One evaluated pair-list representation, one evaluator, one oracle — all
over flat pair arrays ``i``/``j``:

* :func:`pair_forces` — the scatter oracle ``tests/`` compare against:
  per-step parameter gathers and ``np.add.at`` scatter, the NumPy
  analogue of the ``atomicAdd`` accumulation the paper's GPU unpack
  kernels use.  Simple, slow; no ``src/`` path calls it.
* :class:`PairBlock` + :func:`block_forces` — what every simulator runs
  on its list, called directly: the pair list is sorted by ``i`` once
  (at build/prune time), ``C6``/``C12`` and charge products are cached
  per list (40 B/pair), and the force reduction sums ``i``-segments plus
  one float64 accumulator row per atom for the ``j`` side — the analogue
  of GROMACS' sorted cluster-pair reduction.  The evaluator is compiled C
  (``nonbonded.c``, built on first use by :mod:`repro.md.native`) and
  cache-blocked: it walks the list in :data:`CHUNK_PAIRS`-pair chunks
  cut at ``i``-segment boundaries over one chunk-sized scratch per
  thread, and a block holds nothing but its list.
* :func:`block_forces_numpy` — the same chain in NumPy, ≈60 ufunc passes
  per chunk (``reduceat`` over ``i``-segments, one ``bincount`` per
  component for ``j``): the oracle the compiled evaluator is held to bit
  for bit.  No ``src/`` path calls it.
* :class:`DualList`, :meth:`PairBlock.pruned` and :func:`drift_guard` — a
  DD rank's dual pair list (outer search list, evaluated inner block),
  its re-prune into a block and its drift guard, compiled
  (``pairsearch.c``; :mod:`repro.par.phases` runs them).
  :func:`within_radius` + :class:`PairBlock` and the guard's ``einsum``
  test are the NumPy they are held to.

Pairs beyond the interaction cutoff (present in a buffered Verlet list)
contribute zero, matching GROMACS' buffered-list semantics; the block path
masks them instead of compacting, so the cached parameters stay aligned
with the sorted list.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.md import native
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
    f_coul = qq * (inv_r * inv_r2 - 2.0 * ff.k_rf)
    e_coul = float(np.sum(qq * (inv_r + ff.k_rf * r2 - ff.c_rf)))
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
    per-pulse partition of a non-local list).  Caches the gathers that
    are constant while the list lives — LJ ``C6``/``C12`` and charge
    products, 40 B/pair with the ``int64`` indices — and the segment
    boundaries for ``np.add.reduceat``; :func:`block_forces` derives
    what is elementwise in them (DESIGN.md §4).
    Nothing is written after ``__init__``: the evaluator's scratch
    belongs to :func:`block_forces`, not to the list.

    Correctness does not require sortedness — boundaries are wherever
    ``i`` (or ``group_key``) changes between consecutive entries — but an
    unsorted list degenerates to one segment per pair and loses the point.
    Indices outside ``[0, n_atoms)`` raise :class:`ValueError` here, once,
    so the evaluator's gathers need no bounds check of their own.
    """

    __slots__ = ("i", "j", "n_atoms", "seg_starts", "seg_i", "c6", "c12", "qq", "args")

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
            ).astype(np.int64)
        else:
            self.seg_starts = np.zeros(0, dtype=np.int64)
        self.seg_i = i[self.seg_starts]
        # One flat type-pair code and 1-D gathers: a 2-D fancy index
        # would compute the code once per table, and gathers slower.
        pair_type = type_ids.take(i) * ff.n_types + type_ids.take(j)
        self.c6 = ff.c6.ravel().take(pair_type).astype(np.float64, copy=False)
        self.c12 = ff.c12.ravel().take(pair_type).astype(np.float64, copy=False)
        self.qq = (COULOMB_FACTOR * charges.take(i) * charges.take(j)).astype(
            np.float64, copy=False
        )
        self.args = self._args()

    def _args(self) -> tuple:
        """The block's arguments to the compiled evaluator: its arrays'
        addresses and sizes, taken once."""
        addr = native.address
        return (
            addr(self.i), addr(self.j), self.n_pairs,
            addr(self.seg_starts), addr(self.seg_i), self.seg_starts.size,
            addr(self.c6), addr(self.c12), addr(self.qq),
        )

    @classmethod
    def pruned(
        cls,
        positions: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        radius: float,
        type_ids: np.ndarray,
        charges: np.ndarray,
        ff: ForceField,
        box: np.ndarray | None = None,
        periodic: np.ndarray | None = None,
        src_pulse: np.ndarray | None = None,
    ) -> "PairBlock":
        """The block of the outer pairs ``pair_i``/``pair_j`` (``int32``)
        at most ``radius`` apart — a DD rank's re-prune, compiled
        (``pairsearch.c``): one counting pass, then one fill pass into
        arrays sized exactly.

        Bit for bit the block ``PairBlock(i[keep], j[keep], type_ids,
        charges, ff, n_atoms=len(positions), group_key=...)`` over the
        mask of :func:`within_radius` (float64 coordinates, the minimum
        image along ``periodic`` dimensions when a ``box`` is given), with
        the group key ``max(src_pulse[i], src_pulse[j])`` when
        ``src_pulse`` is given.  Charges and the force field's tables are
        float64, as every :class:`~repro.md.system.MDSystem` holds them.
        An index outside the position rows raises :class:`ValueError`,
        kept or not, and so do per-atom arrays shorter than the rows or
        type ids outside the force field's.
        """
        pos = np.ascontiguousarray(positions)
        n = pos.shape[0]
        i, j = np.ascontiguousarray(pair_i), np.ascontiguousarray(pair_j)
        if i.shape != j.shape:
            raise ValueError("pair arrays must have equal shape")
        if i.dtype != np.int32 or j.dtype != np.int32:
            raise ValueError("outer pair arrays must be int32")
        lib = native.library()
        count = {"d": lib.ps_prune_count_f64, "f": lib.ps_prune_count_f32}.get(
            pos.dtype.char
        )
        if count is None:
            raise ValueError("positions must be float32 or float64")
        if box is None:
            box, wrap = np.zeros(3), 0
        else:
            box = np.ascontiguousarray(box, dtype=np.float64)
            wrap = sum(1 << d for d in range(3) if periodic is None or periodic[d])
        addr = native.address
        types = np.ascontiguousarray(type_ids, dtype=np.int32)
        charges = np.ascontiguousarray(charges, dtype=np.float64)
        src = (
            None if src_pulse is None
            else np.ascontiguousarray(src_pulse, dtype=np.int32)
        )
        if (
            min(types.size, charges.size, n if src is None else src.size) < n
            or n and (types.min() < 0 or types.max() >= ff.n_types)
        ):
            raise ValueError(
                f"type ids in [0, {ff.n_types}), charges and pulses are needed "
                f"for all {n} position rows"
            )
        src_addr = None if src is None else addr(src)
        keep = np.empty(i.size, dtype=np.uint8)
        counts = np.zeros(3, dtype=np.int64)
        if count(
            addr(pos), n, addr(i), addr(j), i.size, addr(box), wrap,
            radius * radius, src_addr, addr(keep), addr(counts),
        ):
            raise ValueError(f"pair indices must lie in [0, {n})")
        kept, segments, end = counts.tolist()
        self = cls.__new__(cls)
        self.n_atoms = n
        self.i, self.j = np.empty((2, kept), dtype=np.int64)
        self.seg_starts, self.seg_i = np.empty((2, segments), dtype=np.int64)
        self.c6, self.c12, self.qq = np.empty((3, kept))
        lib.ps_prune_fill(
            addr(i), addr(j), end, addr(keep), src_addr,
            addr(types), ff.n_types, addr(ff.c6), addr(ff.c12), addr(charges),
            COULOMB_FACTOR,
            *map(addr, (self.i, self.j, self.seg_starts, self.seg_i,
                        self.c6, self.c12, self.qq)),
        )
        self.args = self._args()
        return self

    def __setstate__(self, state) -> None:
        # A copy or an unpickled block holds new arrays: new addresses.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.args = self._args()

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
            + self.c6.nbytes + self.c12.nbytes + self.qq.nbytes
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
    #: The drift guard of the rows against ``ref`` (:func:`drift_guard`),
    #: bound at the last prune.
    drifted: Callable[[], bool] | None = None

    @property
    def n_pairs(self) -> int:
        return int(self.i.size)

    @property
    def nbytes(self) -> int:
        """Stored footprint of the outer list (8 B/pair)."""
        return int(self.i.nbytes + self.j.nbytes)


#: Pairs per evaluation chunk: the middle of the flat 16k-32k bottom of
#: the NumPy chain's sweep on both MD workloads (DESIGN.md §4).  Energies
#: are sums of per-chunk sums, so the compiled evaluator keeps it: a
#: different value would move every energy in its last bits.
CHUNK_PAIRS = 24576

#: Chain-dtype columns of the compiled evaluator's chunk scratch:
#: ``dx`` (three, overwritten by the force vectors), ``r²``, ``e_lj``
#: and ``e_coul`` per pair.
CHUNK_COLUMNS = 6


class _Scratch(threading.local):
    """Evaluator scratch of one thread (= one process under both
    executors).  ``by_dtype`` maps the compute dtype *name* to
    ``chunk`` (:data:`CHUNK_COLUMNS` chunk-sized columns) and ``acc``
    (the ``j``-side float64 accumulator, three per atom row of the
    largest block seen), both grow-only; ``args`` holds each dtype's
    two arrays with their ``(chunk address, chunk rows, acc address)``.
    No call reads what an earlier call left there."""

    def __init__(self) -> None:
        self.by_dtype: dict[str, dict[str, np.ndarray]] = {}
        self.args: dict[str, tuple] = {}


_scratch = _Scratch()


def scratch_nbytes() -> int:
    """Bytes of evaluator scratch the calling thread holds, over all
    dtypes (the ``md.kernel.scratch_bytes`` gauge)."""
    return sum(a.nbytes for s in _scratch.by_dtype.values() for a in s.values())


def _scratch_for(dtype: str, rows: int, atoms: int) -> dict[str, np.ndarray]:
    """Scratch with at least ``rows`` chunk rows and accumulator room
    for ``atoms`` atom rows.  Arrays are created from the dtype *name*:
    an ``np.dtype`` that came through pickle is a copy of NumPy's
    singleton and arrays made with it run slower (see ``RankConfig.dtype``)."""
    s = _scratch.by_dtype.setdefault(dtype, {})
    # CHUNK_PAIRS rows hold every chunk unless one i-segment alone is
    # longer than that, so the chunk arrays are made once per process.
    rows = max(rows, CHUNK_PAIRS)
    for name, shape, kind in (
        ("chunk", (CHUNK_COLUMNS, rows), dtype), ("acc", (3 * atoms,), "float64"),
    ):
        if name not in s or s[name].shape[-1] < shape[-1]:
            s[name] = np.empty(shape, dtype=kind)
            METRICS.gauge("md.kernel.scratch_bytes").set(scratch_nbytes())
    return s


def _scratch_args(dtype: str, rows: int, atoms: int) -> tuple[int, int, int]:
    """``(chunk address, chunk rows, acc address)`` of :func:`_scratch_for`'s
    arrays, taken again only when they are other arrays (they grew)."""
    s = _scratch_for(dtype, rows, atoms)
    chunk, acc = s["chunk"], s["acc"]
    held = _scratch.args.get(dtype)
    if held is None or held[0] is not chunk or held[1] is not acc:
        held = _scratch.args[dtype] = (
            chunk, acc,
            (native.address(chunk), chunk.shape[1], native.address(acc)),
        )
    return held[2]


def within_radius(
    positions: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    radius: float,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
) -> np.ndarray:
    """Keep mask of the pairs at most ``radius`` apart — the prune pass.

    Chunk by chunk over the evaluator's per-thread float64 scratch,
    one coordinate at a time from a column copy as the kernel gathers,
    with ``r²`` a running sum in x, y, z order: a mask needs no
    bit-compatibility with the kernel's ``r²``, which follows ``einsum``'s
    association instead.  The gathers clip instead of bounds-checking: an
    index out of range yields a meaningless distance, and a kept one is
    rejected by the :class:`PairBlock` the survivors are made into.

    With :class:`PairBlock` over the pairs it keeps, the NumPy oracle of
    :meth:`PairBlock.pruned`; no ``src/`` path calls it.
    """
    cols = np.ascontiguousarray(np.asarray(positions).T, dtype=np.float64)
    box = None if box is None else np.asarray(box, dtype=np.float64)
    r2_max = radius * radius
    keep = np.empty(pair_i.size, dtype=bool)
    for lo in range(0, pair_i.size, CHUNK_PAIRS):
        hi = min(lo + CHUNK_PAIRS, pair_i.size)
        c = hi - lo
        xi, xj, shift, r2 = _scratch_for("float64", c, 0)["chunk"][:4, :c]
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


def drift_guard(
    positions: np.ndarray, ref: np.ndarray, limit: float
) -> Callable[[], bool]:
    """A DD rank's drift guard for one half, compiled (``pairsearch.c``)
    and bound to its arrays once: each call returns whether some row of
    ``positions[:len(ref)]`` now lies more than ``limit`` from its row of
    ``ref``.

    The test ``not np.einsum("ij,ij->i", d, d).max() <= limit * limit``
    with ``d = positions[:len(ref)] - ref``, bit for bit: the difference
    and the squares in the positions' dtype (which ``ref`` shares),
    summed in ``einsum``'s association for it, and ``limit²`` rounded to
    that dtype as NumPy compares a float32 maximum with a Python float.
    A NaN distance has drifted; no rows never have.  The call reads both
    arrays in place, so they must be C-contiguous; it keeps them alive.
    """
    rows = ref.shape[0]
    lib = native.library()
    fn = {"d": lib.ps_drifted_f64, "f": lib.ps_drifted_f32}.get(positions.dtype.char)
    if (
        fn is None or ref.dtype != positions.dtype
        or ref.shape != (rows, 3) or positions.shape[1:] != (3,)
        or positions.shape[0] < rows
        or not (positions.flags.c_contiguous and ref.flags.c_contiguous)
    ):
        raise ValueError(
            "drift_guard takes C-contiguous float32 or float64 (n, 3) positions "
            "and (rows, 3) reference rows of their dtype, rows <= n"
        )
    call = functools.partial(
        fn, native.address(positions), native.address(ref), rows, limit * limit
    )
    call.arrays = (positions, ref)  # what the addresses point into
    return call


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


#: ``out_forces`` dtypes the compiled evaluator writes (by ``dtype.char``),
#: and its ``out_f32`` flag.
_OUT_F32 = {"d": 0, "f": 1}


def block_forces(
    positions: np.ndarray,
    block: PairBlock,
    ff: ForceField,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
    dtype="float64",
) -> tuple[np.ndarray, float, float]:
    """LJ + reaction-field forces and energies over a :class:`PairBlock`:
    the evaluator every simulator runs.

    Compiled (``nonbonded.c``, built and loaded by :mod:`repro.md.native`),
    and bit-identical to :func:`block_forces_numpy` — forces, ``e_lj``
    and ``e_coul`` — in both dtypes: the same chunks of
    :data:`CHUNK_PAIRS` pairs (read at call time), the same order of
    every operation, NumPy's own summation orders.  Forces accumulate
    into ``out_forces`` (zeroed ``(n, 3)`` of the positions' dtype if
    omitted; float32 or float64, C-contiguous); energies are float64.
    ``dtype="float32"`` is the mixed-precision fast path: geometry and
    the chain in float32, energy sums and per-atom accumulation in
    float64.  Pairs beyond the cutoff contribute exactly zero; an
    interacting pair at ``r == 0`` raises :class:`FloatingPointError`,
    with earlier chunks' ``i``-side sums already in ``out_forces``.
    """
    positions = np.asarray(positions)
    n = positions.shape[0]
    if n != block.n_atoms:
        raise ValueError(
            f"positions have {n} rows but the block was built for {block.n_atoms}"
        )
    if positions.shape != (n, 3):
        raise ValueError(f"positions must have shape ({n}, 3)")
    if out_forces is None:
        out_forces = np.zeros((n, 3), dtype=positions.dtype)
    elif out_forces.shape != (n, 3):
        raise ValueError(f"out_forces must have shape ({n}, 3)")
    if block.n_pairs == 0:
        return out_forces, 0.0, 0.0
    out_f32 = _OUT_F32.get(out_forces.dtype.char)
    if out_f32 is None or not (
        out_forces.flags.c_contiguous and out_forces.flags.writeable
    ):
        raise ValueError(
            "out_forces must be a writeable C-contiguous float32 or float64 array"
        )
    if dtype.__class__ is not str:
        dtype = np.dtype(dtype).name  # names only: see RankConfig.dtype
    if dtype == "float64":
        fn = native.library().nb_block_forces_f64
    elif dtype == "float32":
        fn = native.library().nb_block_forces_f32
    else:
        raise ValueError(f"unknown kernel dtype '{dtype}'; use float64 or float32")
    pos = np.ascontiguousarray(positions, dtype=dtype)
    if box is None:
        box, wrap = (0.0, 0.0, 0.0), 0
    else:
        box = [float(b) for b in box]
        wrap = sum(1 << d for d in range(3) if periodic is None or periodic[d])
    rc2 = ff.cutoff * ff.cutoff
    energies = (ctypes.c_double * 2)()
    scratch = _scratch_args(dtype, CHUNK_PAIRS, n)
    pos_addr, out_addr = native.address(pos), native.address(out_forces)
    while True:
        code = fn(
            pos_addr, n, *block.args, *box, wrap,
            rc2, 1.0 / rc2**3, ff.k_rf, ff.c_rf, CHUNK_PAIRS, np.getbufsize(),
            *scratch, out_addr, out_f32, energies,
        )
        if code <= 0:
            break
        scratch = _scratch_args(dtype, code, n)  # a segment longer than a chunk
    if code < 0:
        raise FloatingPointError("overlapping atoms in pair list (r == 0)")
    return out_forces, energies[0], energies[1]


def block_forces_numpy(
    positions: np.ndarray,
    block: PairBlock,
    ff: ForceField,
    box: np.ndarray | None = None,
    periodic: np.ndarray | None = None,
    out_forces: np.ndarray | None = None,
    dtype="float64",
) -> tuple[np.ndarray, float, float]:
    """The NumPy chain :func:`block_forces` compiles: its oracle.

    Segment-reduced twin of :func:`pair_forces` over a :class:`PairBlock`,
    as ≈60 ufunc passes per chunk.  No ``src/`` path calls it;
    ``tests/test_native.py`` holds the compiled evaluator to it bit for
    bit, the way ``tests/`` hold this chain to the scatter oracle.

    Per-pair force vectors are bit-identical to :func:`pair_forces` on the
    same list ordering (the arithmetic keeps the same evaluation order);
    only the accumulation into per-atom forces differs — ``reduceat`` over
    ``i``-segments and ``bincount`` over ``j`` instead of two ``add.at``
    scatters — so per-atom results agree to accumulation-order rounding.
    Out-of-cutoff pairs are masked (zeroed) rather than compacted.

    The block runs in chunks of at most :data:`CHUNK_PAIRS` pairs cut at
    ``i``-segment boundaries: gather, minimum image, interaction chain,
    energy sums and ``i``-side reduction per chunk; the chunks' force
    vectors collect in a pair-length buffer and the ``j``-side
    ``bincount`` runs once over the whole block.  No segment is split, so
    per-atom forces do not depend on the chunk size; energies are sums of
    per-chunk sums and do, to rounding.

    Geometry runs column by column on a ``(3, n)`` copy of the positions:
    contiguous 1-D gathers, per-dimension minimum image, and ``r²``
    summed in the association NumPy's ``einsum("ij,ij->i")`` (the
    oracle's) uses for the dtype — ``(x² + z²) + y²`` in float64,
    ``(x² + y²) + z²`` in float32 (DESIGN.md §4).

    ``12*C12``, ``6*C6`` and the LJ shift are derived per chunk in
    float64.  ``dtype="float32"`` runs geometry, parameters and the chain
    in float32 while energy sums and per-atom accumulation stay float64;
    a derived parameter is rounded to float32 once, as it is written.
    The overlap (``r == 0``) check considers only pairs that interact;
    when it raises, ``out_forces`` may already hold earlier chunks'
    ``i``-side sums.
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
    dt = np.dtype(dtype)
    sc = dt.type  # scalar-constant cast; a no-op for float64
    cols = np.ascontiguousarray(positions.T, dtype=dt.name)
    box_dt = None if box is None else np.asarray(box, dtype=dt)
    rc2 = ff.cutoff * ff.cutoff
    rc_inv6 = 1.0 / rc2**3
    # An out-of-cutoff r² up to √max keeps every term of the chain finite
    # (k_rf·r²·qq too, for any k_rf·|qq| < √max), so the masks zero such
    # a pair exactly; only a larger or NaN one needs the dummy distance.
    r2_finite = np.sqrt(np.finfo(dt).max)
    # einsum's order of the squares: x, z, y in float64; x, y, z in float32.
    d1, d2 = (2, 1) if dt == np.float64 else (1, 2)
    odt = out_forces.dtype

    e_lj = e_coul = 0.0
    fvec_all = np.empty((3, m), dtype=dt)
    for lo, hi, s0, s1 in _chunks(block, CHUNK_PAIRS):
        c = hi - lo
        fvec = fvec_all[:, lo:hi]
        dx, xj = np.empty((2, 3, c), dtype=dt)
        r2, inv_r2, inv_r6, inv_r12, inv_r, f_lj, t, f_coul, e_c, e_l = (
            np.empty((10, c), dtype=dt)
        )
        inside, bad = np.empty((2, c), dtype=bool)
        # Indices were validated once, in PairBlock.__init__: "clip" skips
        # the per-call check and the output buffering "raise" implies.
        for d in range(3):
            np.take(cols[d], block.i[lo:hi], out=dx[d], mode="clip")
            np.take(cols[d], block.j[lo:hi], out=xj[d], mode="clip")
        dx -= xj
        if box_dt is not None:
            # Minimum image per periodic dim only: DD rank domains are
            # mostly (often fully) non-periodic, and skipping the wrapped
            # divide/rint there is a real per-step saving.  Bit-compatible
            # with the all-dims form — the shift was exactly zero anyway.
            for d in range(3):
                if periodic is not None and not periodic[d]:
                    continue
                shift = np.divide(dx[d], box_dt[d], out=xj[d])
                np.rint(shift, out=shift)
                shift *= box_dt[d]
                dx[d] -= shift
        np.multiply(dx[0], dx[0], out=r2)
        for d in (d1, d2):
            np.multiply(dx[d], dx[d], out=t)
            r2 += t

        np.less_equal(r2, rc2, out=inside)
        if not np.any(inside):
            # Nothing interacts here, but the whole-block bincount below
            # reads this span.
            fvec[:] = 0.0
            continue
        # Overlap check: r² ≤ 0 < r_c² interacts.  fmin skips a NaN, so
        # one non-finite pair cannot hide an overlap beside it.
        if np.fmin.reduce(r2) <= 0.0:
            raise FloatingPointError("overlapping atoms in pair list (r == 0)")
        # Give non-interacting entries a dummy finite distance before the
        # reciprocal chain when one of them needs it: ``fscal *= inside``
        # zeroes them later, but a non-finite value in the chain would
        # survive it (inf * 0 is nan) and the reductions would smear it
        # across the segment.  A NaN maximum fails the test too.
        if not r2.max() <= r2_finite:
            np.copyto(r2, sc(1.0), where=np.logical_not(inside, out=bad))

        c12_64, c6_64 = block.c12[lo:hi], block.c6[lo:hi]
        # float64 slices are views; the float32 path casts per chunk.
        c12, c6, qq = (
            p.astype(dt, copy=False) for p in (c12_64, c6_64, block.qq[lo:hi])
        )
        np.divide(sc(1.0), r2, out=inv_r2)
        np.multiply(inv_r2, inv_r2, out=inv_r6)
        inv_r6 *= inv_r2
        np.multiply(inv_r6, inv_r6, out=inv_r12)
        np.sqrt(inv_r2, out=inv_r)

        # fscal and per-pair energies, in the exact evaluation order of
        # pair_forces so per-pair results match it bit for bit (in float64).
        # The prefactors are float64 products, rounded once into f_lj / t.
        np.multiply(12.0, c12_64, out=f_lj)
        f_lj *= inv_r12
        np.multiply(6.0, c6_64, out=t)
        t *= inv_r6
        f_lj -= t
        f_lj *= inv_r2
        np.multiply(inv_r, inv_r2, out=f_coul)
        f_coul -= sc(2.0 * ff.k_rf)
        f_coul *= qq
        np.multiply(sc(ff.k_rf), r2, out=e_c)
        e_c += inv_r
        e_c -= sc(ff.c_rf)
        e_c *= qq
        fscal = f_lj
        fscal += f_coul
        fscal *= inside
        for d in range(3):
            np.multiply(fscal, dx[d], out=fvec[d])

        # The LJ shift c12·k·k − c6·k (k = 1/r_c⁶) into the spent f_coul,
        # in float64.
        e64, t64 = np.empty((2, c))
        np.multiply(c12_64, rc_inv6, out=e64)
        e64 *= rc_inv6
        np.multiply(c6_64, rc_inv6, out=t64)
        np.subtract(e64, t64, out=f_coul)
        np.multiply(c12, inv_r12, out=e_l)
        np.multiply(c6, inv_r6, out=t)
        e_l -= t
        e_l -= f_coul
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
    for d in range(3):
        jsum = np.bincount(block.j, weights=fvec_all[d], minlength=n)
        out_forces[:, d] -= jsum.astype(odt, copy=False)
    return out_forces, e_lj, e_coul

