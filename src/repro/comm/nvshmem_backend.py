"""GPU-initiated fused halo exchange over the NVSHMEM substrate.

Functional twin of the paper's Algorithms 3-6:

* **FusedPackCommX** (coordinates): one "kernel" = one task per (rank,
  pulse), all pulses concurrently in flight.  Independent entries (home
  atoms, below ``depOffset``) are packed and transferred immediately;
  dependent entries wait on the exact earlier pulses' signals
  (``firstDependentPulse`` chain).  NVLink peers receive direct stores
  through ``nvshmem_ptr`` views (the TMA ``cp.async.bulk`` path) followed by
  a system-scope release signal; InfiniBand peers receive a single coarsened
  ``put_signal_nbi`` from a registered staging buffer.
* **FusedCommUnpackF** (forces): reverse direction, starting from the last
  pulse.  Over NVLink the *receiver* drives a get from the peer's force
  buffer (keeping accumulation ownership local, as the paper argues); over
  InfiniBand the holder puts into a symmetric per-pulse staging buffer with
  signal.  A zone may only be served once all later pulses' returned forces
  have been accumulated into it (DEP_MGMT), which the paper enforces by
  waiting on every subsequent pulse — reproduced here.

Scheduling is event-driven (see :mod:`repro.comm.scheduler`): a task that
must wait yields the key it waits on — a signal slot, or this rank's
force-accumulation order — and is re-polled only when that key is woken, by
the signal store or by the accumulation that completes.  Everything a
(rank, pulse) needs per step is resolved once in :meth:`NvshmemBackend.bind`
into a :class:`_PulseProgram`, the way the paper builds ``PulseData`` at
DD-partitioning time; the task generators only read it.  Per step a pack
is one ``take`` plus one contiguous add of a bind-time shift tile, straight
into the destination rows, and an accumulation is a single one-dimensional
``np.add.at`` over bind-time flat indices.

The paper's ablations (serialized pulses, no depOffset split) are timing
questions: ``simulate_step(fused=, dep_partitioning=)`` and the
:mod:`repro.analysis.report` ablation tables measure them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.comm.base import HaloBackend, register_backend
from repro.comm.scheduler import CooperativeScheduler, Wait
from repro.dd.exchange import ClusterState
from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER


#: Names of the two per-pulse signal arrays (also the head of their wait keys).
_COORD_SIG = "coordSig"
_FORCE_SIG = "forceSig"


def _flat_index(index_map: np.ndarray) -> np.ndarray:
    """Positions of ``index_map``'s rows in the flattened ``(n, 3)`` array.

    ``np.add.at(forces.reshape(-1), _flat_index(rows), block.reshape(-1))``
    adds every element of ``block`` once, in row order — the additions of
    ``np.add.at(forces, rows, block)``, and of ``forces[rows] += block``
    when no row repeats — through ``add.at``'s one-dimensional fast loop.
    """
    flat = np.empty((index_map.size, 3), dtype=np.int64)
    # Column by column: long loops, not rows of three.
    np.multiply(index_map, 3, out=flat[:, 0])
    np.add(flat[:, 0], 1, out=flat[:, 1])
    np.add(flat[:, 0], 2, out=flat[:, 2])
    return flat.reshape(-1)


class _PulseProgram(NamedTuple):
    """One (rank, pulse)'s share of both exchanges, resolved at bind.

    The argument lists of its three task generators: a function of the
    plan and the topology only — rebuilt with every ``bind``, read-only
    between binds.  The arrays a task writes are the bound cluster's own
    (or views of them), never copies; what it only reads — the shift
    tiles and the flat force indices — is derived from the plan here.
    """

    rank: int
    pid: int
    coord_name: str
    serve_name: str
    acc_name: str
    coord: tuple  # NvshmemBackend._coord_task(*coord)
    serve: tuple  # NvshmemBackend._force_serve_task(*serve)
    acc: tuple  # NvshmemBackend._force_acc_task(*acc)


@register_backend("nvshmem")
class NvshmemBackend(HaloBackend):
    """Fused, signal-driven halo exchange (functional layer)."""

    def __init__(self, pes_per_node: int | None = None, seed: int = 0):
        self.pes_per_node = pes_per_node
        self.seed = seed
        self.runtime: NvshmemRuntime | None = None
        # One scheduler, one seeded stream of interleavings and proxy
        # delivery orders, for the life of the backend.
        self._sched = CooperativeScheduler(
            rng=np.random.default_rng(seed), describe=self._describe_wait
        )
        self._cluster: ClusterState | None = None
        self._programs: list[_PulseProgram] = []
        self._acc_floor: list[int] = []
        self._signals: dict[str, SignalArray] = {}
        self._waits: dict[tuple[int, int], tuple[list, list, list]] = {}
        self._epoch = 0

    # -- binding ------------------------------------------------------------------

    def bind(self, cluster: ClusterState) -> None:
        # The previous plan's programs go first (their flat indices are the
        # size of the whole halo), and a bind that fails leaves no plan.
        self._cluster = None
        self._programs = []
        plan = cluster.plan
        n_pes = cluster.n_ranks
        ppn = self.pes_per_node or n_pes
        topo = NodeTopology(n_pes=n_pes, pes_per_node=ppn)
        # Inter-node puts wait for the proxy, and every acquire is checked
        # against a release store (``relaxed-coord-release`` is caught here).
        rt = NvshmemRuntime(topo)
        self.runtime = rt
        dtype = cluster.system.dtype
        n_pulses = plan.n_pulses

        # The ranks' coordinate and force arrays themselves become the
        # symmetric put/get destinations (GROMACS' symmetric destination
        # requirement): registered in place, never copied or replaced.
        self._coords = rt.heap.register_symmetric("coords", cluster.local_pos)
        self._forces = rt.heap.register_symmetric("forces", cluster.local_forces)

        # Per-pulse symmetric force staging (InfiniBand put destinations):
        # a single node never puts, so it allocates none.
        self._force_stage = []
        if topo.n_nodes > 1:
            sizes = np.array([[p.index_map.size for p in rp.pulses] for rp in plan.ranks])
            for pid, size in enumerate(sizes.max(axis=0, initial=1).tolist()):
                self._force_stage.append(
                    rt.symmetric_alloc(f"forceStage{pid}", (size, 3), dtype)
                )

        # Every store to a signal slot wakes the task parked on it.
        self._signals = {
            name: rt.signal_array(name, n_pulses, wake=self._sched.wake)
            for name in (_COORD_SIG, _FORCE_SIG)
        }
        self._epoch = 0
        self._acc_floor = [n_pulses] * n_pes

        self._programs = self._compile(cluster, topo)
        self._cluster = cluster

    def _compile(self, cluster: ClusterState, topo: NodeTopology) -> list[_PulseProgram]:
        """Resolve, per (rank, pulse), everything its three tasks read."""
        rt = self.runtime
        plan = cluster.plan
        n_pulses = plan.n_pulses
        dtype = cluster.system.dtype
        coords = self._coords
        stages = [buf.arrays for buf in self._force_stage]
        # Pulses of each rank that a later pulse accumulates into (its
        # dependent entries reference them): only those zones carry data
        # the force signal must flush (the paper's hasDataWrites).
        fed = [set().union(*(p.depends_on for p in rp.pulses)) for rp in plan.ranks]
        # Every pulse's flat force indices, built for the whole plan at
        # once (rank-major, pulse order); each program reads its own slice.
        sends = [p for rp in plan.ranks for p in rp.pulses]
        maps = [p.index_map for p in sends]
        flat_all = _flat_index(np.concatenate(maps) if maps else np.empty(0, np.int64))
        # Shift tiles: a pulse's shift once per packed row, so a pack adds
        # it in one contiguous pass rather than a broadcast over rows of
        # three.  All rows of a tile are equal, so pulses with the same
        # shift (a handful of distinct vectors) share one, sliced.
        longest = max((m.size for m in maps), default=0)
        tiles: dict[bytes, np.ndarray] = {}
        row = 0  # rows of flat_all taken by the programs so far
        programs = []
        for rp in plan.ranks:
            rank, pulses = rp.rank, rp.pulses
            pos = cluster.local_pos[rank]
            forces = cluster.local_forces[rank]
            # Accumulation writes through this view: never a copy.
            forces_flat = np.reshape(forces, -1, copy=False)
            # A rank's own accumulations must land in descending pulse
            # order: two pulses' index_maps may share home rows, and
            # floating-point accumulation order would otherwise depend on
            # the schedule.  The reference exchange accumulates
            # last-pulse-first; matching it here keeps trajectories
            # bit-identical under any interleaving: hence the ``order``
            # waits of the accumulation tasks.
            order, arrived, returned = self._rank_waits(rank, n_pulses)
            for p in pulses:
                pid = p.pulse_id
                tag = f"[rank={rank},pulse={pid}]"
                index_map = p.index_map
                size = index_map.size
                peer = p.send_rank
                hp = plan.ranks[peer].pulses[pid]  # where our selection lands
                if hp.recv_size != size:
                    # A pack longer than the peer's zone would run on into
                    # the next zone's rows: refuse the plan, not the step.
                    raise ValueError(
                        f"pulse {pid}: rank {rank} sends {size} rows but "
                        f"rank {peer} receives {hp.recv_size}"
                    )
                owner = p.recv_rank  # the rank that sent us these coordinates
                remote = rt.ptr(coords, peer, rank)
                stage = zone = staged = None
                if remote is None:
                    # Send staging is a plain local buffer registered with
                    # the runtime (sources need not be symmetric —
                    # nvshmemx_buffer_register); forces come back through
                    # the symmetric per-pulse staging.
                    stage = rt.heap.register_buffer(rank, np.empty((size, 3), dtype))
                    staged = stages[pid][rank][: hp.recv_size]
                if not topo.same_node(rank, owner):
                    zone = forces[p.atom_offset : p.atom_offset + p.recv_size]
                first, row = row, row + size
                tile = tiles.get(p.coord_shift.tobytes())
                if tile is None:
                    tile = tiles[p.coord_shift.tobytes()] = np.tile(
                        p.coord_shift.astype(dtype), (longest, 1)
                    )
                dep_offset = p.dep_offset
                programs.append(
                    _PulseProgram(
                        rank, pid, "coordX" + tag, "serveF" + tag, "accF" + tag,
                        coord=(
                            rank, pid, pos,
                            index_map[:dep_offset], index_map[dep_offset:],
                            tile[:dep_offset], tile[dep_offset:size],
                            [arrived[k] for k in sorted(p.depends_on)],
                            peer, hp.atom_offset, remote, stage,
                        ),
                        # The zone we serve may go once every later pulse
                        # has accumulated (Algorithm 5 line 9 waits on *all*
                        # of them, not only those whose entries reference it).
                        serve=(rank, pid, order[pid + 1], owner, pid in fed[rank], zone),
                        acc=(
                            rank, pid,
                            order[pid + 1] if pid + 1 < n_pulses else None,
                            # needs_data: staged data, or a zone the peer
                            # accumulated into (it then release-stores).
                            returned[pid][remote is None or pid in fed[peer]],
                            peer, hp.atom_offset, hp.recv_size, staged,
                            forces_flat, flat_all[3 * first : 3 * row],
                        ),
                    )
                )
        return programs

    def _rank_waits(self, rank: int, n_pulses: int) -> tuple[list, list, list]:
        """Every wait the tasks of ``rank`` can yield, made once per backend.

        Waits are pure functions of (rank, pulse): the signal array, the
        epoch and the accumulation floor are looked up when polled.
        Returns ``(order, arrived, returned)``: ``order[q]`` — every force
        pulse >= q has been accumulated here; ``arrived[k]`` — pulse k's
        coordinates have landed; ``returned[k][needs_data]`` — pulse k's
        forces are back.
        """
        waits = self._waits.get((rank, n_pulses))
        if waits is None:
            pulses = range(n_pulses)
            waits = self._waits[rank, n_pulses] = (
                [None] + [self._order_wait(rank, q) for q in range(1, n_pulses + 1)],
                [self._signal_wait(_COORD_SIG, rank, k, True) for k in pulses],
                [
                    [self._signal_wait(_FORCE_SIG, rank, k, flag) for flag in (False, True)]
                    for k in pulses
                ],
            )
        return waits

    def _signal_wait(self, name: str, pe: int, idx: int, needs_data: bool) -> Wait:
        """Acquire-wait on this exchange's epoch, woken by a store to the slot."""
        return Wait(
            self._signals[name].key(pe, idx),
            lambda: self._signals[name].acquire_check(pe, idx, self._epoch, needs_data),
        )

    def _order_wait(self, rank: int, floor: int) -> Wait:
        """Wait until ``rank`` has accumulated every pulse >= ``floor``.

        Woken by the accumulation of pulse ``floor`` itself
        (:meth:`_force_acc_task`), the one that makes it true.
        """
        return Wait(("acc", rank, floor), lambda: self._acc_floor[rank] <= floor)

    def _describe_wait(self, key: tuple) -> str:
        """What a parked task's key is still missing (deadlock reports)."""
        kind, pe, idx = key
        if kind == "acc":
            return f"accumulated down to pulse {self._acc_floor[pe]}, need {idx}"
        return self._signals[kind].describe(pe, idx, self._epoch)

    def _bound(self, cluster: ClusterState) -> NvshmemRuntime:
        if self.runtime is None or cluster is not self._cluster:
            raise RuntimeError("bind() must run before exchanges")
        return self.runtime

    # -- coordinate exchange ------------------------------------------------------

    def exchange_coordinates(self, cluster: ClusterState, on_pulse=None) -> None:
        rt = self._bound(cluster)
        self._epoch += 1
        tasks = [(pp.coord_name, self._coord_task(*pp.coord)) for pp in self._programs]
        self._run_scheduled(tasks, "x")
        # The schedule is complete; all signals observed. (quiet for hygiene)
        rt.quiet()
        if on_pulse is not None:
            # Delayed delivery means inbound data is only guaranteed visible
            # after quiet(); batch every (rank, pulse) notification here.
            for pp in self._programs:
                on_pulse(pp.rank, pp.pid)

    def _run_scheduled(self, tasks, direction: str) -> None:
        """Drive one exchange's task generators, counting proxy stalls.

        A stall round (nothing runnable until the proxy moves) models IB
        proxy *delivery*, not spinning: each one delivers a single pending
        put, picked at random from the queue, and the put's signal store
        wakes whoever waits on it.  An exchange therefore stalls exactly
        once per inter-node ``put_signal``.
        """
        rt = self.runtime
        sched = self._sched
        stalls = 0

        def on_stall() -> bool:
            nonlocal stalls
            stalls += 1
            return rt.progress(n_ops=1, order=sched.rng) > 0

        with TRACER.span(
            f"comm.nvshmem.halo_{direction}", cat="comm", pulses=self._cluster.plan.n_pulses
        ) as span:
            rounds = sched.run(tasks, on_stall=on_stall)
            span.set(rounds=rounds, stalls=stalls, polls=sched.polls_used)
        METRICS.counter("comm.stall_rounds", backend="nvshmem", dir=direction).inc(stalls)
        METRICS.histogram("comm.sched_rounds", backend="nvshmem", dir=direction).observe(rounds)

    def _coord_task(
        self,
        rank: int,
        pid: int,
        pos: np.ndarray,
        indep: np.ndarray,  # packed before any wait (below depOffset)
        dep: np.ndarray,  # packed after ``waits``
        indep_shift: np.ndarray,  # the shift tile of each part
        dep_shift: np.ndarray,
        waits: list[Wait],
        peer: int,  # the pulse's send_rank
        peer_offset: int,  # where our selection lands in the peer's coords
        remote: np.ndarray | None,  # nvshmem_ptr view of the peer's coords (NVLink)
        stage: np.ndarray | None,  # ... or the registered send staging (IB)
    ):
        """FusedPackCommX for one (rank, pulse): a cooperative generator."""
        rt = self.runtime
        n_indep = indep.size
        # Phase 1: pack (and on NVLink, immediately store) independent data.
        if n_indep:
            if remote is not None:
                rt.direct_store(remote, peer_offset, pos, indep, indep_shift)
            else:
                np.add(pos.take(indep, axis=0), indep_shift, out=stage[:n_indep])
        # Phase 2: acquire-wait the exact dependency chain.
        yield from waits
        # Phase 3: pack dependent data, then notify.
        if dep.size:
            if remote is not None:
                rt.direct_store(remote, peer_offset + n_indep, pos, dep, dep_shift)
            else:
                np.add(pos.take(dep, axis=0), dep_shift, out=stage[n_indep:])
        sig = self._signals[_COORD_SIG]
        if remote is not None:
            # Data went through direct stores: system-scope release signal.
            sig.release_store(peer, pid, self._epoch)
        else:
            rt.put_signal_nbi(
                self._coords,
                peer,
                peer_offset,
                stage,
                sig,
                pid,
                self._epoch,
                source_pe=rank,
            )
        # Receiving side has no work: puts/stores target the coordinate
        # buffer itself (no unpack kernel — the fusion the paper describes).

    # -- force exchange --------------------------------------------------------------

    def exchange_forces(self, cluster: ClusterState) -> None:
        rt = self._bound(cluster)
        self._epoch += 1
        self._acc_floor[:] = [cluster.plan.n_pulses] * cluster.n_ranks
        tasks = []
        for pp in self._programs:
            tasks.append((pp.serve_name, self._force_serve_task(*pp.serve)))
            tasks.append((pp.acc_name, self._force_acc_task(*pp.acc)))
        self._run_scheduled(tasks, "f")
        rt.quiet()

    def _force_serve_task(
        self,
        rank: int,
        pid: int,
        ready: Wait,  # DEP_MGMT: later pulses have accumulated into the zone
        owner: int,  # the pulse's recv_rank: it sent us these coordinates
        flush: bool,  # the zone holds our accumulations: release, not relaxed
        zone: np.ndarray | None,  # put source over IB; None: NVLink owner *gets*
    ):
        """Make this rank's received-zone forces available to their owner."""
        yield ready
        sig = self._signals[_FORCE_SIG]
        if zone is None:
            # NVLink: owner will *get* the data; we only notify.  A release
            # store is needed only when our accumulations must be flushed
            # (the paper's hasDataWrites distinction, Algorithm 5 line 22).
            if flush:
                sig.release_store(owner, pid, self._epoch)
            else:
                sig.relaxed_store(owner, pid, self._epoch)
        else:
            self.runtime.put_signal_nbi(
                self._force_stage[pid],
                owner,
                0,
                zone,
                sig,
                pid,
                self._epoch,
                source_pe=rank,
            )

    def _force_acc_task(
        self,
        rank: int,
        pid: int,
        in_order: Wait | None,  # None for the last pulse, which goes first
        arrived: Wait,
        peer: int,  # the pulse's send_rank: it holds the zone we sent it
        peer_offset: int,
        count: int,
        staged: np.ndarray | None,  # IB landing rows; None: get from the peer
        forces_flat: np.ndarray,  # the rank's forces, flattened (a view)
        flat_index: np.ndarray,  # _flat_index(index_map)
    ):
        """Receive (get or staged) and scatter-accumulate one pulse's forces."""
        if in_order is not None:
            yield in_order
        yield arrived
        block = staged
        if block is None:
            block = self.runtime.get(self._forces, peer, peer_offset, count, local_pe=rank)
        np.add.at(forces_flat, flat_index, block.reshape(-1))
        self._acc_floor[rank] = pid
        self._sched.wake(("acc", rank, pid))
