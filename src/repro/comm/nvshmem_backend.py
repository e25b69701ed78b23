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
into its program (task names, generator arguments), the way the paper builds
``PulseData`` at DD-partitioning time.  Per step a pack is one ``take`` plus
one contiguous add of a bind-time shift tile, straight into rows resolved at
bind (the peer's over NVLink, or the IB send staging); an accumulation is one
``np.add.at`` over bind-time flat indices, from the peer's zone in place over
NVLink.  An InfiniBand put-with-signal is an op bound at bind too: issuing it
stores the epoch and queues it.  Every operation is counted once per exchange.

The paper's ablations (serialized pulses, no depOffset split) are timing
questions: ``simulate_step(fused=, dep_partitioning=)`` and the
:mod:`repro.analysis.report` ablation tables measure them.
"""

from __future__ import annotations

import numpy as np

from repro.comm.base import HaloBackend, register_backend
from repro.comm.scheduler import CooperativeScheduler, Wait
from repro.dd.exchange import ClusterState
from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime, PendingOp
from repro.nvshmem.signals import SignalArray
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER


#: Names of the two per-pulse signal arrays (also the head of their wait keys).
_COORD_SIG = "coordSig"
_FORCE_SIG = "forceSig"
#: A (rank, pulse)'s three tasks, as their names begin.
_TASKS = ("coordX", "serveF", "accF")


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
        # The (rank, pulse) programs of the bound plan (see _compile).
        self._coord_progs: list[tuple[str, tuple]] = []  # name, _coord_task args
        self._force_progs: list[tuple[str, tuple, str, tuple]] = []  # serve, acc
        self._acc_floor: list[int] = []
        self._signals: dict[str, SignalArray] = {}
        self._waits: dict[tuple[int, int], tuple[list, list, list, list]] = {}
        self._epoch = 0
        # One exchange's operation totals ("x", "f"), fixed at bind.
        self._op_totals: dict[str, dict[str, int]] = {"x": {}, "f": {}}

    # -- binding ------------------------------------------------------------------

    def bind(self, cluster: ClusterState) -> None:
        # The previous plan's programs go first (their flat indices are the
        # size of the whole halo), and a bind that fails leaves no plan.
        self._cluster = None
        self._coord_progs, self._force_progs = [], []
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
        # one zeroed block per pulse, a slab per PE, since one allocation
        # per PE was a large share of a rebuild.  A single node never puts,
        # so it allocates none.
        self._force_stage = []
        if topo.n_nodes > 1:
            sizes = np.array([[p.index_map.size for p in rp.pulses] for rp in plan.ranks])
            for pid, size in enumerate(sizes.max(axis=0, initial=1).tolist()):
                self._force_stage.append(rt.heap.register_symmetric(
                    f"forceStage{pid}", list(np.zeros((n_pes, size, 3), dtype))
                ))

        # Every store to a signal slot wakes the task parked on it.
        self._signals = {
            name: rt.signal_array(name, n_pulses, wake=self._sched.wake)
            for name in (_COORD_SIG, _FORCE_SIG)
        }
        self._epoch = 0
        self._acc_floor = [n_pulses] * n_pes

        self._coord_progs, self._force_progs = self._compile(cluster, topo)
        self._cluster = cluster

    def _compile(self, cluster: ClusterState, topo: NodeTopology) -> tuple[list, list]:
        """Resolve, per (rank, pulse), everything its three tasks read.

        A function of the plan and the topology only, read-only between
        binds.  The arrays a task writes are the bound cluster's own (or
        views of them), never copies; what it only reads — the shift tiles
        and the flat force indices — is derived from the plan here.
        """
        rt = self.runtime
        plan = cluster.plan
        n_pulses = plan.n_pulses
        dtype = cluster.system.dtype
        stages = [buf.arrays for buf in self._force_stage]
        # Pulses of each rank that a later pulse accumulates into (its
        # dependent entries reference them): only those zones carry data
        # the force signal must flush (the paper's hasDataWrites).
        fed = [{k for p in rp.pulses for k in p.depends_on} for rp in plan.ranks]
        sends = [p for rp in plan.ranks for p in rp.pulses]  # rank-major, pulse order
        maps = [p.index_map for p in sends]
        # Where each send lands: the peer's zone of the same pulse.
        lands = [plan.ranks[p.send_rank].pulses[p.pulse_id] for p in sends]
        for p, hp in zip(sends, lands):
            if hp.recv_size != p.index_map.size:
                # A pack longer than the peer's zone would run on into the
                # next zone's rows: refuse the plan, not the step.
                raise ValueError(
                    f"pulse {p.pulse_id}: rank {p.rank} sends {p.index_map.size} "
                    f"rows but rank {p.send_rank} receives {hp.recv_size}"
                )
        # Over NVLink the pack stores into the peer's zone and the returned
        # forces are read from it, in place; the views of every landing
        # zone are resolved for the whole plan at once (None: another node).
        # Reading the force view when the force signal is seen gives the
        # bits a copy would: the peer serves zone ``pid`` only after every
        # pulse above it has accumulated (its ``order[pid+1]``), and pulses
        # at or below ``pid`` write only rows of zones below ``pid``
        # (``depends_on`` holds earlier pulses only), so the zone is not
        # written again during the exchange.
        where = (
            [p.send_rank for p in sends], [p.rank for p in sends],
            [hp.atom_offset for hp in lands], [hp.recv_size for hp in lands],
        )
        dests, blocks = rt.peer_rows(self._coords, *where), rt.peer_rows(self._forces, *where)
        # One store per non-empty part of a pack, one get per pulse.
        nvlink = [p for p, block in zip(sends, blocks) if block is not None]
        parts = sum((0 < p.dep_offset) + (p.dep_offset < p.send_size) for p in nvlink)
        got = sum(block.nbytes for block in blocks if block is not None)
        # Over InfiniBand each send and each serve is one put-with-signal,
        # bound for the whole plan here (by send index).  Its source is not
        # copied at post: NVSHMEM lets an nbi source be written again only
        # after ``quiet``, which ends every exchange, and neither source is
        # written before that.
        # - A send's source is the (rank, pulse)'s private send staging: only
        #   the task's own two packs write it, both before the post.  The
        #   staging is a plain local buffer registered with the runtime
        #   (sources need not be symmetric — nvshmemx_buffer_register).
        # - A serve's source is zone ``pid`` of the serving rank, read at
        #   delivery for the reason the NVLink force view is read in place:
        #   the serve posts after ``order[pid+1]``, and the accumulations
        #   still to come write only zones below ``pid``.  It lands in the
        #   owner's symmetric per-pulse force staging.
        far = [i for i, dest in enumerate(dests) if dest is None]
        staging = [
            rt.heap.register_buffer(sends[i].rank, np.empty((maps[i].size, 3), dtype))
            for i in far
        ]
        send_ops = dict(zip(far, rt.bind_put_signals(
            self._coords, [sends[i].send_rank for i in far], [sends[i].rank for i in far],
            [lands[i].atom_offset for i in far], staging,
            self._signals[_COORD_SIG], [sends[i].pulse_id for i in far],
        )))
        serve_ops = {}
        ppn = topo.pes_per_node
        for pid, stage in enumerate(self._force_stage):
            served = [
                (i, p) for i, p in enumerate(sends)
                if p.pulse_id == pid and p.rank // ppn != p.recv_rank // ppn
            ]
            serve_ops.update(zip([i for i, _ in served], rt.bind_put_signals(
                stage, [p.recv_rank for _, p in served], [p.rank for _, p in served],
                [0] * len(served),
                [cluster.local_forces[p.rank][p.atom_offset : p.atom_offset + p.recv_size]
                 for _, p in served],
                self._signals[_FORCE_SIG], [pid] * len(served),
            )))
        # Every pulse's flat force indices, built for the whole plan at
        # once; each program reads its own slice.
        flat_all = _flat_index(np.concatenate(maps) if maps else np.empty(0, np.int64))
        # Shift tiles: a pulse's shift once per packed row, so a pack adds
        # it in one contiguous pass rather than a broadcast over rows of
        # three.  All rows of a tile are equal, so pulses with the same
        # shift (a handful of distinct vectors) share one, sliced.
        longest = max((m.size for m in maps), default=0)
        tiles: dict[bytes, np.ndarray] = {}
        row = 0  # rows of flat_all taken by the programs so far
        # Accumulation writes through these views: never a copy.
        flats = [forces.reshape(-1, copy=False) for forces in cluster.local_forces]
        # A rank's own accumulations must land in descending pulse order:
        # two pulses' index_maps may share home rows, and floating-point
        # accumulation order would otherwise depend on the schedule.  The
        # reference exchange accumulates last-pulse-first; matching it here
        # keeps trajectories bit-identical under any interleaving: hence
        # the ``order`` waits of the accumulation tasks.
        waits = [self._rank_waits(rank, n_pulses) for rank in range(cluster.n_ranks)]
        coord_progs, force_progs = [], []
        for i, (p, hp, dest, block) in enumerate(zip(sends, lands, dests, blocks)):
            rank, pid = p.rank, p.pulse_id
            order, arrived, returned, names = waits[rank]
            index_map = p.index_map
            size = index_map.size
            dep_offset = p.dep_offset
            peer = p.send_rank
            owner = p.recv_rank  # the rank that sent us these coordinates
            send, serve = send_ops.get(i), serve_ops.get(i)
            if send is not None:
                # Packs go to the staging; forces come back through the
                # symmetric per-pulse staging.
                dest = send.src
                block = stages[pid][rank][:size]
            first, row = row, row + size
            tile = tiles.get(p.coord_shift.tobytes())
            if tile is None:
                tile = tiles[p.coord_shift.tobytes()] = np.tile(
                    p.coord_shift.astype(dtype), (longest, 1)
                )
            coord_name, serve_name, acc_name = names[pid]
            coord_progs.append((coord_name, (
                rank, pid, cluster.local_pos[rank],
                index_map[:dep_offset], index_map[dep_offset:],
                tile[:dep_offset], tile[dep_offset:size],
                dest[:dep_offset], dest[dep_offset:],
                [arrived[k] for k in p.depends_on],  # ascending, as planned
                peer, send,
            )))
            force_progs.append((
                # The zone we serve may go once every later pulse has
                # accumulated (Algorithm 5 line 9 waits on *all* of them,
                # not only those whose entries reference it).
                serve_name, (pid, order[pid + 1], owner, pid in fed[rank], serve),
                acc_name, (
                    rank, pid,
                    order[pid + 1] if pid + 1 < n_pulses else None,
                    # needs_data: staged data, or a zone the peer
                    # accumulated into (it then release-stores).
                    returned[pid][send is not None or pid in fed[peer]],
                    block.reshape(-1), flats[rank], flat_all[3 * first : 3 * row],
                    order[pid].key,
                ),
            ))
        self._op_totals = {
            "x": {
                "stores": parts, "put_signals": len(send_ops),
                "bytes_put": sum(op.src.nbytes for op in send_ops.values()),
            },
            "f": {
                "gets": len(nvlink), "bytes_got": got, "put_signals": len(serve_ops),
                "bytes_put": sum(op.src.nbytes for op in serve_ops.values()),
            },
        }
        return coord_progs, force_progs

    def _rank_waits(self, rank: int, n_pulses: int) -> tuple[list, list, list, list]:
        """Every wait the tasks of ``rank`` can yield, and the tasks' names,
        made once per backend.

        Waits are pure functions of (rank, pulse): the signal array, the
        epoch and the accumulation floor are looked up when polled.
        Returns ``(order, arrived, returned, names)``: ``order[q]`` — every
        force pulse >= q has been accumulated here (its key is what pulse
        q's accumulation wakes); ``arrived[k]`` — pulse k's coordinates have
        landed; ``returned[k][needs_data]`` — pulse k's forces are back;
        ``names[k]`` — pulse k's three task names.
        """
        waits = self._waits.get((rank, n_pulses))
        if waits is None:
            pulses = range(n_pulses)
            waits = self._waits[rank, n_pulses] = (
                [self._order_wait(rank, q) for q in range(n_pulses + 1)],
                [self._signal_wait(_COORD_SIG, rank, k, True) for k in pulses],
                [
                    [self._signal_wait(_FORCE_SIG, rank, k, flag) for flag in (False, True)]
                    for k in pulses
                ],
                [tuple(f"{t}[rank={rank},pulse={k}]" for t in _TASKS) for k in pulses],
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
        tasks = [(name, self._coord_task(*args)) for name, args in self._coord_progs]
        self._run_scheduled(tasks, "x")
        # The schedule is complete; all signals observed. (quiet for hygiene)
        rt.quiet()
        if on_pulse is not None:
            # Delayed delivery means inbound data is only guaranteed visible
            # after quiet(); batch every (rank, pulse) notification here.
            for _name, (rank, pid, *_args) in self._coord_progs:
                on_pulse(rank, pid)

    def _run_scheduled(self, tasks, direction: str) -> None:
        """Drive one exchange's task generators, counting proxy stalls and
        the operations the tasks made (totals fixed at bind).

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
        rt.count_ops(**self._op_totals[direction])
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
        indep_out: np.ndarray,  # where each part lands: rows of the peer's
        dep_out: np.ndarray,  # coords (NVLink) or of the send staging (IB)
        waits: list[Wait],
        peer: int,  # the pulse's send_rank
        send: PendingOp | None,  # the staging's put-with-signal (IB), or None
    ):
        """FusedPackCommX for one (rank, pulse): a cooperative generator."""
        # Phase 1: pack (and on NVLink, immediately store) independent data.
        if indep.size:
            np.add(pos.take(indep, axis=0), indep_shift, out=indep_out)
        # Phase 2: acquire-wait the exact dependency chain.
        yield from waits
        # Phase 3: pack dependent data, then notify.
        if dep.size:
            np.add(pos.take(dep, axis=0), dep_shift, out=dep_out)
        if send is None:
            # Data went through direct stores: system-scope release signal.
            self._signals[_COORD_SIG].release_store(peer, pid, self._epoch)
        else:
            self.runtime.post(send, self._epoch)
        # Receiving side has no work: puts/stores target the coordinate
        # buffer itself (no unpack kernel — the fusion the paper describes).

    # -- force exchange --------------------------------------------------------------

    def exchange_forces(self, cluster: ClusterState) -> None:
        rt = self._bound(cluster)
        self._epoch += 1
        self._acc_floor[:] = [cluster.plan.n_pulses] * cluster.n_ranks
        tasks = []
        for serve_name, serve, acc_name, acc in self._force_progs:
            tasks.append((serve_name, self._force_serve_task(*serve)))
            tasks.append((acc_name, self._force_acc_task(*acc)))
        self._run_scheduled(tasks, "f")
        rt.quiet()

    def _force_serve_task(
        self,
        pid: int,
        ready: Wait,  # DEP_MGMT: later pulses have accumulated into the zone
        owner: int,  # the pulse's recv_rank: it sent us these coordinates
        flush: bool,  # the zone holds our accumulations: release, not relaxed
        serve: PendingOp | None,  # the zone's put-with-signal (IB); None: owner *gets*
    ):
        """Make this rank's received-zone forces available to their owner."""
        yield ready
        if serve is None:
            # NVLink: owner will *get* the data; we only notify.  A release
            # store is needed only when our accumulations must be flushed
            # (the paper's hasDataWrites distinction, Algorithm 5 line 22).
            sig = self._signals[_FORCE_SIG]
            if flush:
                sig.release_store(owner, pid, self._epoch)
            else:
                sig.relaxed_store(owner, pid, self._epoch)
        else:
            self.runtime.post(serve, self._epoch)

    def _force_acc_task(
        self,
        rank: int,
        pid: int,
        in_order: Wait | None,  # None for the last pulse, which goes first
        arrived: Wait,
        block: np.ndarray,  # returned forces, flat: the peer's zone or IB landing rows
        forces_flat: np.ndarray,  # the rank's forces, flattened (a view)
        flat_index: np.ndarray,  # _flat_index(index_map)
        done: tuple,  # the key of the ``order`` wait this accumulation ends
    ):
        """Scatter-accumulate one pulse's returned forces, once they are back."""
        if in_order is not None:
            yield in_order
        yield arrived
        np.add.at(forces_flat, flat_index, block)
        self._acc_floor[rank] = pid
        self._sched.wake(done)
