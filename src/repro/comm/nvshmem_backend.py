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
  waiting on every subsequent pulse — reproduced here (exact-dependency
  waiting is available as an ablation).

Ablation flags:

* ``fused=False`` — serialize pulses (the paper's baseline): packing of
  pulse p waits for all pulses < p regardless of data dependencies.
* ``dep_partitioning=False`` — disable the depOffset split: all entries are
  treated as dependent, so nothing is packed before the waits complete.
"""

from __future__ import annotations

import numpy as np

from repro.comm.base import HaloBackend, register_backend
from repro.comm.scheduler import CooperativeScheduler
from repro.dd.exchange import ClusterState
from repro.nvshmem.runtime import NodeTopology, NvshmemRuntime
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER


@register_backend("nvshmem")
class NvshmemBackend(HaloBackend):
    """Fused, signal-driven halo exchange (functional layer)."""

    def __init__(
        self,
        pes_per_node: int | None = None,
        seed: int = 0,
        fused: bool = True,
        dep_partitioning: bool = True,
        delay_delivery: bool = True,
        strict_signals: bool = True,
        exact_force_deps: bool = False,
    ):
        self.pes_per_node = pes_per_node
        self.seed = seed
        self.fused = fused
        self.dep_partitioning = dep_partitioning
        self.delay_delivery = delay_delivery
        self.strict_signals = strict_signals
        self.exact_force_deps = exact_force_deps
        self.runtime: NvshmemRuntime | None = None
        self._epoch = 0
        self._exchange_count = 0

    # -- binding ------------------------------------------------------------------

    def bind(self, cluster: ClusterState) -> None:
        plan = cluster.plan
        n_pes = cluster.n_ranks
        ppn = self.pes_per_node or n_pes
        topo = NodeTopology(n_pes=n_pes, pes_per_node=ppn)
        rt = NvshmemRuntime(
            topo,
            delay_delivery=self.delay_delivery,
            strict_signals=self.strict_signals,
        )
        self.runtime = rt
        dtype = cluster.system.dtype
        n_pulses = plan.n_pulses

        # The ranks' coordinate and force arrays themselves become the
        # symmetric put/get destinations (GROMACS' symmetric destination
        # requirement): registered in place, never copied or replaced.
        self._coords = rt.heap.register_symmetric("coords", cluster.local_pos)
        self._forces = rt.heap.register_symmetric("forces", cluster.local_forces)

        # Per-pulse symmetric force staging (InfiniBand put destinations).
        self._force_stage = []
        for pid in range(n_pulses):
            size = max(rp.pulses[pid].send_size for rp in plan.ranks)
            self._force_stage.append(
                rt.symmetric_alloc(f"forceStage{pid}", (max(size, 1), 3), dtype)
            )
        # Coordinate send staging: plain local buffers registered with the
        # runtime (sources need not be symmetric — nvshmemx_buffer_register).
        self._coord_stage = []
        for rp in plan.ranks:
            bufs = []
            for p in rp.pulses:
                arr = np.empty((max(p.send_size, 1), 3), dtype=dtype)
                rt.heap.register_buffer(rp.rank, arr)
                bufs.append(arr)
            self._coord_stage.append(bufs)

        self._coord_sig = rt.signal_array("coordSig", n_pulses)
        self._force_sig = rt.signal_array("forceSig", n_pulses)
        self._epoch = 0

    # -- coordinate exchange ------------------------------------------------------

    def exchange_coordinates(self, cluster: ClusterState, on_pulse=None) -> None:
        rt = self.runtime
        plan = cluster.plan
        if rt is None:
            raise RuntimeError("bind() must run before exchanges")
        self._epoch += 1
        epoch = self._epoch
        sig = self._coord_sig
        tasks = []
        for rp in plan.ranks:
            for p in rp.pulses:
                tasks.append(
                    (
                        f"coordX[rank={rp.rank},pulse={p.pulse_id}]",
                        self._coord_task(cluster, rp.rank, p.pulse_id, epoch),
                    )
                )
        rng = np.random.default_rng(self.seed + self._exchange_count)
        self._exchange_count += 1
        with TRACER.span("comm.nvshmem.halo_x", cat="comm", pulses=plan.n_pulses):
            self._run_scheduled(tasks, rng, direction="x")
        # The schedule is complete; all signals observed. (quiet for hygiene)
        rt.quiet()
        if on_pulse is not None:
            # Delayed delivery means inbound data is only guaranteed visible
            # after quiet(); batch every (rank, pulse) notification here.
            for rp in plan.ranks:
                for p in rp.pulses:
                    on_pulse(rp.rank, p.pulse_id)

    def _run_scheduled(self, tasks, rng, direction: str) -> None:
        """Drive the fused kernels' task generators, counting proxy stalls.

        A stall round (no task runnable without proxy progress) is the
        functional analogue of signal wait time: block groups spinning on
        acquire-waits until the IB proxy delivers.
        """
        rt = self.runtime
        stalls = 0

        def on_stall() -> bool:
            nonlocal stalls
            stalls += 1
            return rt.progress(n_ops=1, order=rng) > 0

        sched = CooperativeScheduler(rng=rng)
        sched.run(tasks, on_stall=on_stall)
        METRICS.counter("comm.stall_rounds", backend="nvshmem", dir=direction).inc(stalls)
        METRICS.histogram("comm.sched_rounds", backend="nvshmem", dir=direction).observe(
            sched.rounds_used
        )

    def _coord_task(self, cluster: ClusterState, rank: int, pid: int, epoch: int):
        """FusedPackCommX for one (rank, pulse): a cooperative generator."""
        rt = self.runtime
        plan = cluster.plan
        p = plan.ranks[rank].pulses[pid]
        dest_rank = p.send_rank
        dp = plan.ranks[dest_rank].pulses[pid]
        remote = rt.ptr(self._coords, dest_rank, rank)
        pos = cluster.local_pos[rank]
        shift = p.coord_shift.astype(pos.dtype)
        stage = self._coord_stage[rank][pid]

        if self.fused and self.dep_partitioning:
            indep, dep = p.independent_map, p.dependent_map
            n_indep = p.dep_offset
        else:
            indep = p.index_map[:0]
            dep = p.index_map
            n_indep = 0

        # Phase 1: pack (and on NVLink, immediately store) independent data.
        if n_indep:
            block = pos[indep] + shift
            if remote is not None:
                rt.direct_store(remote, dp.atom_offset, block)
            else:
                stage[:n_indep] = block
        # Phase 2: acquire-wait the exact dependency chain.
        waits = (
            sorted(range(pid)) if not self.fused else sorted(p.depends_on)
        )
        for k in waits:
            yield lambda k=k: self._coord_sig.acquire_check(rank, k, epoch, needs_data=True)
        # Phase 3: pack dependent data, then notify.
        if dep.size:
            block = pos[dep] + shift
            if remote is not None:
                rt.direct_store(remote, dp.atom_offset + n_indep, block)
            else:
                stage[n_indep : n_indep + dep.size] = block
        if remote is not None:
            # Data went through direct stores: system-scope release signal.
            self._coord_sig.release_store(dest_rank, pid, epoch)
        else:
            rt.put_signal_nbi(
                self._coords,
                dest_rank,
                dp.atom_offset,
                stage[: p.send_size],
                self._coord_sig,
                pid,
                epoch,
                source_pe=rank,
            )
        # Receiving side has no work: puts/stores target the coordinate
        # buffer itself (no unpack kernel — the fusion the paper describes).

    # -- force exchange --------------------------------------------------------------

    def exchange_forces(self, cluster: ClusterState) -> None:
        rt = self.runtime
        plan = cluster.plan
        if rt is None:
            raise RuntimeError("bind() must run before exchanges")
        self._epoch += 1
        epoch = self._epoch
        n_pulses = plan.n_pulses
        acc_done = [
            {p.pulse_id: False for p in rp.pulses} for rp in plan.ranks
        ]
        tasks = []
        for rp in plan.ranks:
            for p in rp.pulses:
                tasks.append(
                    (
                        f"serveF[rank={rp.rank},pulse={p.pulse_id}]",
                        self._force_serve_task(cluster, rp.rank, p.pulse_id, epoch, acc_done),
                    )
                )
                tasks.append(
                    (
                        f"accF[rank={rp.rank},pulse={p.pulse_id}]",
                        self._force_acc_task(cluster, rp.rank, p.pulse_id, epoch, acc_done),
                    )
                )
        rng = np.random.default_rng(self.seed + self._exchange_count)
        self._exchange_count += 1
        with TRACER.span("comm.nvshmem.halo_f", cat="comm", pulses=plan.n_pulses):
            self._run_scheduled(tasks, rng, direction="f")
        rt.quiet()

    def _force_block_ready(
        self, cluster: ClusterState, rank: int, pid: int, acc_done: list[dict]
    ) -> bool:
        """DEP_MGMT: may this rank serve its pulse-``pid`` force zone yet?

        The zone still accretes contributions while later pulses' returned
        forces scatter into it.  The paper waits on *all* subsequent pulses
        (Algorithm 5 line 9); ``exact_force_deps`` narrows that to pulses
        whose dependent entries actually reference pulse ``pid``.
        """
        plan = cluster.plan.ranks[rank]
        later = range(pid + 1, cluster.plan.n_pulses)
        if self.exact_force_deps:
            later = [q for q in later if pid in plan.pulses[q].depends_on]
        return all(acc_done[rank][q] for q in later)

    def _force_serve_task(
        self, cluster: ClusterState, rank: int, pid: int, epoch: int, acc_done: list[dict]
    ):
        """Make this rank's received-zone forces available to their owner."""
        rt = self.runtime
        plan = cluster.plan
        p = plan.ranks[rank].pulses[pid]
        owner = p.recv_rank  # the rank that sent us these coordinates
        yield lambda: self._force_block_ready(cluster, rank, pid, acc_done)
        block_has_accumulations = not self._is_last_contributing(cluster, rank, pid)
        if rt.topology.same_node(rank, owner):
            # NVLink: owner will *get* the data; we only notify.  A release
            # store is needed only when our accumulations must be flushed
            # (the paper's hasDataWrites distinction, Algorithm 5 line 22).
            if block_has_accumulations:
                self._force_sig.release_store(owner, pid, epoch)
            else:
                self._force_sig.relaxed_store(owner, pid, epoch)
        else:
            block = cluster.local_forces[rank][p.atom_offset : p.atom_offset + p.recv_size]
            rt.put_signal_nbi(
                self._force_stage[pid],
                owner,
                0,
                block,
                self._force_sig,
                pid,
                epoch,
                source_pe=rank,
            )

    def _is_last_contributing(self, cluster: ClusterState, rank: int, pid: int) -> bool:
        """True when no later pulse accumulates into this zone (kernel-only
        data, ordered by the kernel boundary rather than the signal)."""
        plan = cluster.plan.ranks[rank]
        return not any(
            pid in plan.pulses[q].depends_on
            for q in range(pid + 1, cluster.plan.n_pulses)
        )

    def _force_acc_task(
        self, cluster: ClusterState, rank: int, pid: int, epoch: int, acc_done: list[dict]
    ):
        """Receive (get or staged) and scatter-accumulate one pulse's forces."""
        rt = self.runtime
        plan = cluster.plan
        p = plan.ranks[rank].pulses[pid]
        holder = p.send_rank  # we sent coords to holder; it returns forces
        hp = plan.ranks[holder].pulses[pid]
        nvlink = rt.topology.same_node(rank, holder)
        needs_data = not nvlink or not self._is_last_contributing(cluster, holder, pid)
        # A rank's own accumulations must land in descending pulse order:
        # two pulses' index_maps may share home rows, and floating-point
        # accumulation order would otherwise depend on the schedule.  The
        # reference exchange accumulates last-pulse-first; matching it here
        # keeps trajectories bit-identical under any interleaving.
        n_pulses = cluster.plan.n_pulses
        yield lambda: (
            all(acc_done[rank][q] for q in range(pid + 1, n_pulses))
            and self._force_sig.acquire_check(rank, pid, epoch, needs_data=needs_data)
        )
        if nvlink:
            block = rt.get(
                self._forces, holder, hp.atom_offset, hp.recv_size, local_pe=rank
            )
        else:
            block = self._force_stage[pid].on(rank)[: hp.recv_size]
        np.add.at(cluster.local_forces[rank], p.index_map, block)
        acc_done[rank][pid] = True
