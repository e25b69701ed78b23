"""The fused GPU-initiated NVSHMEM schedule (paper Fig. 2, Algorithms 2-6).

Key structural differences from the MPI schedule:

* the CPU only launches — no CPU-GPU synchronization, so in the
  GPU-resident steady state launches overlap with earlier steps' compute
  and GPU tasks do not wait for them;
* the coordinate halo is ONE fused kernel: each pulse's threadblock group
  packs its independent entries immediately, acquire-waits on the exact
  earlier pulses feeding its dependent entries, then transfers (NVLink: TMA
  stores pipelined with packing; InfiniBand: one coarsened put-with-signal)
  — pulses progress concurrently (separate ``gpu.nl.p*`` block groups);
* the force halo is the reverse fused kernel: a zone is served once all
  later pulses' returned forces have accumulated into it (DEP_MGMT, waiting
  on every subsequent pulse as in Algorithm 5), then the owner gets it over
  NVLink (or receives a put over IB) and scatter-accumulates;
* peer events are mirrored by symmetry: "pulse k arrived" equals our own
  pulse-k send completion plus wire/signal latency.

Ablation knobs map to the paper's design choices: ``fused=False``
serializes the pulses (the baseline of Sec. 5.1), ``dep_partitioning=False``
disables the depOffset split, ``tma=False`` replaces pipelined TMA stores
with a staged copy after packing completes.
"""

from __future__ import annotations

from repro.gpusim.graph import TaskGraph
from repro.perf.workload import StepWorkload
from repro.sched.durations import BYTES_PER_ENTRY, Durations
from repro.sched.pme_comm import PmeWork, add_pme_arm
from repro.sched.prune import add_step_tail


def add_nvshmem_step(
    g: TaskGraph,
    wl: StepWorkload,
    d: Durations,
    prefix: str = "",
    prev: dict[str, str] | None = None,
    prune_opt: bool = True,
    fused: bool = True,
    dep_partitioning: bool = True,
    tma: bool = True,
    cuda_graph: bool = False,
    local_nb_extra: float = 0.0,
    peer_lag_extra: float = 0.0,
    resync_us: float = 0.0,
    pme: PmeWork | None = None,
) -> dict[str, str]:
    """Append one fused-NVSHMEM step; returns its boundary task names.

    ``peer_lag_extra`` models load imbalance: every mirrored peer event
    (halo arrivals, force availability) lands that much later than our own
    progress would suggest, because the slowest peer is behind us.
    ``resync_us`` inserts the paper's CPU-based resynchronization at step
    start (all PEs align once; the step is no longer fully GPU-resident).
    """
    hw = d.hw
    launch_cost = hw.launch_us + 1.5 * hw.event_us
    prev_integrate = (prev["integrate"],) if prev else ()
    prev_clear = (prev["clear"],) if prev else ()
    if resync_us > 0.0:
        resync = g.add(
            f"{prefix}resync",
            "cpu",
            resync_us,
            deps=prev_integrate,
            kind="sync",
        ).name
        prev_integrate = prev_integrate + (resync,)

    # GPU-resident steady state: these launches were issued during earlier
    # steps' GPU work; kernels do not depend on them.  The CPU row exists
    # for the timeline and the CPU-utilization sanity checks.  With CUDA
    # graph capture (Sec. 5.3: steps including NVSHMEM communication can be
    # captured) the whole step replays from ONE graph launch.
    if cuda_graph:
        g.add(f"{prefix}launch_graph", "cpu", launch_cost, kind="launch")
    else:
        for name in ("local_nb", "fused_x", "bonded", "nl_nb", "fused_f"):
            g.add(f"{prefix}launch_{name}", "cpu", launch_cost, kind="launch")

    local_nb = g.add(
        f"{prefix}local_nb",
        "gpu.local",
        d.local_nb() + local_nb_extra,
        deps=prev_integrate + prev_clear,
        kind="kernel",
    ).name

    # -- fused coordinate halo (FusedPackCommX) -----------------------------------
    pulses = sorted(wl.pulses, key=lambda p: p.pulse_id)
    arrival: dict[int, tuple[str, float]] = {}  # pulse -> (task, lag)
    pack_tasks: list[str] = []
    for p in pulses:
        pid = p.pulse_id
        res = f"gpu.nl.p{pid}" if fused else "gpu.nonlocal"
        if dep_partitioning:
            n_ind, n_dep = p.independent_atoms, p.dependent_atoms
        else:
            n_ind, n_dep = 0.0, p.send_atoms
        dep_pulses = [q.pulse_id for q in pulses if q.pulse_id < pid]

        ind_name = None
        if n_ind > 0:
            # Fused: independent entries pack immediately.  Serialized
            # baseline: even the independent pack waits for the previous
            # pulse's arrival (pulses processed strictly in order).
            ind_deps = list(prev_integrate)
            ind_lags: dict[str, float] = {}
            if not fused:
                for k in dep_pulses:
                    t, lag = arrival[k]
                    ind_deps.append(t)
                    ind_lags[t] = lag
            ind_name = g.add(
                f"{prefix}nonlocal:xpack_ind{pid}",
                res,
                d.pack_chunk(n_ind),
                deps=tuple(ind_deps),
                lags=ind_lags,
                kind="pack",
            ).name
        dep_deps = list(prev_integrate)
        lags: dict[str, float] = {}
        for k in dep_pulses:
            t, lag = arrival[k]
            dep_deps.append(t)
            lags[t] = lag
        if ind_name:
            dep_deps.append(ind_name)
        dep_name = g.add(
            f"{prefix}nonlocal:xpack_dep{pid}",
            res,
            d.pack_chunk(n_dep) if n_dep > 0 else 0.05,
            deps=tuple(dep_deps),
            lags=lags,
            kind="pack",
        ).name
        pack_tasks.append(dep_name)

        if p.nvlink and tma:
            # TMA stores pipelined with packing: only the issue latency and
            # the dependent tail stay exposed after the last pack.
            dur = d.tma_tail(p)
        else:
            # Staged: the full payload moves after packing completes
            # (always the case for the coarsened InfiniBand put).
            dur = d.wire(p)
        xfer = g.add(
            f"{prefix}nonlocal:xfer{pid}",
            f"wire.x{pid}",
            dur,
            deps=(dep_name,),
            kind="comm",
        ).name
        arrival[pid] = (xfer, hw.signal_us + peer_lag_extra)

    # Bonded work shares the non-local stream; it runs once the fused pack
    # kernel has retired (all block groups done).
    bonded = g.add(
        f"{prefix}nonlocal:bonded",
        "gpu.nonlocal",
        d.bonded(),
        deps=tuple(pack_tasks) or prev_integrate,
        kind="kernel",
    ).name
    # Non-local NB needs every pulse's halo to have arrived (mirrored).
    nl_deps = [bonded]
    nl_lags = {}
    for pid, (t, lag) in arrival.items():
        nl_deps.append(t)
        nl_lags[t] = lag
    # SM resource sharing: the fused force kernel's block groups are already
    # resident and spin on signals while the non-local kernel runs, stealing
    # a share of its SMs (the paper's NVSHMEM kernel-slowdown observation).
    nl_nb = g.add(
        f"{prefix}nonlocal:nb",
        "gpu.nonlocal",
        d.nonlocal_nb() * (1.0 + hw.sm_share_frac),
        deps=tuple(nl_deps),
        lags=nl_lags,
        kind="kernel",
    ).name

    # -- fused force halo (FusedCommUnpackF), last pulse first -----------------------
    acc_tasks: dict[int, str] = {}
    for p in sorted(pulses, key=lambda q: -q.pulse_id):
        pid = p.pulse_id
        res = f"gpu.nl.p{pid}" if fused else "gpu.nonlocal"
        # DEP_MGMT (conservative, Algorithm 5 line 9): the peer serves its
        # zone once all later pulses' forces accumulated there.  By symmetry
        # its readiness equals ours: nl_nb done + our later accumulations.
        ready_deps = [nl_nb]
        lags = {nl_nb: hw.signal_us + peer_lag_extra}
        for q in pulses:
            if q.pulse_id > pid:
                t = acc_tasks[q.pulse_id]
                ready_deps.append(t)
                lags[t] = hw.signal_us + peer_lag_extra
        nbytes = p.send_atoms * BYTES_PER_ENTRY
        if p.nvlink:
            # Receiver-driven TMA get from the peer's force buffer.
            dur = hw.tma_issue_us + nbytes / hw.nvlink_bw
        else:
            dur = hw.ib_alpha_us + hw.ib_proxy_us + nbytes / hw.ib_bw
        fxfer = g.add(
            f"{prefix}nonlocal:fxfer{pid}",
            f"wire.f{pid}",
            dur,
            deps=tuple(ready_deps),
            lags=lags,
            kind="comm",
        ).name
        acc = g.add(
            f"{prefix}nonlocal:facc{pid}",
            res,
            d.pack_chunk(p.send_atoms),
            deps=(fxfer,),
            kind="pack",
        ).name
        acc_tasks[pid] = acc

    force_done = [acc_tasks[p.pulse_id] for p in pulses] if pulses else [nl_nb]
    if pme is not None:
        force_done.append(
            add_pme_arm(g, hw, pme, prefix, prev_integrate, gpu_initiated=True)
        )
    return add_step_tail(
        g,
        d,
        force_done=force_done,
        local_done=local_nb,
        prefix=prefix,
        prune_opt=prune_opt,
        launch_gated=False,
        graph_captured=cuda_graph,
    )


def build_nvshmem_schedule(
    wl: StepWorkload,
    d: Durations,
    prune_opt: bool = True,
    fused: bool = True,
    dep_partitioning: bool = True,
    tma: bool = True,
    cuda_graph: bool = False,
    local_nb_extra: float = 0.0,
    peer_lag_extra: float = 0.0,
    resync_us: float = 0.0,
    pme: PmeWork | None = None,
    n_steps: int = 1,
) -> tuple[TaskGraph, list[dict[str, str]]]:
    """Chain ``n_steps`` NVSHMEM steps; returns graph and step boundaries."""
    g = TaskGraph()
    prev = None
    bounds = []
    for i in range(n_steps):
        prev = add_nvshmem_step(
            g, wl, d, prefix=f"s{i}:", prev=prev, prune_opt=prune_opt,
            fused=fused, dep_partitioning=dep_partitioning, tma=tma,
            cuda_graph=cuda_graph, local_nb_extra=local_nb_extra,
            peer_lag_extra=peer_lag_extra, resync_us=resync_us, pme=pme,
        )
        bounds.append(prev)
    return g, bounds
