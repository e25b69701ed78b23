"""The thread-MPI schedule: event-driven DMA copies, intra-node only.

GROMACS' built-in thread-MPI runs ranks as threads of one process, so halo
exchange becomes cudaMemcpyAsync between peer device buffers enqueued on
streams with GPU-event dependencies (Sec. 2.2).  Schedule-wise it sits
between the two main contenders:

* like NVSHMEM, there is **no CPU-GPU synchronization**: the CPU launches
  whole steps ahead and events order everything on the device, so launch
  latencies hide (this is why thread-MPI "can outperform GPU-aware MPI in
  scaling regimes where local computation is insufficient to fully overlap
  communication");
* like MPI, pulses remain **serialized** with separate per-pulse pack
  kernels and copy-engine DMA transfers — no fusion, no dependency
  partitioning, no fine-grained TMA pipelining, plus the copy-engine launch
  overhead per transfer that the paper's NVSHMEM design eliminates.

Single-node only (threads of one process cannot span nodes).
"""

from __future__ import annotations

from repro.gpusim.graph import TaskGraph
from repro.perf.workload import StepWorkload
from repro.sched.durations import Durations
from repro.sched.prune import add_step_tail


def add_threadmpi_step(
    g: TaskGraph,
    wl: StepWorkload,
    d: Durations,
    prefix: str = "",
    prev: dict[str, str] | None = None,
    prune_opt: bool = True,
    local_nb_extra: float = 0.0,
) -> dict[str, str]:
    """Append one thread-MPI step; returns its boundary task names."""
    hw = d.hw
    if not all(p.nvlink for p in wl.pulses):
        raise ValueError(
            "thread-MPI is single-node: every halo pulse must stay intra-node"
        )
    launch_cost = hw.launch_us + 1.5 * hw.event_us
    prev_integrate = (prev["integrate"],) if prev else ()
    prev_clear = (prev["clear"],) if prev else ()

    # Event-driven steady state: launches issued ahead, not gating.
    for name in ("local_nb", "halo_x", "bonded", "nl_nb", "halo_f"):
        g.add(f"{prefix}launch_{name}", "cpu", launch_cost, kind="launch")

    local_nb = g.add(
        f"{prefix}local_nb",
        "gpu.local",
        d.local_nb() + local_nb_extra,
        deps=prev_integrate + prev_clear,
        kind="kernel",
    ).name

    # -- coordinate halo: serialized pack + peer DMA per pulse -----------------
    prev_arrival: str | None = None
    for p in wl.pulses:
        pid = p.pulse_id
        pack_deps = list(prev_integrate)
        lags = {}
        if prev_arrival is not None:
            # Event dependency on the previous pulse's copy completion.
            pack_deps.append(prev_arrival)
            lags[prev_arrival] = hw.event_us
        pack = g.add(
            f"{prefix}nonlocal:xpack{pid}",
            "gpu.nonlocal",
            d.pack(p.send_atoms),
            deps=tuple(pack_deps),
            lags=lags,
            kind="pack",
        ).name
        # Copy-engine DMA straight into the peer's coordinate buffer at
        # atomOffset: no unpack kernel, but a per-copy engine launch alpha.
        xfer = g.add(
            f"{prefix}nonlocal:xfer{pid}",
            f"wire.x{pid}",
            d.wire(p),
            deps=(pack,),
            kind="comm",
        ).name
        prev_arrival = xfer

    bonded = g.add(
        f"{prefix}nonlocal:bonded",
        "gpu.nonlocal",
        d.bonded(),
        deps=prev_integrate,
        kind="kernel",
    ).name
    nl_deps = [bonded]
    nl_lags = {}
    if prev_arrival is not None:
        nl_deps.append(prev_arrival)
        nl_lags[prev_arrival] = hw.event_us
    nl_nb = g.add(
        f"{prefix}nonlocal:nb",
        "gpu.nonlocal",
        d.nonlocal_nb(),
        deps=tuple(nl_deps),
        lags=nl_lags,
        kind="kernel",
    ).name

    # -- force halo: reverse order, DMA + scatter-accumulate unpack -------------
    chain = nl_nb
    for p in reversed(wl.pulses):
        pid = p.pulse_id
        fxfer = g.add(
            f"{prefix}nonlocal:fxfer{pid}",
            f"wire.f{pid}",
            d.wire(p),
            deps=(chain,),
            lags={chain: hw.event_us},
            kind="comm",
        ).name
        chain = g.add(
            f"{prefix}nonlocal:funpack{pid}",
            "gpu.nonlocal",
            d.pack(p.send_atoms),
            deps=(fxfer,),
            kind="pack",
        ).name

    return add_step_tail(
        g,
        d,
        force_done=[chain],
        local_done=local_nb,
        prefix=prefix,
        prune_opt=prune_opt,
        launch_gated=False,
    )


def build_threadmpi_schedule(
    wl: StepWorkload,
    d: Durations,
    prune_opt: bool = True,
    local_nb_extra: float = 0.0,
    n_steps: int = 1,
) -> tuple[TaskGraph, list[dict[str, str]]]:
    """Chain ``n_steps`` thread-MPI steps."""
    g = TaskGraph()
    prev = None
    bounds = []
    for i in range(n_steps):
        prev = add_threadmpi_step(
            g, wl, d, prefix=f"s{i}:", prev=prev, prune_opt=prune_opt,
            local_nb_extra=local_nb_extra,
        )
        bounds.append(prev)
    return g, bounds
