"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one
thread.  A run is: cold set-up (three times when ``setup_s`` is reported,
the last one feeding the window), then a timed window of whole ``nstlist``
cycles — with ``--trace 1`` every second cycle has spans on.  End-to-end
metrics always come from the untraced cycles; per-layer metrics from the
traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from repro.harness.runner import check_results  # noqa: E402
from repro.obs.metrics import METRICS, Histogram  # noqa: E402
from repro.par.imbalance import imbalance_pct  # noqa: E402
from repro.perf.machines import machine_by_name  # noqa: E402
from repro.perf.model import estimate_step  # noqa: E402
from repro.perf.workload import grappa_workload, measured_workload  # noqa: E402

from spans import NS_SPANS, SpanRecorder  # noqa: E402
from workloads import BUFFER, CUTOFF, WORKLOADS, make_workload  # noqa: E402

#: Per-layer metrics that must repeat exactly for one (seed, step count):
#: counts, computed bytes, simulated time.  ``compare.py`` demands equality.
EXACT_LAYER_METRICS = (
    "md.pairs_total", "md.pairlist_bytes", "md.build_peak_bytes_per_atom",
    "md.energy_drift_rel", "dd.ns_builds", "dd.halo_atoms",
    "dd.pair_imbalance_pct", "comm.halo_bytes_per_step",
    "comm.sched_rounds_per_step", "nvshmem.puts_per_step",
    "nvshmem.put_signals_per_step", "nvshmem.direct_stores_per_step",
    "nvshmem.bytes_put_per_step", "nvshmem.polls_per_wait",
    "perf.model_step_us", "perf.model_speedup_nvshmem_over_mpi",
    "perf.halo_atoms_model_over_measured", "perf.pairs_model_over_measured",
    "harness.figures_stale", "bench.step_samples",
)

#: A window stops early, at a cycle boundary, once it has run this many
#: times ``--seconds`` — only a host much slower than the one the step
#: counts were sized on ever gets there.  The counts run are reported.
SLOW_HOST_FACTOR = 2.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def window_cycles(spec, seconds: float, run_seconds: float, trace: bool, smoke: bool) -> int:
    """``nstlist`` cycles in the window; an even count when tracing."""
    if smoke:
        return 2 if trace else 1
    cycles = spec.steps * seconds / run_seconds / spec.nstlist
    if trace:
        return 2 * max(1, round(cycles / 2))
    return max(1, round(cycles))


def timed_cycle(wl, eng, recorder=None):
    """Step one ``nstlist`` cycle; return ``[(wall_s, rebuilt), ...]``.

    A step bore a rebuild when ``eng.cluster`` is a new object afterwards.
    """
    samples = []
    for _ in range(eng.nstlist):
        wl.before_step()
        cluster = eng.cluster
        if recorder is not None:
            recorder.step_id = eng.step_count
        t0 = perf_counter()
        rec = eng.step()
        t1 = perf_counter()
        wl.after_step(rec)
        samples.append((t1 - t0, eng.cluster is not cluster))
    return samples


#: A rebuild's cost is its step's wall minus the median of the plain steps
#: this close to it, so slow drift of the host cancels out of the difference.
NS_NEIGHBOURS = 4


def step_stats(samples) -> dict:
    walls = [w * 1e3 for w, _ in samples]
    plain = sorted(w for w, (_, rebuilt) in zip(walls, samples) if not rebuilt)
    rebuild_costs = []
    for i, (_, rebuilt) in enumerate(samples):
        if rebuilt:
            near = range(max(0, i - NS_NEIGHBOURS), min(len(samples), i + NS_NEIGHBOURS + 1))
            rebuild_costs.append(
                walls[i] - statistics.median(walls[j] for j in near if not samples[j][1])
            )
    return {
        "ms_per_step": sum(walls) / len(walls),
        "step_ms_p50": statistics.median(plain),
        "ns_ms_p50": statistics.median(rebuild_costs),
        # Highest percentile that still has ten samples beyond it.
        "step_ms_tail": plain[-11] if len(plain) > 10 else plain[-1],
        "step_samples": len(plain),
        "ns_samples": len(rebuild_costs),
        "steps": len(samples),
    }


def metric_totals() -> dict:
    """Every METRICS cell as one number (histograms: their sum)."""
    return {
        (name, labels): (m.sum if isinstance(m, Histogram) else m.value)
        for name, labels, m in METRICS.collect()
    }


class Growth:
    """Growth of METRICS cells summed over the traced cycles."""

    def __init__(self) -> None:
        self.grown: dict = {}
        self.last: dict = {}

    def add(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            self.grown[key] = self.grown.get(key, 0) + value - before.get(key, 0)
        self.last = after

    def total(self, name: str, **labels) -> float:
        want = set(labels.items())
        return sum(
            v for (n, lab), v in self.grown.items() if n == name and want <= set(lab)
        )

    def gauge(self, name: str) -> float:
        return self.last.get((name, ()), 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timing_layer_metrics(eng) -> dict:
    """Simulated-time metrics for the workload the engine just ran."""
    machine = machine_by_name("dgx-h100")
    measured = measured_workload(eng, machine)
    t0 = perf_counter()
    nvshmem = estimate_step(measured, machine, "nvshmem")
    host_ms = (perf_counter() - t0) * 1e3
    mpi = estimate_step(measured, machine, "mpi")
    model = grappa_workload(
        eng.system.n_atoms, eng.n_ranks, machine, cutoff=CUTOFF, buffer=BUFFER,
        trim_corners=eng.trim_corners, grid=eng.grid,
    )
    return {
        "perf.model_step_us": nvshmem.time_per_step,
        "perf.model_speedup_nvshmem_over_mpi": mpi.time_per_step / nvshmem.time_per_step,
        "perf.halo_atoms_model_over_measured": _ratio(model.halo_atoms, measured.halo_atoms),
        "perf.pairs_model_over_measured": _ratio(
            model.pairs_local + model.pairs_nonlocal,
            measured.pairs_local + measured.pairs_nonlocal,
        ),
        "perf.estimate_step_host_ms": host_ms,
        "harness.figures_stale": len(check_results(ROOT / "results")),
    }


def layer_metrics(eng, recorder, samples, growth, workers, energies, untraced) -> dict:
    """Per-layer metrics of one traced window (see README.md for each)."""
    stats = step_stats(samples)
    steps = stats["steps"]
    rebuilds = stats["ns_samples"]
    self_ms = recorder.self_ms()

    def row(span: str) -> float:
        return self_ms.get(span, 0.0) / (rebuilds if span in NS_SPANS else steps)

    def busy_us(phase: str) -> float:
        return growth.total("par.rank_us", phase=phase)

    force_busy_us = busy_us("forces_local") + busy_us("forces_nonlocal")
    step_busy_us = force_busy_us + busy_us("integrate")
    pairs = growth.gauge("dd.pairs_local") + growth.gauge("dd.pairs_nonlocal")
    halo_atoms = sum(w.n_halo for w in eng.workloads)
    rank_pairs = [w.n_pairs_local + w.n_pairs_nonlocal for w in eng.workloads]
    hidden_ms = growth.total("par.overlap.hidden_us") / 1e3 / steps
    executor_ms = row("par.run_forces") + row("par.run_integrate") + row("par.publish")
    window_ms = sum(w for w, _ in samples) * 1e3
    halo_x_us = recorder.total_ms("comm.halo_x") * 1e3
    halo_f_us = recorder.total_ms("comm.halo_f") * 1e3
    out = {
        "md.forces_local_busy_ms": busy_us("forces_local") / 1e3 / steps,
        "md.forces_nonlocal_busy_ms": busy_us("forces_nonlocal") / 1e3 / steps,
        "md.integrate_busy_ms": busy_us("integrate") / 1e3 / steps,
        "md.pairs_busy_ms": busy_us("pairs") / 1e3 / rebuilds,
        "md.kernel_pairs_per_us": _ratio(pairs * steps, force_busy_us),
        "md.pairsearch_atoms_per_ms": _ratio(
            sum(w.n_home + w.n_halo for w in eng.workloads) * rebuilds,
            busy_us("pairs") / 1e3,
        ),
        "md.pairs_total": pairs,
        "md.pairlist_bytes": growth.gauge("md.pairlist.bytes"),
        "md.build_peak_bytes_per_atom": growth.gauge("md.build.peak_bytes_per_atom"),
        "md.energy_drift_rel": _ratio(energies[-1] - energies[0], abs(energies[0]))
        if energies else 0.0,
        "par.run_pairs_ms": row("par.run_pairs"),
        "par.run_forces_ms": row("par.run_forces"),
        "par.run_integrate_ms": row("par.run_integrate"),
        "par.bind_ms": row("par.bind"),
        "par.publish_ms": row("par.publish"),
        # Executor wall the workers' busy time does not explain; the part
        # of the local phase that ran under the halo is not counted twice.
        "par.overhead_ms": executor_ms - (step_busy_us / 1e3 / steps / workers - hidden_ms)
        if eng.executor is not None else 0.0,
        "par.worker_util": _ratio(step_busy_us / 1e3 + busy_us("pairs") / 1e3, workers * window_ms),
        "par.halo_hidden_frac": _ratio(
            growth.total("par.overlap.hidden_us"), growth.total("par.overlap.halo_us")
        ),
        "dd.build_cluster_ms": row("dd.build_cluster"),
        "dd.ns_self_ms": row("dd.ns"),
        "dd.step_self_ms": row("dd.step"),
        "dd.ns_builds": rebuilds,
        "dd.halo_atoms": halo_atoms,
        "dd.pair_imbalance_pct": imbalance_pct(
            sum(rank_pairs) / len(rank_pairs), max(rank_pairs)
        ),
        "comm.halo_x_ms": row("comm.halo_x"),
        "comm.halo_f_ms": row("comm.halo_f"),
        "comm.bind_ms": row("comm.bind"),
        "comm.halo_x_atoms_per_us": _ratio(halo_atoms * steps, halo_x_us),
        "comm.halo_f_atoms_per_us": _ratio(halo_atoms * steps, halo_f_us),
        # Computed, not measured: each halo atom moves one float64 triple
        # out (coordinates) and one back (forces).
        "comm.halo_bytes_per_step": halo_atoms * 2 * 3 * 8,
        "comm.sched_rounds_per_step": growth.total("comm.sched.rounds") / steps,
        "nvshmem.puts_per_step": growth.total("nvshmem.puts") / steps,
        "nvshmem.put_signals_per_step": growth.total("nvshmem.put_signals") / steps,
        "nvshmem.direct_stores_per_step": growth.total("nvshmem.direct_stores") / steps,
        "nvshmem.bytes_put_per_step": growth.total("nvshmem.bytes_put") / steps,
        "nvshmem.polls_per_wait": _ratio(
            growth.total("nvshmem.signal.polls"), growth.total("nvshmem.signal.waits_satisfied")
        ),
        "bench.trace_overhead_frac": stats["step_ms_p50"] / untraced["step_ms_p50"] - 1.0,
        "bench.traced_ms_per_step": stats["ms_per_step"],
        "bench.step_ms_tail": untraced["step_ms_tail"],
        "bench.step_samples": stats["step_samples"],
    }
    out.update(timing_layer_metrics(eng))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        wrap_backend=None, trace_path=None) -> dict:
    """Run workload ``name``; return end-to-end and per-layer results."""
    bench = load_benchmark()
    spec = WORKLOADS[name]
    workers = min(2, os.cpu_count() or 1)
    wl = make_workload(spec, seed, workers, wrap_backend)
    n_cycles = window_cycles(spec, seconds, bench["run_seconds"], trace, smoke)

    setups = []
    for _ in range(1 if trace or smoke else 3):
        # Release the previous set-up first, or two systems are alive at
        # once and peak RSS reports the benchmark, not the engine.
        wl.teardown()
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    eng = wl.eng

    # Traced and untraced cycles alternate, so both see the same host
    # conditions and their ratio is the cost of tracing, not drift.
    recorder = SpanRecorder()
    growth = Growth()
    samples = {False: [], True: []}
    first_energy = len(getattr(eng, "energies", ()))
    deadline = perf_counter() + SLOW_HOST_FACTOR * seconds
    for cycle in range(n_cycles):
        if cycle and cycle % 2 == 0 and perf_counter() > deadline:
            break
        tracing = trace and cycle % 2 == 1
        if tracing:
            recorder.install(eng)
            before = metric_totals()
        samples[tracing] += timed_cycle(wl, eng, recorder if tracing else None)
        if tracing:
            growth.add(before, metric_totals())
            recorder.uninstall()
    untraced = step_stats(samples[False])
    layers = None
    if trace:
        energies = [e.total for e in getattr(eng, "energies", ())[first_energy:]]
        exec_workers = workers if spec.executor == "process" else 1
        layers = layer_metrics(
            eng, recorder, samples[True], growth, exec_workers, energies, untraced
        )
        if trace_path is not None:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            recorder.write(trace_path, workload=name, seed=seed)
    traced_steps = len(samples[True])
    eng.close()
    # KiB on Linux.  Children are counted once waited for, i.e. after close().
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    exact = wl.finish()
    exact["steps"] = {"warmup": spec.warmup, "untraced": untraced["steps"], "traced": traced_steps}
    checks = wl.checks
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ms_per_step": untraced["ms_per_step"],
        "step_ms_p50": untraced["step_ms_p50"],
        "ns_ms_p50": untraced["ns_ms_p50"],
        "peak_rss_mb": rss_kib / 1024.0,
    }
    if layers is not None:
        exact.update({k: layers[k] for k in EXACT_LAYER_METRICS})
    return {
        "workload": name,
        "seed": seed,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_frac": checks.failed / checks.attempted,
        "failures": checks.notes,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "samples": {
            "setups": len(setups),
            "steps": untraced["step_samples"],
            "rebuilds": untraced["ns_samples"],
            "step_ms_tail": untraced["step_ms_tail"],
        },
        "exact": exact,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, trace_path=args.trace_out,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
