"""End-to-end MD-step throughput across rank executors.

Times real :class:`repro.dd.engine.DDSimulator` steps (halo exchange +
non-bonded forces + integration) under each registered executor and
reports per-executor ms/step plus speedup over the ``serial`` reference.
On a multi-core host the ``process`` executor should show the benefit of
true-parallel rank execution; on a single core it degenerates to serial
throughput plus IPC overhead, which the report makes visible rather than
hiding.

Every run appends one :class:`repro.obs.bench.BenchRecord` per executor
to the *committed* history (default ``BENCH_step.json``): git sha and
timestamp (pass ``--timestamp`` from CI), machine constants, per-phase
breakdown, the ``par.rank_us`` load-imbalance summary, and the modeled
energy estimate.  ``--check`` then gates the new records against each
key's rolling baseline and exits non-zero on a >10% (``--threshold``)
step-throughput regression — the CI perf gate.

``--phase-breakdown`` additionally reports, per executor, the time split
between the ``forces_local`` and ``forces_nonlocal`` phases, the
coordinate-halo wall time, how much of it the local force phase hid
(overlap efficiency — the paper's comm–compute overlap), and whether the
segment-reduction kernel ever fell back to the ``np.add.at`` scatter
path (it must not).

Usage::

    PYTHONPATH=src python benchmarks/bench_step.py                 # grappa-45k, 8 ranks
    PYTHONPATH=src python benchmarks/bench_step.py --system 3000 \
        --ranks 4 --steps 5 --phase-breakdown --no-history         # CI smoke run
    PYTHONPATH=src python benchmarks/bench_step.py --check \
        --timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)"               # gated run

Also writes a one-shot JSON report (default ``BENCH_report.json``) with
the machine context, per-executor timings, and speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.dd import DDSimulator
from repro.obs.bench import (
    BenchRecord,
    add_history_flags,
    build_memory_snapshot,
    commit_records,
    machine_context,
    provenance,
)
from repro.obs.metrics import METRICS
from repro.par.imbalance import record_imbalance
from repro.perf.energy import grappa_energy_report, model_scaling_efficiency
from repro.perf.machines import machine_by_name
from repro.spec import SimulationSpec, add_spec_flags, spec_from_args


def _phase_breakdown(executor: str, steps: int) -> dict:
    """Collect the per-phase and overlap metrics accumulated since reset."""

    def phase_ms(phase: str) -> float:
        # Sum across the per-rank histograms (labels executor/phase/rank).
        total_us = sum(
            m.sum
            for name, labels, m in METRICS.collect("par.rank_us")
            if name == "par.rank_us"
            and dict(labels).get("executor") == executor
            and dict(labels).get("phase") == phase
        )
        return total_us / 1e3

    halo_us = METRICS.histogram("par.overlap.halo_us", executor=executor).sum
    hidden_us = METRICS.histogram("par.overlap.hidden_us", executor=executor).sum
    return {
        "forces_local_ms": phase_ms("forces_local"),
        "forces_nonlocal_ms": phase_ms("forces_nonlocal"),
        "halo_x_ms": halo_us / 1e3,
        "hidden_ms": hidden_us / 1e3,
        "overlap_efficiency": (hidden_us / halo_us) if halo_us > 0 else 0.0,
        "scatter_fallbacks": METRICS.counter("nonbonded.scatter_fallback").value,
    }


def bench_executor(
    spec: SimulationSpec, *, warmup_steps: int = 1, phase_breakdown: bool = False
) -> dict:
    """Steady-state ms/step for one spec (warm-up steps excluded).

    With DLB enabled, the warm-up window is where the boundaries converge
    (several neighbour searches); the timed window then measures the
    *balanced* steady state, exactly as the uniform-grid bench measures
    the post-spin-up steady state.
    """
    with DDSimulator.from_spec(spec) as sim:
        sim.run(warmup_steps)  # first neighbour search, pool spin-up, DLB settle
        memory = build_memory_snapshot()
        METRICS.reset()  # count only the timed steps (rank_us, overlap, ...)
        t0 = time.perf_counter()
        sim.run(spec.steps)
        elapsed = time.perf_counter() - t0
        checksum = float(np.sum(sim.system.positions))
        dlb_adjustments = sim.dlb_adjustments
    ms = elapsed * 1e3 / spec.steps
    r = {
        "executor": spec.executor,
        "ms_per_step": ms,
        "steps_per_s": 1e3 / ms,
        "measured_steps": spec.steps,
        "warmup_steps": warmup_steps,
        "checksum": checksum,
        "dlb": spec.dlb,
        "dlb_adjustments": dlb_adjustments,
        "imbalance": record_imbalance(executor=spec.executor),
        "memory": memory,
    }
    if phase_breakdown:
        r["phase_breakdown"] = _phase_breakdown(spec.executor, spec.steps)
    return r


def overall_imbalance(result: dict) -> float | None:
    """The executor's run-wide ``par.imbalance`` overall %% (None if absent)."""
    summary = result.get("imbalance") or {}
    phases = summary.get(result["executor"]) or {}
    overall = phases.get("overall")
    return None if overall is None else float(overall["imbalance_pct"])


def _energy_dict(args, n_atoms: int, result: dict) -> dict | None:
    """Modeled energy/efficiency for one executor's record (None if no grid)."""
    machine = machine_by_name(args.machine)
    rep = grappa_energy_report(
        n_atoms, args.ranks, machine, backend="nvshmem", publish=False
    )
    if rep is None:
        return None
    d = rep.as_dict()
    d["model_parallel_efficiency"] = model_scaling_efficiency(
        n_atoms, args.ranks, machine, backend="nvshmem"
    )
    speedup = result.get("speedup_vs_serial")
    workers = min(args.ranks, os.cpu_count() or 1)
    d["measured_parallel_efficiency"] = (
        speedup / workers if speedup is not None and workers > 0 else None
    )
    return d


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_spec_flags(
        parser, "system", "ranks", "steps", "nstlist", "kernel", "kernel_dtype",
        "max_build_bytes", "dlb",
        system=dict(default="45k", help="atom count or grappa label (default: 45k)"),
        ranks=dict(default=8),
        steps=dict(help="timed steps per executor (after 1 warm-up step)"),
    )
    parser.add_argument("--warmup-steps", type=int, default=None,
                        help="untimed steps before measurement (default: 1, "
                             "or 6*nstlist with DLB on so boundaries converge "
                             "before the timed window)")
    parser.add_argument("--assert-imbalance-reduction", type=float,
                        default=None, metavar="FACTOR",
                        help="with --dlb on: also run a dlb=off twin per "
                             "executor and fail unless DLB cuts the overall "
                             "par.imbalance by at least FACTOR (e.g. 2.0)")
    add_spec_flags(parser, "backend", "seed")
    parser.add_argument("--executors", nargs="+",
                        default=["serial", "process"])
    parser.add_argument("--phase-breakdown", action="store_true",
                        help="report local/non-local force split, halo wall "
                             "time, and overlap efficiency per executor")
    parser.add_argument("--no-overlap", action="store_true",
                        help="force the strict schedule (local, exchange, "
                             "non-local) on every executor")
    parser.add_argument("--machine", default="dgx-h100",
                        help="modeled machine for the energy estimate")
    parser.add_argument("--out", default="BENCH_report.json",
                        help="one-shot JSON report path")
    add_history_flags(parser)
    args = parser.parse_args(argv)

    if args.assert_imbalance_reduction is not None:
        if args.dlb == "off":
            raise SystemExit(
                "--assert-imbalance-reduction needs --dlb pairs|measured "
                "(there is nothing to compare against with DLB off)"
            )
        if args.assert_imbalance_reduction <= 1.0:
            raise SystemExit(
                f"--assert-imbalance-reduction must be > 1.0, got "
                f"{args.assert_imbalance_reduction}"
            )
    warmup_steps = args.warmup_steps
    if warmup_steps is None:
        warmup_steps = 1 if args.dlb == "off" else 6 * args.nstlist
    try:
        specs = [
            spec_from_args(
                args, executor=executor, overlap_comm=not args.no_overlap
            )
            for executor in args.executors
        ]
    except ValueError as err:
        raise SystemExit(str(err)) from None
    n_atoms = specs[0].n_atoms
    print(
        f"bench_step: {args.system} ({n_atoms} atoms), {args.ranks} ranks, "
        f"backend {args.backend}, {args.steps} steps/executor "
        f"(+{warmup_steps} warm-up), dlb {args.dlb}, {os.cpu_count()} cpus"
    )
    results = []
    twins: dict[str, dict] = {}  # executor -> dlb=off twin result
    for spec in specs:
        executor = spec.executor
        r = bench_executor(
            spec, warmup_steps=warmup_steps, phase_breakdown=args.phase_breakdown
        )
        results.append(r)
        mem = r["memory"]
        imb = overall_imbalance(r)
        imb_txt = "" if imb is None else f" | imbalance {imb:.0f}%"
        print(f"  {executor:<8} {r['ms_per_step']:9.2f} ms/step | build peak "
              f"{mem['build_peak_bytes'] / (1 << 20):.1f} MiB "
              f"({mem['build_peak_bytes_per_atom']:.0f} B/atom){imb_txt}")
        if args.assert_imbalance_reduction is not None:
            twins[executor] = bench_executor(
                spec.with_(dlb="off"), warmup_steps=warmup_steps
            )
            off_imb = overall_imbalance(twins[executor])
            print(f"           dlb=off twin: "
                  f"{twins[executor]['ms_per_step']:.2f} ms/step | imbalance "
                  f"{off_imb:.0f}% -> {imb:.0f}% with dlb={args.dlb}")
        if args.phase_breakdown:
            pb = r["phase_breakdown"]
            print(
                f"           local {pb['forces_local_ms']:.2f} ms | "
                f"nonlocal {pb['forces_nonlocal_ms']:.2f} ms | "
                f"halo {pb['halo_x_ms']:.2f} ms, hidden "
                f"{pb['hidden_ms']:.2f} ms "
                f"({100.0 * pb['overlap_efficiency']:.0f}% overlapped)"
            )

    by_name = {r["executor"]: r for r in results}
    serial = by_name.get("serial")
    if serial is not None:
        # "measured" DLB resizes from wall-clock timings, so different
        # executors legitimately converge to different decompositions;
        # every deterministic mode must still agree bit for bit.
        if args.dlb != "measured":
            checksums = {r["checksum"] for r in results}
            if len(checksums) != 1:
                raise SystemExit("FAILED: executors disagree on final positions")
        for r in results:
            r["speedup_vs_serial"] = serial["ms_per_step"] / r["ms_per_step"]
        for r in results:
            if r is not serial:
                print(f"  {r['executor']} speedup vs serial: "
                      f"{r['speedup_vs_serial']:.2f}x")

    machine_ctx = machine_context()
    report = {
        "bench": "step_throughput",
        "system": args.system,
        "n_atoms": n_atoms,
        "ranks": args.ranks,
        "backend": args.backend,
        "steps": args.steps,
        "nstlist": args.nstlist,
        "overlap_comm": not args.no_overlap,
        "kernel": args.kernel,
        "kernel_dtype": args.kernel_dtype,
        "max_build_bytes": args.max_build_bytes,
        "dlb": args.dlb,
        "warmup_steps": warmup_steps,
        **machine_ctx,
        "results": results,
        "dlb_off_twins": list(twins.values()) or None,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if args.phase_breakdown:
        fallbacks = sum(
            r["phase_breakdown"]["scatter_fallbacks"] for r in results
        )
        if fallbacks:
            raise SystemExit(
                f"FAILED: segment-reduction kernel fell back to the "
                f"np.add.at scatter path {fallbacks} time(s)"
            )

    # -- imbalance-reduction gate (the DLB acceptance check) -------------------
    if args.assert_imbalance_reduction is not None:
        factor = args.assert_imbalance_reduction
        failures = []
        for r in results:
            off = twins[r["executor"]]
            on_imb, off_imb = overall_imbalance(r), overall_imbalance(off)
            if on_imb is None or off_imb is None:
                failures.append(f"{r['executor']}: no par.rank_us observations")
            elif off_imb <= 0.0:
                failures.append(
                    f"{r['executor']}: dlb=off imbalance is {off_imb:.1f}% — "
                    f"nothing to balance; use an inhomogeneous --system"
                )
            elif off_imb < factor * on_imb:
                failures.append(
                    f"{r['executor']}: {off_imb:.1f}% -> {on_imb:.1f}% is only "
                    f"{off_imb / max(on_imb, 1e-9):.2f}x (need >= {factor:.2f}x)"
                )
        if failures:
            raise SystemExit(
                "FAILED: DLB imbalance reduction below required factor:\n  "
                + "\n  ".join(failures)
            )
        print(f"OK: dlb={args.dlb} cuts overall imbalance >= "
              f"{args.assert_imbalance_reduction:.2f}x on every executor")

    if args.no_history:
        return

    # -- committed history + regression gate ----------------------------------
    git_sha, timestamp = provenance(args)
    # The dlb=off twins (when --assert-imbalance-reduction ran) are real
    # measurements under their own baseline key; committing both sides
    # keeps the before/after imbalance evidence in the history itself.
    by_executor = {spec.executor: spec for spec in specs}
    new_records = [
        BenchRecord.measured(
            by_executor[r["executor"]].with_(dlb=r["dlb"]),
            git_sha=git_sha,
            timestamp=timestamp,
            ms_per_step=r["ms_per_step"],
            steps_per_s=r["steps_per_s"],
            machine=machine_ctx,
            phase_breakdown=r.get("phase_breakdown"),
            imbalance=r.get("imbalance"),
            energy=_energy_dict(args, n_atoms, r),
            memory=r.get("memory"),
        )
        for r in results + list(twins.values())
    ]
    commit_records(args, new_records, "step-throughput")


if __name__ == "__main__":
    main()
