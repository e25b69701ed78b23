"""Strong-scaling sweep: fixed systems, growing rank counts, real steps.

The paper's headline result is strong scaling of the grappa set across
8–64 GPUs; this benchmark is our analogue.  For each system it times
real :class:`repro.dd.engine.DDSimulator` steps (process executor,
cluster kernel, chunked pair-list builds) at every rank count in the
sweep and reports **parallel efficiency** — ``t(base)·base / t(R)·R`` —
next to the :mod:`repro.perf` timing model's prediction for the same
decomposition on the modeled machine
(:func:`repro.perf.energy.model_scaling_efficiency`).

Honesty note: on a single-core host every rank runs serialized through
one worker, so measured "efficiency" reflects decomposition overhead
(smaller per-rank domains, more halo volume, more IPC) rather than
parallel speedup — it *decreases* with rank count by construction.  The
report records ``cpu_count`` with every number so readers can tell a
laptop sweep from a real one, and the model column shows what the paper's
hardware would allow.

Every configuration appends a :class:`repro.obs.bench.BenchRecord` to
the committed history (default ``BENCH_step.json``) under its own
baseline key — ``(system, ranks, backend, executor, overlap, kernel,
dtype, max_build_bytes, dlb)`` — so ``--check`` gates each sweep point
against its own rolling baseline, exactly like ``bench_step``.  Systems
may carry a density-scenario prefix ("slab-45k", "droplet-45k"): the
sweep then runs the inhomogeneous generator and the imbalance column
shows what DLB (``--dlb pairs``) buys at each rank count.

Memory discipline is enforced, not just observed: ``--assert-bytes-per-atom``
fails the run when any configuration's per-rank build peak (the
``md.build.peak_bytes_per_atom`` gauge) exceeds the documented budget,
and ``--assert-peak-rss-mb`` bounds the whole sweep's resident set
(``getrusage``, self + children) — the CI ``scale`` job uses both.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --systems 192k --rank-counts 16 --steps 2 \
        --assert-bytes-per-atom 4000 --assert-peak-rss-mb 2048 \
        --no-history                                             # CI smoke
    PYTHONPATH=src python benchmarks/bench_scaling.py --check \
        --timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)"             # gated run
"""

from __future__ import annotations

import argparse
import json
import os
import resource
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
from repro.perf.energy import model_scaling_efficiency
from repro.perf.machines import machine_by_name
from repro.spec import SimulationSpec, add_spec_flags, spec_from_args

#: Default sweep: the paper's smallest grappa point plus a ≥768k system,
#: both at 8/16/32/64 ranks (the strong-scaling range the paper reports).
DEFAULT_SYSTEMS = ("45k", "768k")
DEFAULT_RANK_COUNTS = (8, 16, 32, 64)

#: Default per-rank build working-set cap for the sweep.  64 MiB keeps
#: the norm-expansion GEMM chunks bounded independent of system size —
#: the whole point of the chunked build path — while staying far above
#: the crossover where chunking would add measurable overhead.
DEFAULT_MAX_BUILD_BYTES = 64 << 20


def peak_rss_mb() -> float:
    """Peak resident set of this process tree so far, in MiB.

    ``ru_maxrss`` is a high-water mark since process start (kilobytes on
    Linux), covering self plus reaped children — the executor workers.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def bench_config(spec: SimulationSpec, warmup_steps: int = 1) -> dict:
    """Steady-state ms/step for one (system, ranks) sweep point."""
    with DDSimulator.from_spec(spec) as sim:
        sim.run(warmup_steps)  # first neighbour search, pool spin-up, DLB settle
        memory = build_memory_snapshot()
        METRICS.reset()
        t0 = time.perf_counter()
        sim.run(spec.steps)
        elapsed = time.perf_counter() - t0
        checksum = float(np.sum(sim.system.positions))
        dlb_adjustments = sim.dlb_adjustments
    ms = elapsed * 1e3 / spec.steps
    summary = record_imbalance(executor=spec.executor)
    overall = (summary.get(spec.executor) or {}).get("overall")
    return {
        "system": spec.system,
        "n_atoms": spec.n_atoms,
        "ranks": spec.ranks,
        "ms_per_step": ms,
        "steps_per_s": 1e3 / ms,
        "measured_steps": spec.steps,
        "warmup_steps": warmup_steps,
        "checksum": checksum,
        "dlb": spec.dlb,
        "dlb_adjustments": dlb_adjustments,
        "imbalance": summary,
        "imbalance_pct": None if overall is None else overall["imbalance_pct"],
        "memory": memory,
        "peak_rss_mb": peak_rss_mb(),
    }


def attach_efficiency(points: list[dict], machine) -> None:
    """Fill each sweep point's ``scaling`` dict, per system, in place.

    Measured efficiency is strong scaling vs the smallest rank count in
    the sweep: ``t(base)·base / t(R)·R``.  Model efficiency is the
    :mod:`repro.perf` prediction over the same base, on ``machine``.
    """
    by_system: dict[str, list[dict]] = {}
    for p in points:
        by_system.setdefault(p["system"], []).append(p)
    for system_points in by_system.values():
        system_points.sort(key=lambda p: p["ranks"])
        base = system_points[0]
        base_ranks = base["ranks"]
        base_cost = base["ms_per_step"] * base_ranks
        for p in system_points:
            measured = base_cost / (p["ms_per_step"] * p["ranks"])
            model = model_scaling_efficiency(
                p["n_atoms"], p["ranks"], machine,
                backend="nvshmem", base_ranks=base_ranks,
            )
            p["scaling"] = {
                "base_ranks": base_ranks,
                "measured_efficiency": measured,
                "model_efficiency": model,
                "model_machine": machine.name,
                "model_backend": "nvshmem",
            }


def markdown_table(points: list[dict], cpu_count: int | None) -> str:
    """The sweep as a README-ready GitHub markdown table."""
    lines = [
        "| system | atoms | ranks | ms/step | efficiency (measured) "
        "| efficiency (model, nvshmem) | build peak B/atom | imbalance % | dlb |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for p in points:
        s = p["scaling"]
        model = s["model_efficiency"]
        model_txt = f"{model:.2f}" if model is not None else "n/a"
        imb = p.get("imbalance_pct")
        imb_txt = f"{imb:.0f}" if imb is not None else "n/a"
        lines.append(
            f"| {p['system']} | {p['n_atoms']:,} | {p['ranks']} "
            f"| {p['ms_per_step']:.1f} "
            f"| {s['measured_efficiency']:.2f} "
            f"| {model_txt} "
            f"| {p['memory']['build_peak_bytes_per_atom']:.0f} "
            f"| {imb_txt} | {p.get('dlb', 'off')} |"
        )
    lines.append("")
    lines.append(
        f"*Measured on a {cpu_count}-core host: ranks serialize through "
        f"min(ranks, cores) workers, so the measured column shows "
        f"decomposition + IPC overhead, not parallel speedup; the model "
        f"column is the perf model's prediction for the paper's hardware.*"
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS),
                        help="systems to sweep (default: 45k 768k)")
    parser.add_argument("--rank-counts", nargs="+", type=int,
                        default=list(DEFAULT_RANK_COUNTS),
                        help="rank counts per system (default: 8 16 32 64)")
    add_spec_flags(
        parser, "steps", "nstlist", "executor", "backend", "kernel",
        "kernel_dtype", "max_build_bytes", "dlb",
        steps=dict(default=3, help="timed steps per point (after 1 warm-up step)"),
        executor=dict(default="process", help="rank executor (default: process)"),
        kernel=dict(default="cluster"),
        max_build_bytes=dict(
            default=DEFAULT_MAX_BUILD_BYTES,
            help="per-rank build working-set cap (default: 64M; '0' = uncapped)",
        ),
    )
    parser.add_argument("--warmup-steps", type=int, default=None,
                        help="untimed steps per point (default: 1, or "
                             "6*nstlist with DLB on so boundaries converge)")
    add_spec_flags(parser, "seed")
    parser.add_argument("--machine", default="dgx-h100",
                        help="modeled machine for the efficiency prediction")
    parser.add_argument("--out", default="BENCH_scaling.json",
                        help="one-shot JSON report path")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="also write the sweep as a markdown table")
    # -- hard memory gates (CI) ----------------------------------------------
    parser.add_argument("--assert-bytes-per-atom", type=float, default=None,
                        metavar="N",
                        help="fail when any point's per-rank build peak "
                             "exceeds N bytes/atom (md.build.peak_bytes_per_atom)")
    parser.add_argument("--assert-peak-rss-mb", type=float, default=None,
                        metavar="MB",
                        help="fail when the sweep's peak RSS (self+children) "
                             "exceeds MB mebibytes")
    add_history_flags(parser)
    args = parser.parse_args(argv)

    machine = machine_by_name(args.machine)
    cap_label = (
        f"{args.max_build_bytes // (1 << 20)}M cap"
        if args.max_build_bytes else "uncapped"  # '0' on the flag parses to None
    )
    warmup_steps = args.warmup_steps
    if warmup_steps is None:
        warmup_steps = 1 if args.dlb == "off" else 6 * args.nstlist
    print(
        f"bench_scaling: systems {args.systems}, ranks {args.rank_counts}, "
        f"{args.executor}/{args.kernel}/{args.kernel_dtype}, {cap_label}, "
        f"dlb {args.dlb}, {args.steps} steps/point "
        f"(+{warmup_steps} warm-up), {os.cpu_count()} cpus"
    )

    try:
        specs = [
            spec_from_args(args, system=system, ranks=ranks)
            for system in args.systems
            for ranks in args.rank_counts
        ]
    except ValueError as err:
        raise SystemExit(str(err)) from None
    points = []
    for spec in specs:
        p = bench_config(spec, warmup_steps)
        points.append(p)
        mem = p["memory"]
        imb = p.get("imbalance_pct")
        imb_txt = f" | imb {imb:5.0f}%" if imb is not None else ""
        print(
            f"  {spec.system:>6} @ {spec.ranks:>2}r  {p['ms_per_step']:9.1f} ms/step"
            f" | build peak {mem['build_peak_bytes'] / (1 << 20):8.1f} MiB"
            f" ({mem['build_peak_bytes_per_atom']:6.0f} B/atom)"
            f" | rss {p['peak_rss_mb']:7.0f} MiB{imb_txt}"
        )

    attach_efficiency(points, machine)
    for p in points:
        s = p["scaling"]
        model = s["model_efficiency"]
        model_txt = f"{model:.2f}" if model is not None else "n/a"
        print(
            f"  {p['system']:>6} @ {p['ranks']:>2}r  efficiency "
            f"{s['measured_efficiency']:.2f} measured vs {model_txt} model "
            f"(base {s['base_ranks']}r)"
        )

    machine_ctx = machine_context()
    report = {
        "bench": "strong_scaling",
        "systems": args.systems,
        "rank_counts": args.rank_counts,
        "backend": args.backend,
        "executor": args.executor,
        "kernel": args.kernel,
        "kernel_dtype": args.kernel_dtype,
        "max_build_bytes": args.max_build_bytes,
        "dlb": args.dlb,
        "warmup_steps": warmup_steps,
        "steps": args.steps,
        "nstlist": args.nstlist,
        "model_machine": args.machine,
        "peak_rss_mb": peak_rss_mb(),
        **machine_ctx,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.markdown:
        Path(args.markdown).write_text(
            markdown_table(points, machine_ctx["cpu_count"])
        )
        print(f"wrote {args.markdown}")

    # -- hard memory gates -----------------------------------------------------
    failures = []
    if args.assert_bytes_per_atom is not None:
        for p in points:
            got = p["memory"]["build_peak_bytes_per_atom"]
            if got > args.assert_bytes_per_atom:
                failures.append(
                    f"{p['system']}@{p['ranks']}r build peak {got:.0f} B/atom "
                    f"> budget {args.assert_bytes_per_atom:.0f}"
                )
    if args.assert_peak_rss_mb is not None:
        rss = peak_rss_mb()
        if rss > args.assert_peak_rss_mb:
            failures.append(
                f"peak RSS {rss:.0f} MiB > budget {args.assert_peak_rss_mb:.0f}"
            )
    if failures:
        raise SystemExit(
            "FAILED memory budget:\n  " + "\n  ".join(failures)
        )
    if args.assert_bytes_per_atom is not None or args.assert_peak_rss_mb is not None:
        print("OK: memory within budget")

    if args.no_history:
        return

    # -- committed history + regression gate ----------------------------------
    git_sha, timestamp = provenance(args)
    new_records = [
        BenchRecord.measured(
            spec,
            git_sha=git_sha,
            timestamp=timestamp,
            ms_per_step=p["ms_per_step"],
            steps_per_s=p["steps_per_s"],
            machine=machine_ctx,
            imbalance=p.get("imbalance"),
            memory=p.get("memory"),
            scaling=p.get("scaling"),
        )
        for spec, p in zip(specs, points)
    ]
    commit_records(args, new_records, "strong-scaling")


if __name__ == "__main__":
    main()
