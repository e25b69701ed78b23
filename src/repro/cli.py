"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
compare    MPI vs NVSHMEM for one system/GPU-count (the Fig. 3 question)
scaling    strong-scaling sweep on a machine (Figs. 3-5 style)
timings    device-side timing breakdown (Figs. 6-8 style)
timeline   ASCII schedule timeline (Figs. 1-2 style)
profile    cycle-accounting table + Chrome/Perfetto trace for one run
figures    regenerate every paper figure + EXPERIMENTS.md (the harness)
report     figure freshness, a read-only view of the repo benchmark's
           ``bench/out/results.json``, code size (``--check`` gates CI)
verify     functional check: DD + fused NVSHMEM exchange vs serial MD
chaos      fault-injection campaigns for the halo protocol (repro.chaos)

Functional subcommands (``compare``/``scaling`` ``--measure``,
``profile --functional``, ``verify``, ``chaos``) all build a
:class:`repro.spec.SimulationSpec` (flags that name a spec field are
generated from the field's own declaration — ``repro.spec.add_spec_flags``
— and read back with ``spec_from_args``) and run it in this process
through :func:`repro.run.execute_spec`, the one run body.

``--trace out.json`` (on ``profile``, ``compare``, ``scaling``,
``verify``) writes a Chrome trace-event file: simulated schedules export
one pid per rank and one tid per resource row; functional runs export the
wall-clock spans recorded by :mod:`repro.obs.tracer`.  Open the file in
``chrome://tracing`` or https://ui.perfetto.dev.

``--executor {process,serial}`` (on ``compare``, ``scaling``,
``profile``, ``verify``, ``chaos``) selects the :mod:`repro.par` rank
executor for functional runs: ``serial`` in-process reference,
``process`` persistent worker pool over shared memory (the per-GPU-rank
stand-in).  ``--kernel`` defaults to ``cluster``.  ``compare``/``scaling`` take
``--measure N`` to additionally time a real run; ``profile --functional``
profiles a real run via recorded spans instead of the timing model.

Global ``-v`` / ``--quiet`` flags control the :mod:`repro.obs.log`
logger that all reporting goes through.
"""

from __future__ import annotations

import argparse

from repro.chaos import (
    chaos_spec,
    replay_artifact,
    run_campaign,
    write_artifact,
)
from repro.comm import backend_registry
from repro.dd.dlb import DLB_MODES
from repro.md.grappa import SCENARIOS, resolve_atoms, scenario_label
from repro.obs.export import write_chrome_trace
from repro.obs.log import configure, get_logger
from repro.obs.metrics import METRICS
from repro.obs.report import (
    DEFAULT_BENCH,
    build_report,
    metrics_table,
    render_markdown,
    report_problems,
    write_report,
)
from repro.obs.tracer import TRACER
from repro.perf.machines import machine_by_name
from repro.perf.model import simulate_step
from repro.perf.workload import grappa_workload
from repro.run import execute_spec
from repro.spec import SimulationSpec, add_spec_flags, spec_from_args
from repro.util.tables import Table
from repro.util.units import ms_per_step_to_ns_per_day

log = get_logger("cli")

#: The spec knobs every functional subcommand exposes as flags.
FUNCTIONAL_FLAGS = ("executor", "kernel", "dlb")


def _resolve_atoms(system: str) -> int:
    """CLI-flavoured :func:`repro.md.grappa.resolve_atoms` (exits, not raises)."""
    try:
        return resolve_atoms(system)
    except ValueError as err:
        raise SystemExit(str(err)) from None


def _functional_ms_per_step(args, ranks: int, backend: str) -> float:
    """Wall-clock ms/step of a real DD run of ``args.measure`` steps.

    Runs the spec the command line describes; the reported figure
    includes the first neighbour search and pool spin-up.
    """
    spec = spec_from_args(args, ranks=ranks, backend=backend, steps=args.measure)
    return execute_spec(spec)["ms_per_step"]


def _run_traced(args, spec: SimulationSpec, **metadata) -> dict:
    """Run ``spec``; with ``--trace`` also export the run's raw spans."""
    if not args.trace:
        return execute_spec(spec)
    TRACER.enable()
    TRACER.clear()
    try:
        result = execute_spec(spec)
        spans = TRACER.spans
    finally:
        TRACER.disable()
    path = write_chrome_trace(args.trace, spans=spans, metadata=metadata)
    log.info("wrote Chrome trace %s (%d spans)", path, len(spans))
    return result


def cmd_compare(args) -> None:
    machine = machine_by_name(args.machine)
    n_atoms = _resolve_atoms(args.system)
    wl = grappa_workload(n_atoms, args.gpus, machine)
    columns = ["backend", "ns_per_day", "ms_per_step", "local_us", "nonlocal_us", "non_overlap_us"]
    if args.measure:
        columns.append("meas_ms_step")
    tbl = Table(
        columns=tuple(columns),
        title=f"{args.system} on {args.gpus} GPUs ({machine.name}), grid {wl.grid}",
    )
    graphs = {}
    for backend in ("mpi", "nvshmem"):
        g, t = simulate_step(wl, machine, backend=backend)
        graphs[f"{backend} schedule"] = g
        row = [
            backend,
            ms_per_step_to_ns_per_day(t.time_per_step * 1e-3),
            t.time_per_step * 1e-3,
            t.local_work,
            t.nonlocal_work,
            t.non_overlap,
        ]
        if args.measure:
            # The mpi row times the serialized lock-step exchange of Fig. 1.
            functional = "reference" if backend == "mpi" else backend
            row.append(_functional_ms_per_step(args, args.gpus, functional))
        tbl.add_row(*row)
    log.info("%s", tbl.render())
    _maybe_write_graph_trace(args, graphs)


def cmd_scaling(args) -> None:
    machine = machine_by_name(args.machine)
    n_atoms = _resolve_atoms(args.system)
    columns = ["gpus", "nodes", "grid", "mpi_nsday", "nvs_nsday", "speedup", "efficiency"]
    if args.measure:
        columns.append("meas_ms_step")
    tbl = Table(
        columns=tuple(columns),
        title=f"strong scaling: {args.system} on {machine.name}",
    )
    base = None
    graphs = {}
    for gpus in args.gpu_counts:
        try:
            wl = grappa_workload(n_atoms, gpus, machine)
        except ValueError as err:
            log.warning("  skipping %d GPUs: %s", gpus, err)
            continue
        nd = {}
        for backend in ("mpi", "nvshmem"):
            g, t = simulate_step(wl, machine, backend=backend)
            nd[backend] = ms_per_step_to_ns_per_day(t.time_per_step * 1e-3)
            if backend == "nvshmem":
                graphs[f"nvshmem {gpus} GPUs"] = g
        if base is None:
            base = (gpus, nd["nvshmem"])
        row = [
            gpus, machine.n_nodes(gpus), "x".join(map(str, wl.grid)),
            nd["mpi"], nd["nvshmem"], nd["nvshmem"] / nd["mpi"],
            nd["nvshmem"] / (base[1] * gpus / base[0]),
        ]
        if args.measure:
            row.append(_functional_ms_per_step(args, gpus, "nvshmem"))
        tbl.add_row(*row)
    log.info("%s", tbl.render())
    _maybe_write_graph_trace(args, graphs)


def cmd_timings(args) -> None:
    machine = machine_by_name(args.machine)
    n_atoms = _resolve_atoms(args.system)
    wl = grappa_workload(n_atoms, args.gpus, machine)
    tbl = Table(
        columns=("backend", "local_us", "nonlocal_us", "non_overlap_us", "step_us"),
        title=f"device-side timings: {args.system} on {args.gpus} GPUs ({machine.name})",
    )
    for backend in ("mpi", "nvshmem"):
        _, t = simulate_step(wl, machine, backend=backend)
        tbl.add_row(backend, t.local_work, t.nonlocal_work, t.non_overlap, t.time_per_step)
    log.info("%s", tbl.render())


def cmd_timeline(args) -> None:
    from repro.gpusim.timeline import render_timeline

    machine = machine_by_name(args.machine)
    wl = grappa_workload(_resolve_atoms(args.system), args.gpus, machine)
    g, t = simulate_step(wl, machine, backend=args.backend, n_steps=3)
    resources = sorted({x.resource for x in g.tasks.values() if x.name.startswith("s1:")})
    log.info("%s", render_timeline(g, width=args.width, resources=resources, show_labels=False))
    log.info(
        "steady-state step: %.1f us (%.0f ns/day)",
        t.time_per_step, ms_per_step_to_ns_per_day(t.time_per_step * 1e-3),
    )


def _simulate_or_exit(command: str, args, wl, machine, n_ranks: int, n_steps: int):
    """``simulate_step``, with a shape the model rejects as a one-line exit 1."""
    try:
        return simulate_step(wl, machine, backend=args.backend, n_steps=n_steps)
    except ValueError as err:  # e.g. thread-MPI on a multi-node shape
        raise SystemExit(
            f"{command} --backend {args.backend}: {err} ({n_ranks} ranks on "
            f"{machine.name}, {machine.gpus_per_node} GPUs per node)"
        ) from None


def cmd_critical(args) -> None:
    from repro.gpusim.critical import critical_path

    machine = machine_by_name(args.machine)
    wl = grappa_workload(_resolve_atoms(args.system), args.gpus, machine)
    g, _ = _simulate_or_exit("critical", args, wl, machine, args.gpus, n_steps=4)
    log.info("%s", critical_path(g, "s3:step_end").render())


def _cmd_profile_functional(args) -> None:
    """Span-based accounting of a real DD run with the chosen executor."""
    if args.backend not in backend_registry:
        raise SystemExit(
            f"profile --functional: '{args.backend}' is a timing-model backend "
            f"only; backend_registry holds {', '.join(sorted(backend_registry))}"
        )
    n_atoms = _resolve_atoms(args.system)
    spec = spec_from_args(args, kind="profile", overlap_comm=not args.no_overlap)
    result = _run_traced(
        args, spec, system=args.system, ranks=args.ranks,
        backend=args.backend, executor=args.executor, steps=args.steps,
    )
    spans_agg = result["spans"]
    tbl = Table(
        columns=("span", "count", "total_ms", "mean_us"),
        title=(
            f"functional profile: {n_atoms} atoms on {args.ranks} ranks, "
            f"backend {args.backend}, executor {args.executor}, {args.steps} steps"
        ),
    )
    for name, s in spans_agg.items():
        tbl.add_row(name, s["count"], s["total_us"] / 1e3, s["mean_us"])
    log.info("%s", tbl.render())
    step_total = spans_agg.get("dd.step", {}).get("total_us", 0.0)
    log.info("wall time/step: %.1f us over %d steps", step_total / max(1, args.steps), args.steps)


def cmd_profile(args) -> None:
    """Cycle accounting + trace export for one simulated configuration."""
    from repro.obs.report import cycle_accounting, render_cycle_table, step_window

    if args.functional:
        _cmd_profile_functional(args)
        return
    machine = machine_by_name(args.machine)
    n_atoms = _resolve_atoms(args.system)
    wl = grappa_workload(n_atoms, args.ranks, machine)
    g, t = _simulate_or_exit("profile", args, wl, machine, args.ranks, n_steps=args.steps)
    tbl = cycle_accounting(g, window=step_window(g, t.time_per_step))
    heading = (
        f"{n_atoms} atoms on {args.ranks} ranks ({machine.name}), "
        f"backend {args.backend}, grid {'x'.join(map(str, wl.grid))}"
    )
    log.info("%s", render_cycle_table(tbl, heading=heading))
    log.info("")
    log.info(
        "time/step: %.1f us (%.0f ns/day); local %.1f us, non-local %.1f us, "
        "exposed non-overlap %.1f us",
        t.time_per_step, ms_per_step_to_ns_per_day(t.time_per_step * 1e-3),
        t.local_work, t.nonlocal_work, t.non_overlap,
    )
    if args.trace:
        path = write_chrome_trace(
            args.trace,
            graphs={0: g},
            metadata={
                "system": args.system, "ranks": args.ranks,
                "machine": machine.name, "backend": args.backend,
                "time_per_step_us": t.time_per_step,
            },
        )
        log.info("wrote Chrome trace %s (open in chrome://tracing or ui.perfetto.dev)", path)
    if args.mdlog:
        from repro.analysis.mdlog import write_log

        write_log(
            args.mdlog,
            label=f"profile_{args.system}_{args.ranks}r_{args.backend}",
            backend=args.backend,
            n_ranks=args.ranks,
            n_atoms=n_atoms,
            time_per_step_us=t.time_per_step,
            grid=wl.grid,
            extra=t.as_dict(),
        )
        log.info("wrote mdrun-style log %s", args.mdlog)


def cmd_figures(args) -> None:
    from repro.harness.runner import (
        figure_status,
        figure_status_table,
        run_all,
        write_experiments_md,
    )

    if args.check:
        statuses = figure_status(args.out)
        log.info("%s", figure_status_table(statuses).render())
        drift = [line for s in statuses if (line := s.drift_line()) is not None]
        if drift:
            for line in drift:
                log.error("DRIFT %s", line)
            raise SystemExit(
                f"figures --check: {len(drift)} experiment(s) drift from "
                f"committed CSVs under {args.out}/"
            )
        log.info("OK: all experiment tables match the committed CSVs under %s/", args.out)
        return
    results = run_all(args.out, verbose=not args.quiet)
    write_experiments_md(args.md, results)
    log.info("wrote %s and CSVs under %s/", args.md, args.out)


def cmd_report(args) -> None:
    """Render figure freshness + the benchmark record; gate with ``--check``."""
    data = build_report(results_dir=args.results, bench_path=args.bench)
    log.info("%s", render_markdown(data))
    for p in write_report(data, md_path=args.out, json_path=args.json):
        log.info("wrote %s", p)
    if args.check:
        problems = report_problems(data)
        if problems:
            for p in problems:
                log.error("REPORT %s", p)
            raise SystemExit(
                f"report --check: {len(problems)} problem(s) — stale figures "
                f"or a failed/unreadable benchmark record"
            )
        log.info("OK: figures fresh, no failed benchmark operation")


def cmd_verify(args) -> None:
    spec = spec_from_args(
        args, kind="verify", system=scenario_label(args.scenario, args.atoms),
        backend="nvshmem", pes_per_node=max(1, args.ranks // 2),
        nstlist=5, max_pulses=2, overlap_comm=not args.no_overlap,
    )
    result = _run_traced(
        args, spec, atoms=args.atoms, ranks=args.ranks, steps=args.steps
    )
    log.info(
        "%d steps, %d ranks (grid %s), max deviation vs serial: %.2e nm",
        args.steps, args.ranks, tuple(result["grid"]), result["max_deviation_nm"],
    )
    log.debug("%s", metrics_table(METRICS).render())
    if not result["ok"]:
        raise SystemExit("FAILED: trajectories diverged")
    log.info("OK: fused NVSHMEM halo exchange is bit-consistent with serial MD")


def _chaos_specs(args) -> list[SimulationSpec]:
    """One campaign spec per requested backend, from the chaos defaults."""
    try:
        shape = tuple(int(x) for x in args.shape.split("x"))
    except ValueError:
        raise SystemExit(f"bad --shape '{args.shape}': use e.g. 1x1x4") from None
    backends = tuple(backend_registry) if args.backend == "all" else (args.backend,)
    return [
        spec_from_args(
            args, base=chaos_spec(), backend=backend, shape=shape,
            system=scenario_label(args.scenario, args.atoms),
        )
        for backend in backends
    ]


def _chaos_campaigns(args, specs) -> list[tuple]:
    """Campaign per spec; the first failure is shrunk and dumped."""
    rows = []
    artifact_written = None
    for spec in specs:
        res = run_campaign(
            spec, runs=args.runs, seed0=args.seed0, mutation=args.mutate, log=log
        )
        first = res.failures[0].plan.seed if res.failures else ""
        rows.append((spec.backend, res.runs, len(res.failures), first))
        if artifact_written is None and res.artifact is not None:
            artifact_written = write_artifact(args.out, res.artifact)
    log.debug("%s", metrics_table(METRICS, prefix="chaos").render())
    if artifact_written:
        log.warning(
            "wrote shrunk failing schedule to %s (replay with: "
            "repro chaos --replay %s)", artifact_written, artifact_written,
        )
    return rows


def cmd_chaos(args) -> None:
    """Fault-injection campaigns (and artifact replay) for the halo stack."""
    if args.replay:
        try:
            res = replay_artifact(args.replay)
        except ValueError as err:  # e.g. an artifact of another spec schema
            raise SystemExit(f"cannot replay {args.replay}: {err}") from None
        if res.failed:
            log.info("replayed %s: failure reproduced", args.replay)
            for v in res.violations:
                log.info("  %s", v)
            raise SystemExit(3)
        log.info(
            "replayed %s: no violation (%d steps clean) — the failure did "
            "not reproduce", args.replay, res.steps_completed,
        )
        raise SystemExit(0)

    specs = _chaos_specs(args)
    rows = _chaos_campaigns(args, specs)
    tbl = Table(
        columns=("backend", "runs", "failures", "first_failing_seed"),
        title=f"chaos campaign: {args.runs} seeded fault plans per backend",
    )
    for row in rows:
        tbl.add_row(*row)
    log.info("%s", tbl.render())
    any_failed = any(failures for _, _, failures, _ in rows)
    if args.expect_failure:
        if not any_failed:
            raise SystemExit(
                "FAILED: --expect-failure set (mutation self-test) but no "
                "violation was detected — the harness is vacuous"
            )
        log.info("OK: mutation was detected by the chaos harness")
        return
    if any_failed:
        raise SystemExit("FAILED: chaos campaign detected protocol violations")
    log.info(
        "OK: %d fault-injected runs per backend, all bit-identical to the "
        "serial reference", args.runs,
    )


def _maybe_write_graph_trace(args, graphs: dict) -> None:
    if getattr(args, "trace", None) and graphs:
        path = write_chrome_trace(args.trace, graphs=graphs)
        log.info("wrote Chrome trace %s (open in chrome://tracing or ui.perfetto.dev)", path)


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (every subcommand and flag)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GROMACS NVSHMEM halo-exchange reproduction"
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug logging (repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress everything below WARNING")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # pre-subcommand values when the post-subcommand flags are absent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS)
    common.add_argument("-q", "--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    scenario_flag = dict(
        choices=SCENARIOS, default=SCENARIOS[0],
        help="density scenario of the synthetic system (inhomogeneous "
             "scenarios are what DLB is for; see repro.md.inhomogeneous)",
    )

    def nonneg_int(value: str) -> int:
        n = int(value)
        if n < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return n

    p = sub.add_parser("compare", parents=[common], help="MPI vs NVSHMEM for one configuration")
    p.add_argument("system", nargs="?", default="45k")
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--machine", default="dgx-h100")
    p.add_argument("--trace", default=None, help="write both schedules as Chrome-trace JSON")
    add_spec_flags(p, *FUNCTIONAL_FLAGS)
    p.add_argument("--measure", type=nonneg_int, default=0, metavar="STEPS",
                   help="also run a real DD simulation per backend and report wall "
                        "ms/step (the mpi row runs the lock-step reference exchange)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scaling", parents=[common], help="strong-scaling sweep")
    p.add_argument("system", nargs="?", default="720k")
    p.add_argument("--machine", default="eos")
    p.add_argument("--gpu-counts", type=int, nargs="+", default=[8, 16, 32, 64, 128])
    p.add_argument("--trace", default=None, help="write NVSHMEM schedules as Chrome-trace JSON")
    add_spec_flags(p, *FUNCTIONAL_FLAGS)
    p.add_argument("--measure", type=nonneg_int, default=0, metavar="STEPS",
                   help="also run a real DD simulation per GPU count and report wall ms/step")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("timings", parents=[common], help="device-side timing breakdown")
    p.add_argument("system", nargs="?", default="45k")
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--machine", default="dgx-h100")
    p.set_defaults(fn=cmd_timings)

    p = sub.add_parser("timeline", parents=[common], help="ASCII schedule timeline (Figs. 1-2)")
    p.add_argument("system", nargs="?", default="180k")
    p.add_argument("--gpus", type=int, default=16)
    p.add_argument("--machine", default="eos")
    p.add_argument("--backend", choices=("mpi", "nvshmem"), default="nvshmem")
    p.add_argument("--width", type=int, default=110)
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("critical", parents=[common], help="critical-path analysis of a step")
    p.add_argument("system", nargs="?", default="45k")
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--machine", default="dgx-h100")
    p.add_argument("--backend", choices=("mpi", "nvshmem", "threadmpi"), default="nvshmem")
    p.set_defaults(fn=cmd_critical)

    p = sub.add_parser(
        "profile", parents=[common],
        help="cycle-accounting table + Chrome/Perfetto trace for one run",
    )
    add_spec_flags(
        p, "system", "ranks",
        system=dict(default="45k",
                    help="atom count or grappa label (e.g. 360k or grappa-360k)"),
        ranks=dict(default=8, help="GPU/PE count"),
    )
    p.add_argument("--machine", default="eos")
    p.add_argument("--backend", choices=("mpi", "nvshmem", "threadmpi"), default="nvshmem")
    add_spec_flags(p, "steps", steps=dict(default=4, help="chained steps to simulate"))
    p.add_argument("--trace", default=None, help="Chrome-trace JSON output path")
    p.add_argument("--mdlog", default=None, help="also write an mdrun-style log here")
    p.add_argument("--functional", action="store_true",
                   help="profile a real DD run (span accounting) instead of the model")
    add_spec_flags(p, *FUNCTIONAL_FLAGS)
    p.add_argument("--no-overlap", action="store_true",
                   help="functional runs only: strict schedule (local forces, "
                        "halo exchange, non-local forces) with no overlap")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("figures", parents=[common], help="regenerate all paper figures")
    p.add_argument("--out", default="results")
    p.add_argument("--md", default="EXPERIMENTS.md")
    p.add_argument("--check", action="store_true",
                   help="regenerate in-memory and fail on drift vs committed CSVs")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "report", parents=[common],
        help="figure freshness, the benchmark record (read-only), code size",
    )
    p.add_argument("--results", default="results",
                   help="committed figure CSV directory (default: results)")
    p.add_argument("--bench", default=DEFAULT_BENCH, metavar="PATH",
                   help="bench/run.py record to render; an absent file is not "
                        f"an error (default: {DEFAULT_BENCH})")
    p.add_argument("--out", default=None, metavar="REPORT_MD",
                   help="also write the rendered markdown here")
    p.add_argument("--json", default=None, metavar="REPORT_JSON",
                   help="also write the raw report data as JSON here")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero on stale/missing figures, an unknown "
                        "benchmark schema, or a workload with failed operations")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("verify", parents=[common], help="functional DD-vs-serial check")
    p.add_argument("--scenario", **scenario_flag)
    p.add_argument("--atoms", type=int, default=3000)
    add_spec_flags(p, "ranks", "steps", "seed", ranks=dict(default=8))
    p.add_argument("--trace", default=None,
                   help="record engine spans and write them as Chrome-trace JSON")
    add_spec_flags(p, *FUNCTIONAL_FLAGS)
    p.add_argument("--no-overlap", action="store_true",
                   help="strict schedule (local forces, halo exchange, "
                        "non-local forces) with no comm-compute overlap")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "chaos", parents=[common],
        help="fault-injection campaigns for the halo protocol",
    )
    base = chaos_spec()
    p.add_argument("--backend", default="all", choices=(*backend_registry, "all"),
                   help="halo backend(s) to fuzz")
    p.add_argument("--runs", type=int, default=50,
                   help="seeded fault plans per backend")
    p.add_argument("--seed", type=int, default=0, dest="seed0", metavar="SEED",
                   help="first plan seed")
    p.add_argument("--scenario", **scenario_flag)
    p.add_argument("--atoms", type=int, default=base.n_atoms)
    p.add_argument("--shape", default="x".join(map(str, base.shape)),
                   help="DD grid (default 1x1x4: two z-pulses per rank)")
    add_spec_flags(
        p, "dlb", "max_pulses", "steps", "pes_per_node", "executor", "kernel",
        dlb=dict(
            choices=[m for m in DLB_MODES if m != "measured"],
            help="dynamic load balancing under faults; chaos only "
                 "allows the deterministic 'pairs' mode (the "
                 "bit-identity oracle re-runs the same decomposition)",
        ),
        max_pulses=dict(default=base.max_pulses),
        steps=dict(default=base.steps, help="MD steps per case"),
        pes_per_node=dict(
            default=base.pes_per_node,
            help="nvshmem topology: 1 = all-IB, n_ranks = all-NVLink",
        ),
    )
    p.add_argument("--faults", type=int, default=base.n_faults, dest="n_faults",
                   metavar="FAULTS", help="faults per plan")
    p.add_argument("--mutate", default=None,
                   help="apply a protocol mutation (self-test); see "
                        "repro.chaos.mutations.MUTATIONS")
    p.add_argument("--expect-failure", action="store_true",
                   help="exit 0 only if a violation IS detected "
                        "(mutation self-tests)")
    p.add_argument("--out", default="chaos_failure.json",
                   help="where to dump the shrunk failing-schedule artifact")
    p.add_argument("--replay", default=None, metavar="ARTIFACT",
                   help="replay a dumped failing schedule instead of "
                        "running a campaign (exit 3 if it reproduces)")
    p.set_defaults(fn=cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    configure(verbosity=args.verbose, quiet=args.quiet)
    args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    main()
