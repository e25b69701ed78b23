"""Run reports: GROMACS-style cycle accounting and the ``repro report`` document.

GROMACS ends every log with the "R E A L   C Y C L E   A N D   T I M E
A C C O U N T I N G" table: wall time partitioned over activities so the
rows sum to the step total.  We reproduce that accounting over an
evaluated :class:`~repro.gpusim.graph.TaskGraph`: the step window is swept
segment by segment and each segment is attributed to exactly one activity
— the highest-precedence phase active in it.  Compute phases take
precedence over communication, which takes precedence over CPU API work,
so the communication rows report *exposed* (non-overlapped) time, the
quantity the paper's Sec. 6.3 instrumentation isolates.  By construction
the rows partition the window: they sum to the step time exactly.

:func:`metrics_table` renders the :mod:`repro.obs.metrics` registry
through the same :class:`~repro.util.tables.Table` machinery, and
:func:`mdlog_extra` flattens it for :func:`repro.analysis.mdlog.write_log`.

The last section is the ``repro report`` document (:func:`build_report`
→ :func:`render_markdown` / :func:`report_problems`): figure freshness,
a read-only rendering of the repo benchmark's ``bench/out/results.json``
when one exists and the code-size table.  It reads what ``bench/run.py``
measured; it never measures anything itself.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

from repro.gpusim.graph import Task, TaskGraph
from repro.obs.metrics import METRICS, Histogram, MetricsRegistry, format_labels
from repro.util.tables import Table

_STEP_PREFIX = re.compile(r"^s\d+:")

#: Activities in attribution-precedence order (first match wins both for
#: classification and for ownership of a contested time segment).
PHASES: tuple[tuple[str, "re.Pattern"], ...] = tuple(
    (label, re.compile(pat))
    for label, pat in (
        ("Update / constraints", r"^(reduce_f|integrate|update_misc)$"),
        ("Pair-list prune", r"^prune"),
        ("Clear buffers", r"^clear_bufs$"),
        ("Nonbonded (local)", r"^local_nb$"),
        ("Nonbonded (non-local)", r"^nonlocal:nb$"),
        ("Bonded", r"^(nonlocal:)?bonded$"),
        ("PME", r"^pme:"),
        ("Comm. coord. halo", r"^nonlocal:(xpack|xfer)"),
        ("Comm. force halo", r"^nonlocal:(fxfer|facc|funpack)"),
        ("MPI / sync (CPU)", r"^(wait_|mpi_post_|resync)"),
        ("Launch API (CPU)", r"^launch_"),
        ("Host other", r""),
    )
)

_IDLE = len(PHASES)
IDLE_LABEL = "Idle / exposed gaps"


def classify(task: Task) -> int:
    """Phase index of a task (step prefix stripped first)."""
    base = _STEP_PREFIX.sub("", task.name)
    for i, (_, pat) in enumerate(PHASES):
        if pat.search(base):
            return i
    return len(PHASES) - 1  # "Host other" has an empty pattern; unreachable


def step_window(graph: TaskGraph, time_per_step: float) -> tuple[float, float]:
    """The steady-state window: the last ``time_per_step`` of the schedule."""
    end = graph.makespan()
    return (max(0.0, end - time_per_step), end)


def cycle_accounting(
    graph: TaskGraph, window: tuple[float, float] | None = None
) -> Table:
    """Partition a schedule window into per-activity wall time.

    Returns a table with one row per active phase plus an idle row and a
    ``Total`` row; ``wall_us`` over the phase rows sums to the window
    length exactly.
    """
    graph.evaluate()
    if window is None:
        window = (0.0, graph.makespan())
    t0, t1 = window
    total = max(0.0, t1 - t0)

    clipped: list[tuple[int, float, float]] = []
    counts = [0] * (_IDLE + 1)
    for t in graph.tasks.values():
        s, e = max(t.start, t0), min(t.end, t1)
        if e <= s:
            continue
        ph = classify(t)
        clipped.append((ph, s, e))
        counts[ph] += 1

    bounds = sorted({t0, t1} | {s for _, s, _ in clipped} | {e for _, _, e in clipped})
    wall = [0.0] * (_IDLE + 1)
    for a, b in zip(bounds, bounds[1:]):
        owner = _IDLE
        for ph, s, e in clipped:
            if s <= a and e >= b and ph < owner:
                owner = ph
        wall[owner] += b - a

    tbl = Table(
        columns=("activity", "tasks", "wall_us", "pct"),
        title="cycle accounting",
    )
    for i, (label, _) in enumerate(PHASES):
        if counts[i] or wall[i] > 0.0:
            tbl.add_row(label, counts[i], wall[i], 100.0 * wall[i] / total if total else 0.0)
    if wall[_IDLE] > 0.0:
        tbl.add_row(IDLE_LABEL, "", wall[_IDLE], 100.0 * wall[_IDLE] / total if total else 0.0)
    tbl.add_row("Total", "", total, 100.0)
    return tbl


def render_cycle_table(tbl: Table, heading: str | None = None) -> str:
    """GROMACS-flavoured rendering of a :func:`cycle_accounting` table."""
    out = [
        "     R E A L   C Y C L E   A N D   T I M E   A C C O U N T I N G",
        "",
    ]
    if heading:
        out.append(f" {heading}")
        out.append("")
    rows = tbl.rows
    width = max([len("Activity")] + [len(str(r[0])) for r in rows]) + 2
    rule = "-" * (width + 34)
    out.append(f" {'Activity'.ljust(width)}{'Tasks':>7}{'Wall t (us)':>15}{'%':>10}")
    out.append(rule)
    for activity, tasks, wall_us, pct in rows:
        if activity == "Total":
            out.append(rule)
        out.append(
            f" {str(activity).ljust(width)}{str(tasks):>7}{wall_us:>15.1f}{pct:>10.1f}"
        )
    out.append(rule)
    return "\n".join(out)


def metrics_table(
    registry: MetricsRegistry = METRICS, prefix: str = "", title: str = "run metrics"
) -> Table:
    """The registry's instruments as one harness table."""
    return registry.to_table(prefix=prefix, title=title)


def mdlog_extra(registry: MetricsRegistry = METRICS, prefix: str = "") -> dict:
    """Flatten the registry for ``write_log(extra=...)`` footers."""
    out: dict[str, object] = {}
    for name, labels, m in registry.collect(prefix):
        key = f"{name}{{{format_labels(labels)}}}" if labels else name
        if isinstance(m, Histogram):
            s = m.summary()
            out[key] = (
                f"count={s['count']}"
                + (f" p50={s['p50']:g} p95={s['p95']:g} max={s['max']:g}" if s["count"] else "")
            )
        else:
            out[key] = m.value
    return out


# -- the ``repro report`` document ---------------------------------------------

#: Where ``bench/run.py`` leaves its record, and the layout version read here.
DEFAULT_BENCH = "bench/out/results.json"
BENCH_SCHEMA = 1

#: Per-layer rows that partition a traced step: six per step, then five per
#: rebuild (bench/README.md, "The step budget").  All are milliseconds.
BUDGET_ROWS = (
    "par.run_forces_ms", "comm.halo_x_ms", "comm.halo_f_ms", "par.publish_ms",
    "par.run_integrate_ms", "dd.step_self_ms",
    "dd.build_cluster_ms", "comm.bind_ms", "par.bind_ms", "par.run_pairs_ms",
    "dd.ns_self_ms",
)


def read_bench(path: str | Path = DEFAULT_BENCH) -> dict:
    """The benchmark record at ``path``, reduced to what the report shows.

    Per workload: the end-to-end medians (the metric names carry their
    units), ``failed`` / ``attempted`` and the step-budget rows.  An absent
    file is ``{"exists": False}``; a file with an unknown ``schema`` keeps
    the schema value and no workloads.
    """
    path = Path(path)
    out: dict = {"path": str(path), "exists": path.exists()}
    if not out["exists"]:
        return out
    doc = json.loads(path.read_text())
    out["schema"] = doc.get("schema") if isinstance(doc, dict) else None
    if out["schema"] != BENCH_SCHEMA:
        return out
    out["provenance"] = doc["provenance"]
    out["workloads"] = {
        name: {
            "end_to_end": {m: v["median"] for m, v in w["end_to_end"].items()},
            "failed": w["failed"],
            "attempted": w["attempted"],
            "budget": {
                r: w["per_layer"][r]["value"] for r in BUDGET_ROWS if r in w["per_layer"]
            },
        }
        for name, w in doc["workloads"].items()
    }
    return out


def code_size() -> dict:
    """Physical lines of ``.py`` source per ``repro`` sub-package.

    Counted from the installed package path (this file's own), so the
    number describes the code that is actually running.  Top-level
    modules (``cli.py``, ``spec.py`` ...) are grouped under ``(top level)``.
    """
    root = Path(__file__).resolve().parents[1]
    packages: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        name = rel.parts[0] if len(rel.parts) > 1 else "(top level)"
        with path.open("rb") as fh:
            packages[name] = packages.get(name, 0) + sum(1 for _ in fh)
    return {"packages": packages, "total": sum(packages.values())}


def build_report(
    results_dir: str | Path = "results", bench_path: str | Path = DEFAULT_BENCH
) -> dict:
    """Collect every section's data as one JSON-serializable dict."""
    from repro.harness.runner import figure_status  # heavy import kept local

    return {
        "results_dir": str(results_dir),
        "figures": [{**asdict(s), "action": s.action} for s in figure_status(results_dir)],
        "bench": read_bench(bench_path),
        "code_size": code_size(),
    }


def report_problems(data: dict) -> list[str]:
    """What ``repro report --check`` fails on.

    Non-fresh figures, a benchmark record this reader cannot parse, and
    failed benchmark operations.  No benchmark record at all is not a
    problem: most checkouts (and the ``tests`` CI job) never ran one.
    """
    problems = [
        f"figure {f['exp_id']}: {f['status']} ({f['source_csv']}) — {f['action']}"
        for f in data["figures"] if f["status"] != "fresh"
    ]
    bench = data["bench"]
    if bench["exists"] and bench["schema"] != BENCH_SCHEMA:
        problems.append(
            f"benchmark record {bench['path']}: unknown schema {bench['schema']!r} "
            f"(this reader understands {BENCH_SCHEMA})"
        )
    problems += [
        f"benchmark workload {name}: {w['failed']}/{w['attempted']} operations "
        f"failed ({bench['path']})"
        for name, w in bench.get("workloads", {}).items() if w["failed"] > 0
    ]
    return problems


def _md_table(header: list[str], rows: list[list]) -> str:
    """A markdown table; floats to three decimals, ``None`` as ``-``."""
    def cell(v) -> str:
        return "-" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)

    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(map(cell, r)) + " |" for r in rows]
    return "\n".join(out) + "\n"


def _render_bench(bench: dict) -> list[str]:
    out = [f"## Benchmark (`{bench['path']}`)", ""]
    if not bench["exists"]:
        return out + ["_No benchmark run found — `python3 bench/run.py`._", ""]
    if "workloads" not in bench:
        return out + [f"_Unknown schema {bench['schema']!r}; nothing rendered._", ""]
    prov, workloads = bench["provenance"], bench["workloads"]
    out += [
        f"Read, not re-measured: git `{prov.get('git_sha')}`, "
        f"{prov.get('cpu_count')} cpus, seed {prov.get('seed')}, "
        f"{prov.get('seconds')} s windows"
        + (", **smoke run** (timings are a plumbing check)" if prov.get("smoke") else "")
        + ". Definitions and bounds: `bench/README.md`.",
        "",
    ]
    metrics = list(dict.fromkeys(m for w in workloads.values() for m in w["end_to_end"]))
    out.append(_md_table(
        ["workload", *metrics, "failed/attempted"],
        [
            [f"`{name}`", *(w["end_to_end"].get(m) for m in metrics),
             ("**{}/{}**" if w["failed"] else "{}/{}").format(w["failed"], w["attempted"])]
            for name, w in workloads.items()
        ],
    ))
    out += ["Step budget (traced pass; self times in ms: six rows per step, "
            "then five per rebuild):", ""]
    out.append(_md_table(
        ["row", *(f"`{name}`" for name in workloads)],
        [[f"`{row}`", *(w["budget"].get(row) for w in workloads.values())]
         for row in BUDGET_ROWS],
    ))
    return out


def render_markdown(data: dict) -> str:
    """The report as a self-contained markdown document."""
    figures, size = data["figures"], data["code_size"]
    out = [
        "# repro report", "",
        f"Figure freshness graded against `{data['results_dir']}/`; benchmark "
        f"numbers read from `{data['bench']['path']}`. Gate in CI with "
        f"`repro report --check`.", "",
        "## Figure regeneration status", "",
        f"{sum(f['status'] == 'fresh' for f in figures)}/{len(figures)} figures fresh.", "",
        _md_table(
            ["figure", "paper element", "source CSV", "status", "action needed"],
            [
                [f["exp_id"], f["paper_element"], f"`{f['source_csv']}`",
                 f["status"] if f["status"] == "fresh" else f["status"].upper(),
                 f["action"] or "-"]
                for f in figures
            ],
        ),
        *_render_bench(data["bench"]),
    ]
    out += [
        "## Code size (lines of Python under `src/repro`)", "",
        _md_table(
            ["package", "lines"],
            [[f"`{name}`", n] for name, n in size["packages"].items()]
            + [["**total**", size["total"]]],
        ),
        "## Verdict", "",
    ]
    problems = report_problems(data)
    if problems:
        out += [f"**{len(problems)} problem(s)** — `repro report --check` fails:", ""]
        out += [f"- {p}" for p in problems]
    else:
        out.append("Figures fresh, no failed benchmark operation — "
                   "`repro report --check` passes.")
    out.append("")
    return "\n".join(out)


def write_report(
    data: dict,
    md_path: str | Path | None = None,
    json_path: str | Path | None = None,
) -> list[Path]:
    """Write the rendered markdown and/or raw JSON; returns written paths."""
    written = []
    if md_path is not None:
        written.append(Path(md_path))
        written[-1].write_text(render_markdown(data))
    if json_path is not None:
        written.append(Path(json_path))
        written[-1].write_text(json.dumps(data, indent=2) + "\n")
    return written
