"""The ``repro report`` dashboard: one auditable perf/energy record.

Renders a markdown (and JSON) report a reviewer can read top to bottom
to answer "are the figures fresh, how has step throughput moved, where
does the time go across ranks, and what would it cost in joules" —
without re-running anything.  Four sections, each fed by a subsystem
this repo already trusts:

1. **Figure regeneration status** — every registered experiment graded
   fresh/stale/missing against its committed CSV
   (:func:`repro.harness.runner.figure_status`, the ``figures --check``
   table).
2. **Bench trend** — the committed ``BENCH_step.json`` history
   (:mod:`repro.obs.bench`), newest records with the per-key delta
   against the previous run and the rolling-baseline gate verdict, plus
   the committed trend SVGs (:mod:`repro.obs.trend`) graded
   fresh/stale/missing against the history *before* regeneration.
3. **Load imbalance** — the ``par.rank_us`` summaries carried by the
   latest record per key (:mod:`repro.par.imbalance`).
4. **Energy** — the modeled J/step and ns·day⁻¹/W carried by the same
   records (:mod:`repro.perf.energy`).
5. **Service health** (only when the process has served jobs) — the live
   ``serve.*`` metrics published by :mod:`repro.serve`: queue depth,
   per-state job counts, and artifact-cache hit/miss counters.
6. **Code size** — lines of Python per ``repro`` sub-package, counted
   from the installed package path; net ``src/`` LOC is a tracked number.

``report_problems`` is the ``--check`` gate: non-fresh figures and a
missing/empty bench history are failures, so CI can refuse to merge a
change that silently stales a figure or drops the perf record.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.bench import (
    DEFAULT_HISTORY,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    BenchHistory,
    check_regression,
    rolling_baseline,
)

#: Rows shown per bench key in the trend section (history keeps them all).
TREND_ROWS = 8


def build_report(
    results_dir: str | Path = "results",
    history_path: str | Path = DEFAULT_HISTORY,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    trends_dir: str | Path | None = None,
) -> dict:
    """Collect every section's data as one JSON-serializable dict."""
    from repro.harness.runner import figure_status  # heavy import kept local
    from repro.obs.trend import DEFAULT_TRENDS_DIR, trend_status

    statuses = figure_status(results_dir)
    history_path = Path(history_path)
    history = BenchHistory.load(history_path)
    # Grade the committed trend SVGs now, before any caller regenerates
    # them — the status must reflect what is committed, not what this
    # invocation is about to write.
    trends_dir = Path(trends_dir) if trends_dir is not None else Path(
        DEFAULT_TRENDS_DIR
    )
    trend_figures = trend_status(history, trends_dir)

    trends = []
    for key in history.keys():
        recs = history.matching(key)
        # Gate the newest record against the rolling baseline of the rest.
        gate = check_regression(
            BenchHistory(history_path, recs[:-1]), [recs[-1]],
            threshold=threshold, window=window,
        )[0]
        rows = []
        pairs = list(zip([None] + recs[:-1], recs))[-TREND_ROWS:]
        for prev, rec in pairs:
            delta = (
                (rec.steps_per_s / prev.steps_per_s - 1.0) * 100.0
                if prev is not None and prev.steps_per_s > 0
                else None
            )
            rows.append(
                {
                    "timestamp": rec.timestamp,
                    "git_sha": rec.git_sha,
                    "ms_per_step": rec.ms_per_step,
                    "steps_per_s": rec.steps_per_s,
                    "delta_pct": delta,
                }
            )
        trends.append(
            {
                "key": recs[-1].key_label(),
                "executor": recs[-1].executor,
                "rows": rows,
                "baseline_steps_per_s": rolling_baseline(recs[:-1], window),
                "gate": gate.status,
                "latest": recs[-1].to_dict(),
            }
        )

    return {
        "report": "repro standing perf/energy report",
        "results_dir": str(results_dir),
        "history_path": str(history_path),
        "history_exists": history_path.exists(),
        "n_records": len(history.records),
        "threshold": threshold,
        "window": window,
        "trends_dir": str(trends_dir),
        "trend_figures": trend_figures,
        "figures": [
            {
                "figure": s.exp_id,
                "paper_element": s.paper_element,
                "source_csv": s.source_csv,
                "status": s.status,
                "detail": s.detail,
                "action": s.action,
            }
            for s in statuses
        ],
        "bench_trends": trends,
        # Live serve.* metrics from THIS process (empty unless a JobEngine
        # has run here): queue depth, job counts, cache hits/misses.
        "serve": _serve_snapshot(),
        "code_size": code_size(),
    }


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


def _serve_snapshot() -> dict:
    from repro.obs.metrics import METRICS

    return {
        k: v for k, v in METRICS.snapshot("serve").items()
        if not isinstance(v, dict)
    }


def report_problems(data: dict) -> list[str]:
    """What ``repro report --check`` fails on."""
    problems = []
    for f in data["figures"]:
        if f["status"] != "fresh":
            problems.append(
                f"figure {f['figure']}: {f['status']} ({f['source_csv']}) — "
                f"{f['action']}"
            )
    if not data["history_exists"]:
        problems.append(
            f"bench history {data['history_path']} is missing — run "
            f"benchmarks/bench_step.py and commit it"
        )
    elif data["n_records"] == 0:
        problems.append(
            f"bench history {data['history_path']} has no records — the "
            f"regression gate has nothing to stand on"
        )
    for t in data["bench_trends"]:
        if t["gate"] == "regression":
            problems.append(
                f"bench {t['key']}: latest committed record regresses "
                f">{data['threshold']:.0%} vs its rolling baseline"
            )
    for f in data.get("trend_figures", []):
        if f["status"] != "fresh":
            problems.append(
                f"trend figure {f['figure']}: {f['status']} ({f['detail']}) — "
                f"{f['action']}"
            )
    return problems


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(out) + "\n"


def _fmt(v, nd: int = 2) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.{nd}f}"
    return str(v)


def render_markdown(data: dict) -> str:
    """The dashboard as a self-contained markdown document."""
    out = ["# Standing perf/energy report", ""]
    out.append(
        f"Figure freshness graded against `{data['results_dir']}/`; bench "
        f"history read from `{data['history_path']}` "
        f"({data['n_records']} committed records). Regenerate with "
        f"`repro report`; gate in CI with `repro report --check`."
    )
    out.append("")

    # -- 1. figures ------------------------------------------------------------
    out.append("## Figure regeneration status")
    out.append("")
    n_fresh = sum(1 for f in data["figures"] if f["status"] == "fresh")
    out.append(f"{n_fresh}/{len(data['figures'])} figures fresh.")
    out.append("")
    out.append(
        _md_table(
            ["figure", "paper element", "source CSV", "status", "action needed"],
            [
                [f["figure"], f["paper_element"], f"`{f['source_csv']}`",
                 f["status"].upper() if f["status"] != "fresh" else "fresh",
                 f["action"] or "-"]
                for f in data["figures"]
            ],
        )
    )

    # -- 2. bench trend --------------------------------------------------------
    out.append("## Bench trend (committed step-throughput history)")
    out.append("")
    if data.get("trend_figures"):
        n_fresh = sum(
            1 for f in data["trend_figures"] if f["status"] == "fresh"
        )
        out.append(
            f"{n_fresh}/{len(data['trend_figures'])} committed trend figures "
            f"fresh (graded against the history before regeneration):"
        )
        out.append("")
        out.append(
            _md_table(
                ["figure", "status", "detail"],
                [
                    [f"[`{f['figure']}`]({f['path']})",
                     f["status"] if f["status"] == "fresh"
                     else f["status"].upper(),
                     f["detail"]]
                    for f in data["trend_figures"]
                ],
            )
        )
        for f in data["trend_figures"]:
            out.append(f"![{f['title']}]({f['path']})")
        out.append("")
    if not data["bench_trends"]:
        out.append(
            "_No committed bench records yet — run `benchmarks/bench_step.py` "
            "and commit the refreshed history._"
        )
        out.append("")
    for t in data["bench_trends"]:
        gate = {"ok": "gate OK", "no-baseline": "gate seeding (no baseline)",
                "regression": "**GATE FAILED**"}[t["gate"]]
        base = t["baseline_steps_per_s"]
        base_s = f", rolling baseline {base:.2f} steps/s" if base else ""
        out.append(f"### `{t['key']}` — {gate}{base_s}")
        out.append("")
        out.append(
            _md_table(
                ["timestamp", "git sha", "ms/step", "steps/s", "Δ vs prev"],
                [
                    [r["timestamp"], r["git_sha"], _fmt(r["ms_per_step"]),
                     _fmt(r["steps_per_s"]),
                     f"{r['delta_pct']:+.1f}%" if r["delta_pct"] is not None else "-"]
                    for r in t["rows"]
                ],
            )
        )

    # -- 3. load imbalance -----------------------------------------------------
    out.append("## Per-rank load imbalance (latest record per configuration)")
    out.append("")
    imb_rows = []
    for t in data["bench_trends"]:
        imb = t["latest"].get("imbalance") or {}
        # Records carry their DLB mode since the dlb schema extension;
        # older records ran with uniform cells, i.e. "off".
        dlb = t["latest"].get("dlb") or "off"
        dlb_label = "off" if dlb == "off" else f"**{dlb}**"
        for exe, phases in imb.items():
            for phase, s in sorted(phases.items()):
                imb_rows.append(
                    [t["key"], exe, dlb_label, phase, _fmt(s["mean_us"], 1),
                     _fmt(s["max_us"], 1), f"{s['imbalance_pct']:.1f}%"]
                )
    if imb_rows:
        out.append(
            "GROMACS-style imbalance, `100 * (max/mean - 1)` over the "
            "`par.rank_us` histograms (run-averaged; `overall` bounds the "
            "step-level waste).  The `dlb` column marks records measured "
            "with dynamic load balancing resizing the DD cells."
        )
        out.append("")
        out.append(
            _md_table(
                ["config", "executor", "dlb", "phase", "mean µs", "max µs",
                 "imbalance"],
                imb_rows,
            )
        )
    else:
        out.append("_No imbalance summaries in the committed records yet._")
        out.append("")

    # -- 4. energy -------------------------------------------------------------
    out.append("## Energy model (modeled machine, see `repro.perf.energy`)")
    out.append("")
    en_rows = []
    for t in data["bench_trends"]:
        en = t["latest"].get("energy")
        if not en:
            continue
        en_rows.append(
            [t["key"], en["machine"], en["backend"], f"{en['watts']:.0f}",
             _fmt(en["j_per_step"], 3), _fmt(en["ns_day_per_w"], 3),
             _fmt(en.get("model_parallel_efficiency"), 2),
             _fmt(en.get("measured_parallel_efficiency"), 2)]
        )
    if en_rows:
        out.append(
            "J/step and ns·day⁻¹/W are for the *modeled* machine at the "
            "model's step time — the auditable estimate the paper-scale "
            "hardware would produce, not a host-CPU measurement.  Parallel "
            "efficiency compares the measured executor sweep against the "
            "`repro.perf` model's prediction for the same rank count."
        )
        out.append("")
        out.append(
            _md_table(
                ["config", "machine", "backend", "W", "J/step", "ns·day⁻¹/W",
                 "model par-eff", "measured par-eff"],
                en_rows,
            )
        )
    else:
        out.append("_No energy estimates in the committed records yet._")
        out.append("")

    # -- 5. service health (live, only when this process served jobs) ---------
    if data.get("serve"):
        out.append("## Service health (live `serve.*` metrics, this process)")
        out.append("")
        out.append(
            _md_table(
                ["metric", "value"],
                [[f"`{k}`", _fmt(v, 0)] for k, v in sorted(data["serve"].items())],
            )
        )

    # -- 6. code size ----------------------------------------------------------
    size = data.get("code_size")
    if size:
        out.append("## Code size (lines of Python under `src/repro`)")
        out.append("")
        rows = [[f"`{name}`", str(n)] for name, n in size["packages"].items()]
        out.append(_md_table(["package", "lines"], rows + [["**total**", str(size["total"])]]))

    problems = report_problems(data)
    out.append("## Verdict")
    out.append("")
    if problems:
        out.append(f"**{len(problems)} problem(s)** — `repro report --check` fails:")
        out.append("")
        out += [f"- {p}" for p in problems]
    else:
        out.append(
            "All figures fresh, bench history present, no gated regression — "
            "`repro report --check` passes."
        )
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
        p = Path(md_path)
        p.write_text(render_markdown(data))
        written.append(p)
    if json_path is not None:
        p = Path(json_path)
        p.write_text(json.dumps(data, indent=2) + "\n")
        written.append(p)
    return written
