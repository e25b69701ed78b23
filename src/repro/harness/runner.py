"""Experiment runner: regenerate figures, write CSVs and EXPERIMENTS.md."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.obs.log import get_logger
from repro.util.tables import Table

log = get_logger("harness")


def run_experiment(exp_id: str, out_dir: str | Path | None = None) -> Table:
    """Run one experiment; optionally write its CSV to ``out_dir``."""
    exp = EXPERIMENTS.get(exp_id)
    if exp is None:
        raise KeyError(
            f"unknown experiment '{exp_id}': available experiments are "
            f"{', '.join(sorted(EXPERIMENTS))} (pass an id from "
            f"repro.harness.EXPERIMENTS)"
        )
    tbl = exp.run()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tbl.to_csv(out_dir / f"{exp_id}.csv")
    return tbl


def run_all(out_dir: str | Path | None = None, verbose: bool = False) -> dict[str, Table]:
    """Run the whole registry (Figs. 3-8 + ablations)."""
    results = {}
    for exp_id in EXPERIMENTS:
        log.debug("running experiment %s", exp_id)
        tbl = run_experiment(exp_id, out_dir)
        results[exp_id] = tbl
        if verbose:
            log.info("%s", tbl.render())
    return results


def _csv_text(tbl: Table) -> str:
    """The exact bytes ``Table.to_csv`` would write, as a string."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(tbl.columns)
    writer.writerows(tbl.rows)
    return buf.getvalue()


@dataclass(frozen=True)
class FigureStatus:
    """Regeneration status of one committed figure CSV."""

    exp_id: str
    paper_element: str  # "Figure 3", "Ablation", ...
    source_csv: str  # the committed data source
    status: str  # "fresh" | "stale" | "missing"
    detail: str = ""  # first-diff locator for stale figures

    @property
    def action(self) -> str:
        """What a maintainer must do to restore freshness."""
        if self.status == "fresh":
            return ""
        return "run `repro figures` and commit the refreshed CSV"

    def drift_line(self) -> str | None:
        """The legacy ``check_results`` description (None when fresh)."""
        if self.status == "missing":
            return f"{self.exp_id}: committed CSV {self.source_csv} is missing"
        if self.status == "stale":
            return (
                f"{self.exp_id}: regenerated table drifts from "
                f"{self.source_csv}{self.detail}"
            )
        return None


def figure_status(out_dir: str | Path = "results") -> list[FigureStatus]:
    """Regenerate every experiment in-memory and grade it against its CSV.

    One row per registered experiment: ``fresh`` (regenerated table
    matches the committed CSV byte for byte), ``stale`` (it drifted; the
    detail pins the first differing line), or ``missing`` (no committed
    CSV at all).  This is the source table for both ``figures --check``
    and ``repro report``.
    """
    out_dir = Path(out_dir)
    statuses: list[FigureStatus] = []
    for exp_id, exp in EXPERIMENTS.items():
        expected_path = out_dir / f"{exp_id}.csv"
        if not expected_path.exists():
            statuses.append(
                FigureStatus(exp_id, exp.paper_element, str(expected_path), "missing")
            )
            continue
        # Normalize newlines: csv.writer emits \r\n, text-mode reads fold it.
        regenerated = _csv_text(run_experiment(exp_id)).replace("\r\n", "\n")
        committed = expected_path.read_text().replace("\r\n", "\n")
        if regenerated == committed:
            statuses.append(
                FigureStatus(exp_id, exp.paper_element, str(expected_path), "fresh")
            )
            continue
        reg_lines = regenerated.splitlines()
        com_lines = committed.splitlines()
        detail = ""
        for k, (a, b) in enumerate(zip(com_lines, reg_lines)):
            if a != b:
                detail = f" (first diff at line {k + 1}: {a!r} -> {b!r})"
                break
        else:
            detail = f" (row count {len(com_lines)} -> {len(reg_lines)})"
        statuses.append(
            FigureStatus(exp_id, exp.paper_element, str(expected_path), "stale", detail)
        )
    return statuses


def figure_status_table(statuses: list[FigureStatus]) -> Table:
    """The per-figure status rows as one harness table."""
    tbl = Table(
        columns=("figure", "paper_element", "source_csv", "status", "action"),
        title="figure regeneration status",
    )
    for s in statuses:
        tbl.add_row(s.exp_id, s.paper_element, s.source_csv, s.status, s.action)
    return tbl


def check_results(out_dir: str | Path = "results") -> list[str]:
    """Regenerate every experiment in-memory and diff against committed CSVs.

    Returns a list of drift descriptions (empty = reproducible).  This is
    the CI guard: any model or schedule change that silently shifts a
    figure shows up as a non-empty result.
    """
    return [
        line
        for s in figure_status(out_dir)
        if (line := s.drift_line()) is not None
    ]


def _comparison_section(exp: Experiment, tbl: Table) -> str:
    out = io.StringIO()
    if not exp.paper_values:
        return ""
    out.write("| where | metric | paper | measured | ratio |\n")
    out.write("|---|---|---|---|---|\n")
    for pv in exp.paper_values:
        measured = exp.measured_for(tbl, pv)
        if measured is None:
            out.write(f"| {pv.where} | {pv.metric} | {pv.value:g} | (row not found) | - |\n")
            continue
        ratio = measured / pv.value if pv.value else float("nan")
        out.write(
            f"| {pv.where} | {pv.metric} | {pv.value:g} | {measured:.3g} | {ratio:.2f} |\n"
        )
    return out.getvalue()


def write_experiments_md(
    path: str | Path = "EXPERIMENTS.md",
    results: dict[str, Table] | None = None,
) -> Path:
    """Write the paper-vs-measured record for every figure and ablation."""
    results = results or run_all()
    path = Path(path)
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs. measured\n\n")
    out.write(
        "Regenerated by `python -m repro.harness` (or `repro.harness.run_all()`).\n"
        "Measured values come from the calibrated timing model driving the\n"
        "simulated MPI / NVSHMEM schedules; the functional halo exchange is\n"
        "verified separately (bit-exact against the serial reference) in the\n"
        "test suite.  The reproduction target is the *shape* of each result\n"
        "(orderings, trends, crossovers), not the absolute testbed numbers.\n\n"
    )
    for exp_id, exp in EXPERIMENTS.items():
        tbl = results[exp_id]
        out.write(f"## {exp.paper_element}: {exp.title} (`{exp_id}`)\n\n")
        out.write(f"**Paper claim.** {exp.claim}.\n\n")
        cmp_md = _comparison_section(exp, tbl)
        if cmp_md:
            out.write("**Paper vs. measured.**\n\n")
            out.write(cmp_md)
            out.write("\n")
        out.write("**Full regenerated table.**\n\n```\n")
        out.write(tbl.render())
        out.write("```\n\n")
    path.write_text(out.getvalue())
    return path


def main() -> None:  # pragma: no cover - CLI convenience
    import argparse

    from repro.obs.log import configure

    parser = argparse.ArgumentParser(description="Regenerate all paper figures")
    parser.add_argument("--out", default="results", help="CSV output directory")
    parser.add_argument("--md", default="EXPERIMENTS.md", help="report path")
    parser.add_argument("--exp", default=None, help="run a single experiment id")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()
    configure(verbosity=args.verbose, quiet=args.quiet)
    if args.exp:
        tbl = run_experiment(args.exp, args.out)
        log.info("%s", tbl.render())
        return
    results = run_all(args.out, verbose=True)
    write_experiments_md(args.md, results)
    log.info("wrote %s and CSVs under %s/", args.md, args.out)


if __name__ == "__main__":  # pragma: no cover
    main()
