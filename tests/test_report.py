"""The ``repro report`` dashboard and its ``--check`` gate."""

from __future__ import annotations

import json
from pathlib import Path
from dataclasses import replace

import pytest

from repro.cli import main
from repro.obs.bench import BenchHistory, BenchRecord
from repro.obs.dashboard import (
    build_report,
    render_markdown,
    report_problems,
    write_report,
)

SECTIONS = (
    "# Standing perf/energy report",
    "## Figure regeneration status",
    "## Bench trend (committed step-throughput history)",
    "## Per-rank load imbalance",
    "## Energy model",
    "## Verdict",
)


def record(steps_per_s=100.0, **overrides) -> BenchRecord:
    base = BenchRecord(
        git_sha="abc1234",
        timestamp="2026-08-08T00:00:00Z",
        system="45k",
        n_atoms=45000,
        ranks=8,
        backend="reference",
        executor="serial",
        overlap_comm=True,
        steps=10,
        ms_per_step=1e3 / steps_per_s,
        steps_per_s=steps_per_s,
        machine={"cpu_count": 8, "platform": "test", "python": "3.11"},
        imbalance={"serial": {"forces_local": {
            "count": 8.0, "mean_us": 120.0, "max_us": 180.0, "imbalance_pct": 50.0,
        }}},
        energy={"machine": "dgx-h100", "backend": "nvshmem", "watts": 6000.0,
                "j_per_step": 3.0, "ns_day_per_w": 0.02,
                "model_parallel_efficiency": 0.2,
                "measured_parallel_efficiency": 0.9},
    )
    return replace(base, **overrides)


def seed_history(path, speeds) -> BenchHistory:
    h = BenchHistory(path)
    for s in speeds:
        h.append(record(steps_per_s=s))
    h.save()
    return h


def fake_data(**overrides) -> dict:
    """A hand-built build_report() payload for unit tests (no figure run)."""
    data = {
        "report": "repro standing perf/energy report",
        "results_dir": "results",
        "history_path": "BENCH_step.json",
        "history_exists": True,
        "n_records": 2,
        "threshold": 0.10,
        "window": 5,
        "figures": [
            {"figure": "fig3", "paper_element": "Figure 3",
             "source_csv": "results/fig3.csv", "status": "fresh",
             "detail": None, "action": None},
        ],
        "bench_trends": [
            {"key": "45k/8r/reference/serial/overlap", "executor": "serial",
             "rows": [
                 {"timestamp": "t0", "git_sha": "aaa", "ms_per_step": 10.0,
                  "steps_per_s": 100.0, "delta_pct": None},
                 {"timestamp": "t1", "git_sha": "bbb", "ms_per_step": 11.0,
                  "steps_per_s": 91.0, "delta_pct": -9.0},
             ],
             "baseline_steps_per_s": 100.0,
             "gate": "ok",
             "latest": record(steps_per_s=91.0).to_dict()},
        ],
    }
    data.update(overrides)
    return data


class TestReportProblems:
    def test_green_state_has_none(self):
        assert report_problems(fake_data()) == []

    def test_stale_figure(self):
        data = fake_data()
        data["figures"][0]["status"] = "stale"
        data["figures"][0]["action"] = "run `repro figures`"
        (p,) = report_problems(data)
        assert "fig3" in p and "stale" in p

    def test_missing_history(self):
        (p,) = report_problems(fake_data(history_exists=False))
        assert "missing" in p

    def test_empty_history(self):
        (p,) = report_problems(fake_data(n_records=0))
        assert "no records" in p

    def test_gated_regression(self):
        data = fake_data()
        data["bench_trends"][0]["gate"] = "regression"
        (p,) = report_problems(data)
        assert "regresses" in p and "45k/8r" in p


class TestRenderMarkdown:
    def test_all_sections_and_content(self):
        md = render_markdown(fake_data())
        for section in SECTIONS:
            assert section in md
        assert "gate OK, rolling baseline 100.00 steps/s" in md
        assert "-9.0%" in md  # delta column
        assert "forces_local" in md and "50.0%" in md  # imbalance row
        assert "dgx-h100" in md and "ns·day⁻¹/W" in md  # energy row
        assert "`repro report --check` passes" in md

    def test_gate_labels_and_verdict(self):
        data = fake_data()
        data["bench_trends"][0]["gate"] = "regression"
        md = render_markdown(data)
        assert "**GATE FAILED**" in md
        assert "problem(s)" in md

    def test_empty_history_placeholders(self):
        data = fake_data(bench_trends=[], n_records=0, history_exists=False)
        md = render_markdown(data)
        assert "_No committed bench records yet" in md
        assert "_No imbalance summaries" in md
        assert "_No energy estimates" in md


class TestBuildReport:
    def test_trends_deltas_and_gate(self, tmp_path):
        hist = tmp_path / "h.json"
        seed_history(hist, speeds=(100.0, 102.0, 50.0))  # latest regresses >10%
        data = build_report(results_dir="results", history_path=hist)
        assert data["history_exists"] and data["n_records"] == 3
        (t,) = data["bench_trends"]
        assert t["gate"] == "regression"
        assert t["baseline_steps_per_s"] == pytest.approx(101.0)
        assert [r["delta_pct"] for r in t["rows"]][0] is None
        assert t["rows"][1]["delta_pct"] == pytest.approx(2.0)
        assert all(f["status"] == "fresh" for f in data["figures"])
        md = render_markdown(data)
        assert "**GATE FAILED**" in md
        (problem,) = [p for p in report_problems(data) if "regresses" in p]
        assert "45k/8r/reference/serial/overlap" in problem

    def test_write_report(self, tmp_path):
        md_path, json_path = tmp_path / "r.md", tmp_path / "r.json"
        written = write_report(fake_data(), md_path, json_path)
        assert written == [md_path, json_path]
        assert md_path.read_text().startswith("# Standing perf/energy report")
        assert json.loads(json_path.read_text())["n_records"] == 2


class TestReportCli:
    def test_check_green_on_repo_state(self, capsys, tmp_path):
        """The acceptance gate: committed figures + committed bench history."""
        md_path, json_path = tmp_path / "report.md", tmp_path / "report.json"
        main(["report", "--check", "--out", str(md_path), "--json", str(json_path)])
        out = capsys.readouterr().out
        assert "OK: figures fresh, bench history present, gates green" in out
        md = md_path.read_text()
        for section in SECTIONS:
            assert section in md
        doc = json.loads(json_path.read_text())
        assert doc["n_records"] >= 1 and doc["history_exists"]

    def test_code_size_section(self, capsys, tmp_path):
        """Per-package LOC (the tracked simplicity scoreboard) is rendered
        and exported, and adds up to the files actually on disk."""
        import repro

        md_path, json_path = tmp_path / "report.md", tmp_path / "report.json"
        main(["report", "--out", str(md_path), "--json", str(json_path),
              "--trends-dir", str(tmp_path / "trends")])
        capsys.readouterr()
        size = json.loads(json_path.read_text())["code_size"]
        root = Path(repro.__file__).parent
        on_disk = sum(
            len(p.read_bytes().splitlines()) for p in root.rglob("*.py")
        )
        assert size["total"] == sum(size["packages"].values()) == on_disk
        assert {"dd", "serve", "chaos", "(top level)"} <= set(size["packages"])
        md = md_path.read_text()
        assert "## Code size" in md and f"| **total** | {size['total']} |" in md

    def test_check_fails_without_history(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="problem"):
            main(["report", "--check", "--history", str(tmp_path / "none.json")])
        assert "REPORT" in capsys.readouterr().err
