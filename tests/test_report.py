"""The ``repro report`` document and its ``--check`` gate.

The benchmark record is fabricated JSON in the ``bench/run.py`` layout:
the report only reads that file, so no benchmark runs inside tier-1.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import (
    BUDGET_ROWS,
    read_bench,
    render_markdown,
    report_problems,
    write_report,
)

SECTIONS = (
    "# repro report",
    "## Figure regeneration status",
    "## Benchmark (",
    "## Code size",
    "## Verdict",
)

E2E = {"setup_s": ("s", 0.8), "ms_per_step": ("ms", 48.6), "step_ms_p50": ("ms", 33.5),
       "ns_ms_p50": ("ms", 153.8), "peak_rss_mb": ("MB", 183.6)}


def bench_record(failed: int = 0, schema: int = 1) -> dict:
    """A results.json as ``bench/run.py`` writes it (one workload shown twice)."""
    workload = {
        "end_to_end": {
            m: {"unit": unit, "values": [v], "median": v} for m, (unit, v) in E2E.items()
        },
        "attempted": 21,
        "failed": 0,
        "samples": {"setups": 1, "steps": 9, "rebuilds": 1},
        "per_layer": {
            **{row: {"unit": "ms", "value": 1.5} for row in BUDGET_ROWS},
            "md.pairs_total": {"unit": "count", "value": 1e6},
        },
        "exact": {"traj_digest": ["ab"], "steps": [{"traced": 5}]},
    }
    return {
        "schema": schema,
        "provenance": {"git_sha": "abc1234", "cpu_count": 2, "seed": 7,
                       "seconds": 12, "smoke": True},
        "workloads": {
            "grappa6k-32r-proc": workload,
            "halo-ib-64r": {**workload, "failed": failed},
        },
    }


def write_bench(tmp_path, **kwargs) -> Path:
    path = tmp_path / "results.json"
    path.write_text(json.dumps(bench_record(**kwargs)))
    return path


def fake_data(bench: dict | None = None, **overrides) -> dict:
    """A hand-built build_report() payload for unit tests (no figure run)."""
    data = {
        "results_dir": "results",
        "figures": [
            {"exp_id": "fig3", "paper_element": "Figure 3",
             "source_csv": "results/fig3.csv", "status": "fresh",
             "detail": "", "action": ""},
        ],
        "bench": bench or {"path": "bench/out/results.json", "exists": False},
        "code_size": {"packages": {"obs": 10, "dd": 20}, "total": 30},
    }
    data.update(overrides)
    return data


class TestReportProblems:
    def test_green_state_has_none(self, tmp_path):
        assert report_problems(fake_data(read_bench(write_bench(tmp_path)))) == []

    def test_stale_figure(self):
        data = fake_data()
        data["figures"][0]["status"] = "stale"
        data["figures"][0]["action"] = "run `repro figures`"
        (p,) = report_problems(data)
        assert "fig3" in p and "stale" in p

    def test_absent_record_is_not_a_problem(self, tmp_path):
        bench = read_bench(tmp_path / "none.json")
        assert bench == {"path": str(tmp_path / "none.json"), "exists": False}
        assert report_problems(fake_data(bench)) == []

    def test_failed_workload_is_named(self, tmp_path):
        (p,) = report_problems(fake_data(read_bench(write_bench(tmp_path, failed=3))))
        assert "halo-ib-64r" in p and "3/21" in p

    def test_unknown_schema(self, tmp_path):
        bench = read_bench(write_bench(tmp_path, schema=2, failed=3))
        assert "workloads" not in bench  # an unknown layout is not parsed
        (p,) = report_problems(fake_data(bench))
        assert "unknown schema 2" in p


class TestRenderMarkdown:
    def test_all_sections_and_content(self, tmp_path):
        md = render_markdown(fake_data(read_bench(write_bench(tmp_path))))
        for section in SECTIONS:
            assert section in md
        assert "git `abc1234`, 2 cpus, seed 7" in md and "**smoke run**" in md
        assert "| `halo-ib-64r` | 0.800 | 48.600 | 33.500 | 153.800 | 183.600 | 0/21 |" in md
        for row in BUDGET_ROWS:  # the step budget, one column per workload
            assert f"| `{row}` | 1.500 | 1.500 |" in md
        assert "md.pairs_total" not in md  # only budget rows are shown
        assert "`repro report --check` passes" in md

    def test_failed_workload_verdict(self, tmp_path):
        md = render_markdown(fake_data(read_bench(write_bench(tmp_path, failed=3))))
        assert "**3/21**" in md
        assert "1 problem(s)" in md and "halo-ib-64r" in md.split("## Verdict")[1]

    def test_absent_record_placeholder(self):
        md = render_markdown(fake_data())
        assert "_No benchmark run found — `python3 bench/run.py`._" in md
        assert "`repro report --check` passes" in md


class TestBuildReport:
    def test_write_report(self, tmp_path):
        md_path, json_path = tmp_path / "r.md", tmp_path / "r.json"
        written = write_report(fake_data(), md_path, json_path)
        assert written == [md_path, json_path]
        assert md_path.read_text().startswith("# repro report")
        assert json.loads(json_path.read_text())["code_size"]["total"] == 30


class TestReportCli:
    def test_check_green_on_repo_state(self, capsys, tmp_path):
        """The acceptance gate: committed figures, with and without a record."""
        md_path, json_path = tmp_path / "report.md", tmp_path / "report.json"
        for bench in (tmp_path / "none.json", write_bench(tmp_path)):
            main(["report", "--check", "--bench", str(bench),
                  "--out", str(md_path), "--json", str(json_path)])
            assert "OK: figures fresh" in capsys.readouterr().out
            md = md_path.read_text()
            for section in SECTIONS:
                assert section in md
            doc = json.loads(json_path.read_text())
            assert doc["bench"]["exists"] == bench.exists()
            assert all(f["status"] == "fresh" for f in doc["figures"])

    def test_code_size_section(self, capsys, tmp_path):
        """Per-package LOC (the tracked simplicity scoreboard) is rendered
        and exported, and adds up to the files actually on disk."""
        import repro

        md_path, json_path = tmp_path / "report.md", tmp_path / "report.json"
        main(["report", "--out", str(md_path), "--json", str(json_path),
              "--bench", str(tmp_path / "none.json")])
        capsys.readouterr()
        size = json.loads(json_path.read_text())["code_size"]
        root = Path(repro.__file__).parent
        on_disk = sum(
            len(p.read_bytes().splitlines()) for p in root.rglob("*.py")
        )
        assert size["total"] == sum(size["packages"].values()) == on_disk
        assert {"dd", "chaos", "(top level)"} <= set(size["packages"])
        md = md_path.read_text()
        assert "## Code size" in md and f"| **total** | {size['total']} |" in md

    @pytest.mark.parametrize("kwargs,named", [
        ({"failed": 2}, "halo-ib-64r"), ({"schema": 99}, "unknown schema 99"),
    ])
    def test_check_fails_on_a_bad_record(self, capsys, tmp_path, kwargs, named):
        with pytest.raises(SystemExit, match="problem"):
            main(["report", "--check", "--bench", str(write_bench(tmp_path, **kwargs))])
        err = capsys.readouterr().err
        assert "REPORT" in err and named in err
