"""Bench-history store and the step-throughput regression gate."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchHistory,
    BenchRecord,
    check_regression,
    regressions,
    rolling_baseline,
)


def make_record(**overrides) -> BenchRecord:
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
        ms_per_step=10.0,
        steps_per_s=100.0,
        machine={"cpu_count": 8, "platform": "test", "python": "3.11"},
    )
    return replace(base, **overrides)


class TestBenchHistory:
    def test_missing_file_is_empty_history(self, tmp_path):
        h = BenchHistory.load(tmp_path / "nope.json")
        assert h.records == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_step.json"
        h = BenchHistory(path)
        h.append(make_record())
        h.append(make_record(executor="process", steps_per_s=300.0))
        h.save()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["bench"] == "step_throughput"
        h2 = BenchHistory.load(path)
        assert len(h2.records) == 2
        assert h2.records[0] == make_record()
        assert h2.keys() == [h2.records[0].key(), h2.records[1].key()]
        assert h2.latest(h2.records[1].key()).steps_per_s == 300.0

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(
            {"schema_version": BENCH_SCHEMA_VERSION + 1, "records": []}
        ))
        with pytest.raises(ValueError, match="schema_version"):
            BenchHistory.load(path)

    def test_from_dict_ignores_unknown_keys(self):
        d = make_record().to_dict()
        d["future_field"] = "whatever"
        assert BenchRecord.from_dict(d) == make_record()


class TestRollingBaseline:
    def test_empty_is_none(self):
        assert rolling_baseline([]) is None

    def test_median_over_window(self):
        recs = [make_record(steps_per_s=s) for s in (10, 999, 90, 100, 110, 95, 105)]
        # window 5 -> last five: 90,100,110,95,105 -> median 100
        assert rolling_baseline(recs, window=5) == 100.0
        # the full list would be polluted by the 999 outlier's neighbourhood
        assert rolling_baseline(recs, window=2) == 100.0


class TestRegressionGate:
    def history(self, tmp_path, speeds=(100.0, 102.0, 98.0)):
        h = BenchHistory(tmp_path / "h.json")
        for s in speeds:
            h.append(make_record(steps_per_s=s))
        return h

    def test_small_slowdown_passes(self, tmp_path):
        h = self.history(tmp_path)
        new = make_record(steps_per_s=92.0)  # 8% below the 100.0 median
        (g,) = check_regression(h, [new])
        assert g.status == "ok" and g.baseline == 100.0
        assert not regressions([g])

    def test_large_slowdown_trips(self, tmp_path):
        h = self.history(tmp_path)
        new = make_record(steps_per_s=85.0)  # 15% below baseline
        (g,) = check_regression(h, [new])
        assert g.status == "regression"
        assert "-15.0%" in g.describe()
        assert regressions([g]) == [g]

    def test_speedup_passes(self, tmp_path):
        h = self.history(tmp_path)
        (g,) = check_regression(h, [make_record(steps_per_s=250.0)])
        assert g.status == "ok"

    def test_empty_history_is_graceful(self, tmp_path):
        h = BenchHistory(tmp_path / "h.json")
        (g,) = check_regression(h, [make_record()])
        assert g.status == "no-baseline"
        assert g.baseline is None and g.ratio is None
        assert "no committed baseline" in g.describe()
        assert not regressions([g])

    def test_other_keys_do_not_gate(self, tmp_path):
        # A fast process-executor history must not gate a serial record.
        h = BenchHistory(tmp_path / "h.json")
        h.append(make_record(executor="process", steps_per_s=1000.0))
        (g,) = check_regression(h, [make_record(steps_per_s=50.0)])
        assert g.status == "no-baseline"

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="threshold"):
            check_regression(self.history(tmp_path), [make_record()], threshold=1.5)


def load_bench_step():
    """Import benchmarks/bench_step.py as a module (not on sys.path)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_step.py"
    spec = importlib.util.spec_from_file_location("bench_step_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchStepGate:
    """The CLI gate end to end, against fabricated histories."""

    ARGS = ["--system", "600", "--ranks", "2", "--steps", "2",
            "--executors", "serial", "--seed", "3",
            "--git-sha", "testsha", "--timestamp", "t0"]

    def fabricate(self, tmp_path, steps_per_s) -> Path:
        h = BenchHistory(tmp_path / "BENCH_step.json")
        # kernel is part of the baseline key: name what the run defaults to.
        h.append(make_record(system="600", n_atoms=600, ranks=2, steps=2,
                             steps_per_s=steps_per_s, kernel="cluster"))
        h.save()
        return h.path

    def run(self, tmp_path, hist: Path, check=True):
        mod = load_bench_step()
        args = self.ARGS + ["--history", str(hist),
                            "--out", str(tmp_path / "rep.json")]
        if check:
            args.append("--check")
        mod.main(args)

    def test_fabricated_fast_baseline_trips(self, tmp_path, capsys):
        hist = self.fabricate(tmp_path, steps_per_s=1e9)
        with pytest.raises(SystemExit, match="regress"):
            self.run(tmp_path, hist)
        assert "gate:" in capsys.readouterr().out
        # the failing record was still appended before the gate fired
        assert len(BenchHistory.load(hist).records) == 2

    def test_fabricated_slow_baseline_passes(self, tmp_path, capsys):
        hist = self.fabricate(tmp_path, steps_per_s=1e-9)
        self.run(tmp_path, hist)
        assert "OK: no step-throughput regression" in capsys.readouterr().out

    def test_first_run_empty_history_passes(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_step.json"
        self.run(tmp_path, hist)
        out = capsys.readouterr().out
        assert "no committed baseline" in out
        recs = BenchHistory.load(hist).records
        assert len(recs) == 1
        rec = recs[0]
        assert rec.git_sha == "testsha" and rec.timestamp == "t0"
        assert rec.imbalance and "serial" in rec.imbalance
        assert rec.machine["cpu_count"] is not None
