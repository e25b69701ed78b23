"""Self-tests of the benchmark: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths = ["tests"]``): one ``--smoke`` run of all
four workloads feeds most of the checks and takes the better part of a
minute, nearly all of it the 45k-atom workload's three neighbour searches.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The rows that partition a traced step (README.md, "The step budget").
STEP_ROWS = ("par.run_forces_ms", "comm.halo_x_ms", "comm.halo_f_ms", "par.publish_ms",
             "par.run_integrate_ms", "dd.step_self_ms")
NS_ROWS = ("dd.build_cluster_ms", "comm.bind_ms", "par.bind_ms", "par.run_pairs_ms",
           "dd.ns_self_ms")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="session")
def smoke(tmp_path_factory) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = _run("bench/run.py", "--smoke", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text())


def test_benchmark_json_has_the_contract_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["bench"] and 2 <= len(WORKLOADS) <= 8
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(smoke, workload):
    entry = smoke[1]["workloads"][workload]
    assert set(entry["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(entry["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["end_to_end"]:
        value = entry["end_to_end"][m["name"]]["median"]
        assert math.isfinite(value) and value > 0, m["name"]
    for m in BENCH["per_layer"]:
        assert math.isfinite(entry["per_layer"][m["name"]]["value"]), m["name"]
    assert entry["failed"] == 0 and entry["attempted"] > 0
    assert entry["per_layer"]["harness.figures_stale"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_budget_rows_sum_to_the_step_wall(smoke, workload):
    layers = {k: v["value"] for k, v in smoke[1]["workloads"][workload]["per_layer"].items()}
    steps = smoke[1]["workloads"][workload]["exact"]["steps"][-1]["traced"]
    per_step = sum(layers[r] for r in STEP_ROWS)
    per_rebuild = sum(layers[r] for r in NS_ROWS)
    budget = per_step + per_rebuild * layers["dd.ns_builds"] / steps
    assert budget == pytest.approx(layers["bench.traced_ms_per_step"], rel=5e-3)
    assert layers["dd.step_self_ms"] >= 0 and layers["dd.ns_self_ms"] >= 0


def test_trace_file_holds_parented_spans(smoke):
    trace = json.loads((BENCH_DIR / "out" / "grappa6k-32r-proc.trace.json").read_text())
    assert trace["columns"] == ["name", "start", "end", "parent", "step"]
    names = {s[0] for s in trace["spans"]}
    assert {"dd.step", "dd.ns", "dd.build_cluster", "comm.bind", "comm.halo_x", "comm.halo_f",
            "par.bind", "par.run_pairs", "par.run_forces", "par.run_integrate",
            "par.publish"} <= names
    for name, start, end, parent, _step in trace["spans"]:
        assert end >= start
        if name != "dd.step":
            outer = trace["spans"][parent]
            assert outer[1] <= start and end <= outer[2]


def test_results_round_trip_through_compare(smoke, tmp_path):
    path, record = smoke
    same = _run("bench/compare.py", str(path), str(path))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout and "unresolved" not in same.stdout

    slower = copy.deepcopy(record)
    entry = slower["workloads"]["halo-ib-64r"]["end_to_end"]["step_ms_p50"]
    entry["values"] = [v * 1.3 for v in entry["values"]]
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    worse = _run("bench/compare.py", str(path), str(tmp_path / "slower.json"))
    assert worse.returncode == 1 and "worse" in worse.stdout

    other_seed = copy.deepcopy(record)
    other_seed["provenance"]["seed"] = 8
    (tmp_path / "seed.json").write_text(json.dumps(other_seed))
    assert _run("bench/compare.py", str(path), str(tmp_path / "seed.json")).returncode == 2

    other_digest = copy.deepcopy(record)
    other_digest["workloads"]["halo-nvl-64r"]["exact"]["dd.halo_atoms"] += 1
    (tmp_path / "digest.json").write_text(json.dumps(other_digest))
    differs = _run("bench/compare.py", str(path), str(tmp_path / "digest.json"))
    assert differs.returncode == 1 and "dd.halo_atoms differs" in differs.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_form_ends_with_one_result_object(trace, section):
    proc = _run("bench/run.py", "--workload", "halo-nvl-64r", "--seed", "3",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]
    }


def test_a_dropped_force_pulse_is_counted_as_failure():
    import worker  # pytest puts this file's directory (bench/) on sys.path

    class DropForcePulse:
        """Loses the forces rank 0 computed on its first pulse's zone."""

        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def exchange_forces(self, cluster):
            pulse = cluster.plan.ranks[0].pulses[0]
            zone = slice(pulse.atom_offset, pulse.atom_offset + pulse.recv_size)
            cluster.local_forces[0][zone] = 0.0
            self._inner.exchange_forces(cluster)

    result = worker.run("halo-nvl-64r", seed=7, seconds=1.0, trace=False, smoke=True,
                        wrap_backend=DropForcePulse)
    assert result["failed"] > 0 and result["fail_frac"] > 0
    assert any("gathered forces differ" in note for note in result["failures"])
