"""Observability layer: tracer, metrics, Chrome-trace export, cycle report."""

import json
import threading

import pytest

from repro.comm import NvshmemBackend
from repro.dd import DDGrid, DDSimulator
from repro.gpusim.graph import TaskGraph
from repro.obs.export import (
    chrome_trace,
    graph_events,
    resource_tids,
    span_events,
    write_chrome_trace,
)
from repro.obs.metrics import METRICS, Histogram, MetricsRegistry
from repro.obs.report import (
    IDLE_LABEL,
    cycle_accounting,
    mdlog_extra,
    metrics_table,
    render_cycle_table,
    step_window,
)
from repro.obs.tracer import TRACER, Tracer
from repro.perf.machines import machine_by_name
from repro.perf.model import simulate_step
from repro.perf.workload import grappa_workload


# ---------------------------------------------------------------- tracer ----


class TestTracer:
    def test_global_tracer_disabled_by_default(self):
        assert TRACER.enabled is False

    def test_disabled_span_is_shared_noop(self):
        t = Tracer(enabled=False)
        h1 = t.span("a", cat="x", big="payload")
        h2 = t.span("b")
        assert h1 is h2  # one shared object: nothing allocated per call
        with h1:
            pass
        t.instant("marker")
        assert len(t) == 0

    def test_records_window_and_nesting(self):
        t = Tracer(enabled=True)
        with t.span("outer", cat="test"):
            with t.span("inner", detail=3):
                pass
        inner, outer = t.spans  # inner finishes (is recorded) first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert inner.args == {"detail": 3}
        # Child window nests inside the parent's.
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-6

    def test_clear_find_len(self):
        t = Tracer(enabled=True)
        with t.span("dd.step"):
            pass
        with t.span("comm.halo_x"):
            pass
        assert len(t) == 2
        assert [s.name for s in t.find("dd.")] == ["dd.step"]
        t.clear()
        assert len(t) == 0

    def test_threads_get_distinct_tids(self):
        t = Tracer(enabled=True)
        # All workers alive at once: thread idents (hence tids) stay distinct.
        gate = threading.Barrier(3)

        def work():
            with t.span("worker"):
                gate.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        with t.span("main"):
            pass
        assert len(t) == 4
        assert len({s.tid for s in t.spans}) == 4


# --------------------------------------------------------------- metrics ----


class TestMetrics:
    def test_counter_and_label_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("comm.bytes", backend="mpi", dir="x")
        c.inc(10)
        c.inc(5)
        # Label order must not matter for identity.
        assert reg.counter("comm.bytes", dir="x", backend="mpi") is c
        assert reg.counter("comm.bytes", dir="f", backend="mpi") is not c
        assert c.value == 15

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")

    def test_gauge_tracks_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("heap.bytes")
        g.set(100.0)
        g.set(40.0)
        assert g.value == 40.0 and g.max == 100.0

    def test_histogram_nearest_rank_percentiles(self):
        h = Histogram()
        for v in range(100, 0, -1):  # reverse order: insort must sort
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0  # nearest-rank clamps to first value
        assert h.min == 1.0 and h.max == 100.0
        assert h.mean == pytest.approx(50.5)
        s = h.summary()
        assert s["count"] == 100 and s["p50"] == 50.0 and s["p95"] == 95.0

    def test_histogram_edge_cases(self):
        h = Histogram()
        with pytest.raises(ValueError, match="empty"):
            h.percentile(50)
        h.observe(7.0)
        assert h.percentile(50) == 7.0 == h.percentile(99)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(101)

    def test_disabled_registry_returns_null_sink(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        c.inc(100)
        reg.histogram("h").observe(1.0)
        assert c.value == 0
        assert reg.snapshot() == {}
        assert c is reg.gauge("anything")  # one shared null instrument

    def test_snapshot_and_table(self):
        reg = MetricsRegistry()
        reg.counter("a.pulses", dir="x").inc(4)
        reg.histogram("a.lat").observe(2.0)
        snap = reg.snapshot()
        assert snap["a.pulses{dir=x}"] == 4
        assert snap["a.lat"]["count"] == 1
        tbl = metrics_table(reg, prefix="a.")
        assert {r[0] for r in tbl.rows} == {"a.pulses", "a.lat"}
        extra = mdlog_extra(reg)
        assert extra["a.pulses{dir=x}"] == 4
        assert "count=1" in extra["a.lat"]


# ---------------------------------------------------------------- export ----


def _toy_graph():
    g = TaskGraph()
    g.add("s0:local_nb", "gpu.local", 20.0)
    g.add("s0:nonlocal:xpack", "gpu.nonlocal", 4.0, kind="pack")
    g.add("s0:nonlocal:xfer", "wire.x0", 6.0, deps=("s0:nonlocal:xpack",), kind="comm")
    g.add("s0:nonlocal:nb", "gpu.nonlocal", 15.0, deps=("s0:nonlocal:xfer",), kind="kernel")
    g.add("s0:launch_x", "cpu", 3.0, kind="launch")
    return g


class TestExport:
    def test_graph_events_pid_tid_mapping(self):
        g = _toy_graph()
        events = graph_events(g, rank=3)
        tids = resource_tids(g)
        assert set(tids) == {"gpu.local", "gpu.nonlocal", "wire.x0", "cpu"}
        for ev in events:
            assert ev["pid"] == 3
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["s0:nonlocal:xfer"]["tid"] == tids["wire.x0"]
        assert by_name["s0:local_nb"]["tid"] == tids["gpu.local"]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {tid: res for res, tid in tids.items()}

    def test_chrome_trace_sorts_and_leads_with_metadata(self):
        doc = chrome_trace(graph_events(_toy_graph()))
        evs = doc["traceEvents"]
        phases = [e["ph"] for e in evs]
        first_x = phases.index("X")
        assert all(p == "M" for p in phases[:first_x])
        ts = [e["ts"] for e in evs[first_x:]]
        assert ts == sorted(ts)

    def test_span_events_pid_override(self):
        t = Tracer(enabled=True, pid=5)
        with t.span("a", cat="c", n=1):
            pass
        (ev,) = span_events(t.spans)
        assert ev["pid"] == 5 and ev["ph"] == "X" and ev["cat"] == "c"
        (ev2,) = span_events(t.spans, pid=9)
        assert ev2["pid"] == 9

    def test_write_round_trip(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("host"):
            pass
        path = write_chrome_trace(
            tmp_path / "trace.json",
            spans=t.spans,
            graphs={0: _toy_graph(), "mpi schedule": _toy_graph()},
            metadata={"system": "toy"},
        )
        doc = json.loads(path.read_text())
        assert doc["otherData"] == {"system": "toy"}
        evs = doc["traceEvents"]
        pids = {e["pid"] for e in evs}
        assert 0 in pids  # int key -> that pid
        assert 1000 in pids  # str key -> sequential pids from 1000
        names = {
            e["args"]["name"] for e in evs if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"rank 0", "mpi schedule"} <= names
        # Every resource row of every schedule carries >= 1 complete event.
        for pid in (0, 1000):
            row_tids = {
                e["tid"] for e in evs
                if e["pid"] == pid and e["ph"] == "M" and e["name"] == "thread_name"
            }
            busy = {e["tid"] for e in evs if e["pid"] == pid and e["ph"] == "X"}
            assert row_tids and row_tids <= busy


# ---------------------------------------------------------------- report ----


class TestCycleAccounting:
    def test_rows_partition_the_window(self):
        tbl = cycle_accounting(_toy_graph())
        rows = {r[0]: r for r in tbl.rows}
        total = rows["Total"][2]
        phase_sum = sum(r[2] for name, r in rows.items() if name != "Total")
        assert phase_sum == pytest.approx(total, rel=1e-12)
        assert rows["Total"][3] == pytest.approx(100.0)
        # local_nb (0..20) owns every contested segment; the non-local
        # kernel (10..25) only keeps its exposed tail.
        assert rows["Nonbonded (local)"][2] == pytest.approx(20.0)
        assert rows["Nonbonded (non-local)"][2] == pytest.approx(5.0)
        assert IDLE_LABEL not in rows  # toy graph has no exposed gap

    def test_comm_rows_report_exposed_time_only(self):
        g = TaskGraph()
        g.add("local_nb", "gpu.local", 10.0)
        # xfer overlaps local_nb for 6 us, then runs exposed for 4 us.
        g.add("nonlocal:xpack", "gpu.nl", 4.0, kind="pack")
        g.add("nonlocal:xfer", "wire", 10.0, deps=("nonlocal:xpack",), kind="comm")
        tbl = cycle_accounting(g)
        rows = {r[0]: r for r in tbl.rows}
        assert rows["Comm. coord. halo"][2] == pytest.approx(4.0)

    def test_simulated_step_sums_to_step_time(self):
        machine = machine_by_name("eos")
        wl = grappa_workload(360_000, 8, machine)
        g, t = simulate_step(wl, machine, backend="nvshmem")
        tbl = cycle_accounting(g, window=step_window(g, t.time_per_step))
        rows = {r[0]: r for r in tbl.rows}
        phase_sum = sum(r[2] for name, r in rows.items() if name != "Total")
        assert rows["Total"][2] == pytest.approx(t.time_per_step, rel=1e-9)
        # Acceptance bound is 5%; the partition is exact by construction.
        assert phase_sum == pytest.approx(t.time_per_step, rel=1e-9)

    def test_render_contains_gromacs_header(self):
        out = render_cycle_table(cycle_accounting(_toy_graph()), heading="toy run")
        assert "R E A L   C Y C L E   A N D   T I M E   A C C O U N T I N G" in out
        assert "toy run" in out
        assert "Total" in out


# ----------------------------------------------- engine instrumentation ----


class TestEngineInstrumentation:
    def test_disabled_tracer_buffers_nothing(self, tiny_system, ff):
        TRACER.clear()
        assert not TRACER.enabled
        dds = DDSimulator(tiny_system, ff, grid=DDGrid((2, 1, 1)), nstlist=5, buffer=0.12)
        dds.run(2)
        assert len(TRACER) == 0  # every span site took the no-op path

    def test_enabled_tracer_sees_engine_and_backend_spans(self, tiny_system, ff):
        TRACER.enable()
        TRACER.clear()
        try:
            dds = DDSimulator(
                tiny_system, ff, grid=DDGrid((2, 1, 1)), nstlist=5, buffer=0.12,
                backend=NvshmemBackend(pes_per_node=2, seed=3),
            )
            dds.run(2)
            spans = {s.name for s in TRACER.spans}
        finally:
            TRACER.disable()
            TRACER.clear()
        assert {"dd.step", "dd.integrate", "dd.ns", "dd.halo_x", "dd.halo_f",
                "dd.forces"} <= spans
        assert "comm.nvshmem.halo_x" in spans and "comm.nvshmem.halo_f" in spans
        steps = [s for s in TRACER.spans if s.name == "dd.step"]
        assert steps == []  # cleared in the finally block

    def test_engine_populates_metrics(self, tiny_system, ff):
        METRICS.reset()
        dds = DDSimulator(
            tiny_system, ff, grid=DDGrid((2, 1, 1)), nstlist=5, buffer=0.12,
            backend=NvshmemBackend(pes_per_node=2, seed=3),
        )
        dds.run(3)
        snap = METRICS.snapshot()
        assert snap["dd.steps"] == 3
        assert snap["dd.ns_builds"] >= 1
        assert snap["dd.pulse_send_atoms"]["count"] >= 1
        assert snap["comm.sched_rounds{backend=nvshmem,dir=x}"]["count"] >= 1
        assert any(k.startswith("nvshmem.signal.stores") for k in snap)
        assert snap["nvshmem.heap.bytes"] > 0
        tbl = metrics_table(METRICS, prefix="dd.")
        assert any(r[0] == "dd.steps" for r in tbl.rows)

    def test_pairlist_build_and_prune_metrics(self, tiny_system, ff):
        """The reference list's build metrics, and the DD engine's dual
        list metrics, which reach the parent through the force phases'
        results: the same values under both executors."""
        from repro.md.pairlist import VerletListBuilder

        METRICS.reset()
        builder = VerletListBuilder(tiny_system.box, ff.cutoff, buffer=0.12)
        builder.build(tiny_system.positions)
        snap = METRICS.snapshot()
        assert snap["pairlist.builds"] == 1
        assert snap["pairlist.pairs_built"]["count"] == 1

        seen = []
        for executor in ("serial", "process"):
            METRICS.reset()
            with DDSimulator(
                tiny_system.copy(), ff, n_ranks=2, executor=executor,
                nstlist=10, buffer=0.12, dt=0.002,
            ) as sim:
                sim.run(8)
            snap = METRICS.snapshot()
            outer = snap["dd.pairs_local"] + snap["dd.pairs_nonlocal"]
            assert 0 < snap["md.pairs_inner"] < outer
            assert snap["md.prune.count"] > 0
            seen.append((snap["md.pairs_inner"], snap["md.prune.count"], outer))
        assert seen[0] == seen[1]
