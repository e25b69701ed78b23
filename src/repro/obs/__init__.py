"""Observability: span tracing, run metrics, trace export, and reports.

The paper's evaluation is built on device-side instrumentation
(``%%globaltimer`` reads decomposing each step into local / non-local /
exposed time, Sec. 6.3).  This package is the reproduction's equivalent
substrate, shared by the functional engine and the timing layer:

* :mod:`repro.obs.tracer` — span-based wall-clock tracer with
  context-manager spans, nesting, thread-safe buffering, and a no-op
  disabled mode (a single boolean check per span);
* :mod:`repro.obs.metrics` — process-wide registry of labelled counters,
  gauges, and histograms (p50/p95/max summaries);
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export for
  both recorded spans and evaluated :class:`~repro.gpusim.graph.TaskGraph`
  schedules (one pid per rank, one tid per resource row);
* :mod:`repro.obs.report` — GROMACS-style cycle-accounting tables and
  metrics summaries over the :class:`~repro.util.tables.Table` machinery,
  and the ``repro report`` document (figure freshness, a read-only view of
  the repo benchmark's ``bench/out/results.json``, code size) with its
  ``--check`` gate;
* :mod:`repro.obs.log` — the harness/CLI logger (stdlib ``logging``).
"""

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import TRACER, Span, Tracer
from repro.obs.export import chrome_trace, graph_events, span_events, write_chrome_trace
from repro.obs.report import cycle_accounting, metrics_table, render_cycle_table

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "TRACER",
    "Span",
    "Tracer",
    "chrome_trace",
    "cycle_accounting",
    "graph_events",
    "metrics_table",
    "render_cycle_table",
    "span_events",
    "write_chrome_trace",
]
