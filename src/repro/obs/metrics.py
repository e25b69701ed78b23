"""Run metrics: labelled counters, gauges, and histograms.

A process-wide :data:`METRICS` registry collects per-run statistics from
the functional layer — halo scheduler rounds and proxy stalls, NVSHMEM
heap footprint and signal traffic, pair-list prune yields, engine step
counts.  The registry is deliberately tiny (no time series, no export
protocol): a metric is an in-memory cell the run report snapshots at the
end, the same role GROMACS' wallcycle counters play for its log tables.

Labels distinguish streams of the same metric (``comm.sched_rounds`` with
``dir=x`` vs ``dir=f``); a metric identity is the (name, sorted labels)
pair.  When the registry is disabled, lookups return shared null
instruments so instrumented code needs no branches of its own.
"""

from __future__ import annotations

import math
import threading
from bisect import insort

from repro.util.tables import Table


class Counter:
    """Monotonically increasing count (events, bytes, calls)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value with high-water tracking (heap bytes, pair counts)."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = -math.inf

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v


class Histogram:
    """Value distribution with nearest-rank percentiles.

    Observations are kept sorted (insertion via ``bisect``), so summaries
    are O(1) lookups; run-scale cardinalities (thousands of steps) keep
    the per-observe cost trivial.
    """

    __slots__ = ("_sorted", "count", "sum")

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        insort(self._sorted, v)
        self.count += 1
        self.sum += v

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        if not self._sorted:
            raise ValueError("percentile of an empty histogram")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        return self._sorted[rank - 1]

    @property
    def min(self) -> float:
        return self._sorted[0] if self._sorted else math.nan

    @property
    def max(self) -> float:
        return self._sorted[-1] if self._sorted else math.nan

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class _NullInstrument:
    """Shared sink for disabled registries: accepts everything, keeps nothing."""

    __slots__ = ()
    value = property(lambda self: 0, lambda self, v: None)  # direct bumps drop too
    max = 0.0
    count = 0
    sum = 0.0

    def inc(self, n: int | float = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass


_NULL = _NullInstrument()

_KINDS = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def format_labels(labels: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


class MetricsRegistry:
    """Named, labelled instruments behind one lock."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict):
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = cls()
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric '{name}' already registered as "
                    f"{_KINDS[type(m)]}, requested {_KINDS[cls]}"
                )
            return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- inspection -----------------------------------------------------------

    def collect(self, prefix: str = "") -> list[tuple[str, tuple, object]]:
        """(name, labels, instrument) triples, sorted, filtered by prefix."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [(n, lb, m) for (n, lb), m in items if n.startswith(prefix)]

    def snapshot(self, prefix: str = "") -> dict[str, float | dict]:
        """Flat ``name{labels}`` -> value (counters/gauges) or summary dict."""
        out: dict[str, float | dict] = {}
        for name, labels, m in self.collect(prefix):
            key = f"{name}{{{format_labels(labels)}}}" if labels else name
            if isinstance(m, Histogram):
                out[key] = m.summary()
            else:
                out[key] = m.value
        return out

    def to_table(self, prefix: str = "", title: str = "run metrics") -> Table:
        """Render every instrument as one row of a harness table."""
        tbl = Table(
            columns=("metric", "labels", "kind", "value", "p50", "p95", "max"),
            title=title,
        )
        for name, labels, m in self.collect(prefix):
            lab = format_labels(labels)
            if isinstance(m, Counter):
                tbl.add_row(name, lab, "counter", m.value, "", "", "")
            elif isinstance(m, Gauge):
                tbl.add_row(name, lab, "gauge", m.value, "", "", m.max)
            else:
                s = m.summary()
                tbl.add_row(
                    name, lab, "histogram", s["count"],
                    s.get("p50", ""), s.get("p95", ""), s.get("max", ""),
                )
        return tbl

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: Process-wide registry used by all instrumentation sites.
METRICS = MetricsRegistry()
