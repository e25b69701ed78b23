"""Span recording from outside the program.

The benchmark owns its tracing: :class:`SpanRecorder` instance-wraps the
public calls at each layer boundary of one engine object (nothing under
``src/`` is edited or monkey-patched at class level), keeps spans in
memory as ``[name, start, end, parent, step]`` rows and writes them out
when the run ends.  A span's *self time* is its duration minus the part
its child spans cover, so the self times of all spans under one
``dd.step`` span add up to that step's wall time by construction — that
is what makes the per-layer rows a budget rather than a list of timers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

#: Spans that only occur inside a neighbour search: their rows are
#: reported per rebuild, every other row per step.
NS_SPANS = ("dd.ns", "dd.build_cluster", "comm.bind", "par.bind", "par.run_pairs")


def _run_span_name(phase: str) -> str:
    # forces_local / forces_nonlocal run inside run_forces_overlapped on
    # the serial executor: one row for the whole force phase.
    return "par.run_forces" if phase.startswith("forces") else f"par.run_{phase}"


class SpanRecorder:
    """In-memory span log over instance-wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _traced(self, fn, name):
        spans, stack = self.spans, self._stack
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed if fixed is not None else name(*args, **kwargs)
            idx = len(spans)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1, self.step_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def wrap(self, obj, attr: str, name) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, self._traced(getattr(obj, attr), name))

    def install(self, eng) -> None:
        """Put a span on every layer boundary of one engine object."""
        self.wrap(eng, "step", "dd.step")
        self.wrap(eng, "neighbor_search", "dd.ns")
        self.wrap(eng, "cluster_factory", "dd.build_cluster")
        backend = eng.backend
        self.wrap(backend, "bind", "comm.bind")
        self.wrap(backend, "exchange_forces", "comm.halo_f")
        exchange = self._traced(backend.exchange_coordinates, "comm.halo_x")

        def exchange_coordinates(cluster, on_pulse=None):
            # The engine's on_pulse callback is executor work (releasing a
            # rank's non-local phase); keep it out of the halo-x self time.
            if on_pulse is not None:
                on_pulse = self._traced(on_pulse, "par.run_forces")
            return exchange(cluster, on_pulse=on_pulse)

        self._undo.append((backend, "exchange_coordinates", False, None))
        backend.exchange_coordinates = exchange_coordinates
        executor = eng.executor
        if executor is not None:
            self.wrap(executor, "bind", "par.bind")
            self.wrap(executor, "run", _run_span_name)
            self.wrap(executor, "run_forces_overlapped", "par.run_forces")
            self.wrap(executor, "publish", "par.publish")

    def uninstall(self) -> None:
        for obj, attr, had, old in reversed(self._undo):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name over the whole log (ms)."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _step in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent, _step) in enumerate(self.spans):
            out[name] += (end - start - child[k]) * 1e3
        return dict(out)

    def total_ms(self, name: str) -> float:
        return sum((s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name)

    def write(self, path, **header) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3), parent, step]
            for name, a, b, parent, step in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {**header, "unit": "us", "columns": ["name", "start", "end", "parent", "step"], "spans": rows},
                fh,
            )
