"""Span-based wall-clock tracer.

Instrumentation sites throughout the engine and the comm backends open
spans with::

    from repro.obs.tracer import TRACER

    with TRACER.span("dd.halo_x", cat="comm", backend="nvshmem"):
        ...

Design constraints, mirrored from production tracers:

* **Disabled mode is a no-op.**  ``span()`` performs a single boolean
  check and returns a shared, stateless context manager; nothing is
  allocated, timed, or buffered.  Hot paths can therefore stay
  instrumented unconditionally.
* **Thread-safe buffering.**  Finished spans append to one buffer under a
  lock; per-thread nesting depth lives in thread-local state, so spans
  from concurrent threads interleave without corrupting nesting.
* **Nesting.**  Spans carry their depth and the enclosing span's name,
  enough to reconstruct the tree (Chrome's flame view stacks by
  ts/dur containment per tid, which nesting guarantees).

Timestamps are microseconds from ``time.perf_counter_ns`` relative to the
tracer's epoch, the same unit the task-graph simulator uses, so functional
and simulated timelines open side by side in one Perfetto session.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

#: Active span sink for the current thread/task (None = no scope).
#: While a sink is set, spans record even if the tracer is globally
#: disabled — ``repro.run.execute_spec`` uses this to collect one run's
#: spans without turning on process-wide tracing.
_SCOPE: "ContextVar[list | None]" = ContextVar("repro_tracer_scope", default=None)


@dataclass(frozen=True)
class Span:
    """One finished span: a named [ts, ts+dur) interval on a thread."""

    name: str
    cat: str
    ts_us: float
    dur_us: float
    pid: int
    tid: int
    depth: int
    parent: str | None = None
    args: dict = field(default_factory=dict)


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ThreadState:
    __slots__ = ("stack", "tid")

    def __init__(self, tid: int):
        self.stack: list[str] = []
        self.tid = tid


class _SpanHandle:
    """Live span: records its window on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start_ns", "_parent")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        st = self._tracer._thread_state()
        self._parent = st.stack[-1] if st.stack else None
        st.stack.append(self._name)
        self._start_ns = time.perf_counter_ns()
        return self

    def set(self, **args) -> None:
        """Attach args only known once the spanned work has run."""
        self._args.update(args)

    def __exit__(self, *exc) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        st = tracer._thread_state()
        if st.stack and st.stack[-1] == self._name:
            st.stack.pop()
        tracer._record(
            Span(
                name=self._name,
                cat=self._cat,
                ts_us=(self._start_ns - tracer._epoch_ns) / 1000.0,
                dur_us=(end_ns - self._start_ns) / 1000.0,
                pid=tracer.pid,
                tid=st.tid,
                depth=len(st.stack),
                parent=self._parent,
                args=self._args,
            )
        )
        return False


class Tracer:
    """Buffering span tracer; one instance is usually enough per process."""

    def __init__(self, enabled: bool = False, pid: int = 0):
        self.enabled = enabled
        self.pid = pid
        self._epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._buffer: list[Span] = []
        self._tls = threading.local()
        self._tids: dict[int, int] = {}

    # -- recording ------------------------------------------------------------

    def span(self, name: str, cat: str = "", **args) -> "_SpanHandle | _NoopSpan":
        """Open a span context; the single-boolean-check fast path."""
        if not self.enabled and _SCOPE.get() is None:
            return _NOOP_SPAN
        return _SpanHandle(self, name, cat, args)

    def instant(self, name: str, cat: str = "", **args) -> None:
        """Record a zero-duration marker at the current time."""
        if not self.enabled and _SCOPE.get() is None:
            return
        st = self._thread_state()
        self._record(
            Span(
                name=name,
                cat=cat,
                ts_us=(time.perf_counter_ns() - self._epoch_ns) / 1000.0,
                dur_us=0.0,
                pid=self.pid,
                tid=st.tid,
                depth=len(st.stack),
                parent=st.stack[-1] if st.stack else None,
                args=args,
            )
        )

    def _thread_state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            ident = threading.get_ident()
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
            st = self._tls.state = _ThreadState(tid)
        return st

    def _record(self, span: Span) -> None:
        sink = _SCOPE.get()
        if sink is not None:
            sink.append(span)
        if not self.enabled:
            return
        with self._lock:
            self._buffer.append(span)

    @contextmanager
    def scope(self, sink: list | None = None):
        """Collect this thread/task's spans into ``sink`` (a plain list).

        Recording into a scope works even while the tracer is globally
        disabled, so one run can collect its own spans without
        enabling process-wide tracing.  Yields the sink.
        """
        if sink is None:
            sink = []
        token = _SCOPE.set(sink)
        try:
            yield sink
        finally:
            _SCOPE.reset(token)

    # -- control / access -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the finished-span buffer (append order = end order)."""
        with self._lock:
            return list(self._buffer)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def find(self, name_prefix: str) -> list[Span]:
        """Recorded spans whose name starts with ``name_prefix``."""
        return [s for s in self.spans if s.name.startswith(name_prefix)]


#: The process-wide tracer every instrumentation site uses.  Disabled by
#: default: an un-profiled run pays one boolean check per span site.
TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return TRACER
