"""Job records and lifecycle states for the serve engine.

A job is one :class:`~repro.spec.SimulationSpec` in flight.  Its
lifecycle is a small one-way machine::

    queued -> running -> done
                     \\-> failed      (after retries are exhausted)
                      \\-> cancelled  (cancel() before/while running)
              ^       |
              +-------+  requeued when a pool worker died underneath it

Worker death (the process executor losing a worker mid-run) is the one
*retryable* failure class: the spec is deterministic, so re-running it on
a healthy pool is always safe.  Everything else — violations, diverged
trajectories, bad specs — is a real answer and fails the job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.spec import SimulationSpec

#: Lifecycle states a job moves through (one-way, except the retry loop).
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States from which a job will never move again.
TERMINAL = ("done", "failed", "cancelled")


class JobCancelled(Exception):
    """Raised inside a job body when its cancel event is set."""


@dataclass
class Job:
    """One submitted spec with its lifecycle bookkeeping.

    ``cancel_event`` is checked by the runner between steps; ``finished``
    is set exactly once, on entry to any terminal state, and is what
    blocking waiters (``JobEngine.result``) sleep on.
    """

    id: str
    spec: SimulationSpec
    state: str = "queued"
    result: dict | None = None
    error: str | None = None
    attempts: int = 0
    max_attempts: int = 2
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    finished: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def finish(self, state: str, *, result: dict | None = None, error: str | None = None) -> None:
        """Move to a terminal state and wake every waiter."""
        assert state in TERMINAL, state
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.finished.set()

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped status view (what ``status`` RPC calls return)."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "spec": self.spec.to_dict(),
        }
