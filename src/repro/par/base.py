"""The rank-executor abstraction: how per-rank work gets scheduled.

The DD engine expresses every per-rank loop as a named *phase* (see
:mod:`repro.par.phases`) and delegates execution to a
:class:`RankExecutor`.  Two registered implementations ship:

* ``serial`` — ranks in order, in the calling thread.  The bit-exactness
  reference and the default.
* ``process`` — a persistent worker-process pool with the cluster arrays
  in POSIX shared memory; ranks run truly concurrently and only index
  arrays cross process boundaries.  The faithful stand-in for
  one-GPU-per-rank execution.

Executor lifecycle, as driven by the engine::

    executor.configure(cfg, n_ranks)      # once per simulator
    arrays = executor.bind(fields, ns)    # each neighbour search
    results = executor.run("pairs")       # then "forces_local", "integrate", ...
    executor.close()

The executor binds, the backend exchanges in place: ``bind`` returns the
per-rank arrays the ranks compute on — the caller's own (serial) or
views of the shared-memory arena (process) — and the engine installs
them into the ``ClusterState`` *before* binding the halo backend, which
must never replace them (:class:`repro.comm.base.HaloBackend`).  Every
rank array therefore has exactly one home; nothing is copied between
parent, workers and backend after ``bind``.

Contract: after ``run(phase)`` returns, the installed arrays hold every
rank's writes; results are ordered by rank.  Every ``run`` is bracketed
by ``executor.dispatch`` / ``executor.barrier`` tracer spans, so exposed
serialization (time the parent spends waiting on stragglers) shows up
directly in span-based cycle accounting.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.par.phases import FIELDS, PHASES, RankConfig, RankNsData

#: Chaos instrumentation point (see :mod:`repro.chaos`): when set,
#: executors call ``phase_chaos(phase, rank)`` before running a rank's
#: phase, letting fault plans perturb per-rank timing (a slow rank, a late
#: worker) without changing any executor API.  The serial executor calls
#: it inside the rank's timed window (a sleep cannot change a result), the
#: process executor at parent-side dispatch.  ``None`` in production.
phase_chaos: Callable[[str, int], None] | None = None


class RankExecutor(ABC):
    """Schedules per-rank phases over the cluster's rank set."""

    name: str = "abstract"

    def __init__(self) -> None:
        self._cfg: RankConfig | None = None
        self.n_ranks: int = 0
        self._bound = False

    # -- lifecycle ------------------------------------------------------------

    def configure(self, cfg: RankConfig, n_ranks: int) -> None:
        """Install simulator-lifetime state; called once, before bind."""
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self._cfg = cfg
        self.n_ranks = n_ranks
        self._rank_us_acc = np.zeros(n_ranks, dtype=np.float64)

    # -- per-rank load accounting ---------------------------------------------

    def _note_rank_us(self, rank: int, us: float) -> None:
        """Accumulate one rank's phase wall time (called at observe sites).

        The ``par.rank_us`` histogram aggregates away rank identity;
        this keeps the per-rank totals the dynamic load balancer needs.
        """
        self._rank_us_acc[rank] += us

    def drain_rank_us(self) -> np.ndarray:
        """Per-rank accumulated phase wall time (µs) since the last drain.

        Returns a copy and resets the accumulator — the engine drains
        once per neighbour-search interval to feed ``dlb="measured"``.
        """
        out = self._rank_us_acc.copy()
        self._rank_us_acc[:] = 0.0
        return out

    @abstractmethod
    def bind(
        self,
        fields: list[dict[str, np.ndarray]],
        ns: list[RankNsData],
    ) -> list[dict[str, np.ndarray]]:
        """(Re)attach to per-rank arrays after a neighbour search.

        ``fields`` holds one dict per rank keyed by
        :data:`repro.par.phases.FIELDS`.  Returns, per rank and under the
        same keys, the arrays the ranks will compute on — ``fields``
        itself or arrays holding the same values — which the caller must
        use from here on in place of what it passed in.
        """

    def close(self) -> None:
        """Release pools/workers/shared memory.  Idempotent."""

    def __enter__(self) -> "RankExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- execution ------------------------------------------------------------

    def run(self, phase: str) -> list[Any]:
        """Run ``phase`` on every rank; results in rank order.

        Dispatch (hand work to the pool) and barrier (wait for the last
        rank) are traced separately: barrier time is the exposed
        serialization the cycle-accounting table attributes to the
        executor.
        """
        if phase not in PHASES:
            raise KeyError(f"unknown phase '{phase}', available: {sorted(PHASES)}")
        if not self._bound:
            raise RuntimeError("bind() must run before executing phases")
        with TRACER.span(
            "executor.dispatch", cat="executor", executor=self.name, phase=phase
        ):
            token = self._dispatch(phase)
        with TRACER.span(
            "executor.barrier", cat="executor", executor=self.name, phase=phase
        ):
            results = self._collect(phase, token)
        METRICS.counter("par.phases", executor=self.name, phase=phase).inc()
        return results

    def run_forces_overlapped(
        self, exchange: Callable[[], None], overlap: bool = True
    ) -> tuple[list[Any], list[Any]]:
        """Run the split force phases around a coordinate halo exchange.

        ``exchange()`` must perform the coordinate halo exchange.  Returns
        the per-rank results of the ``forces_local`` and
        ``forces_nonlocal`` phases.

        The base implementation is the *strict* schedule — local forces,
        then the full exchange, then non-local forces, with no overlap —
        and is the bit-exactness reference.  Concurrent executors
        override it to run the local half during the exchange and
        dispatch the non-local half once it returns.  No backend can
        tell a rank's inbound halo complete before the whole exchange is
        (the NVSHMEM one knows only after ``quiet``), so the non-local
        half is released for every rank at once.
        """
        local = self.run("forces_local")
        t0 = time.perf_counter()
        exchange()
        halo_s = time.perf_counter() - t0
        nonlocal_ = self.run("forces_nonlocal")
        self._observe_overlap(halo_s, 0.0)
        return local, nonlocal_

    def _observe_overlap(self, halo_s: float, hidden_s: float) -> None:
        """Record the halo wall time and how much of it compute covered."""
        METRICS.histogram("par.overlap.halo_us", executor=self.name).observe(
            halo_s * 1e6
        )
        METRICS.histogram("par.overlap.hidden_us", executor=self.name).observe(
            hidden_s * 1e6
        )

    @abstractmethod
    def _dispatch(self, phase: str) -> Any:
        """Start the phase on all ranks; return a completion token."""

    @abstractmethod
    def _collect(self, phase: str, token: Any) -> list[Any]:
        """Wait for completion; return per-rank results in rank order."""

    def publish(self, names: Sequence[str]) -> None:
        """Inert: parent and workers share every array, nothing to copy.

        Kept only because the frozen ``bench/spans.py`` wraps it for the
        ``par.publish_ms`` row (which now reads ~0); a later ``benchmark``
        PR drops that row and this method together.
        """

    # -- helpers for subclasses ----------------------------------------------

    def _check_fields(self, fields: list[dict[str, np.ndarray]]) -> None:
        if self._cfg is None:
            raise RuntimeError("configure() must run before bind()")
        if len(fields) != self.n_ranks:
            raise ValueError(
                f"bind() got {len(fields)} ranks, configured for {self.n_ranks}"
            )
        for per_rank in fields:
            missing = [n for n in FIELDS if n not in per_rank]
            if missing:
                raise KeyError(f"bind() fields missing {missing}")


# -- registry -----------------------------------------------------------------


executor_registry: dict[str, Callable[..., RankExecutor]] = {}


def register_executor(name: str) -> Callable:
    """Class decorator adding an executor to the registry."""

    def deco(cls):
        executor_registry[name] = cls
        cls.name = name
        return cls

    return deco


def make_executor(name: str, **kwargs) -> RankExecutor:
    """Instantiate a registered executor by name."""
    try:
        factory = executor_registry[name]
    except KeyError:
        raise KeyError(
            f"unknown executor '{name}', available: {sorted(executor_registry)}"
        ) from None
    return factory(**kwargs)
