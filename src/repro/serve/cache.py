"""Cross-job artifact cache keyed by system hash.

Jobs that share a :meth:`SimulationSpec.system_key` start from
bit-identical physical state, so the expensive derived artifacts of run
setup are shareable:

* ``system`` — the seeded :class:`repro.md.system.MDSystem` template
  (each job receives a deep copy, never the template);
* ``grid`` — the :func:`repro.dd.grid.choose_grid` result (immutable);
* ``cluster0`` — the step-0 :class:`repro.dd.exchange.ClusterState`: the
  DD plan with its halo ``PulseData`` and the materialized per-rank
  arrays (cloned per job, with the plan deep-copied because backends may
  attach to it);
* ``perf_model`` — :func:`repro.perf.model.simulate_step` evaluations
  (pure timing results, shared as-is).

Hits and misses publish as ``serve.cache.hits`` / ``serve.cache.misses``
counters labelled by artifact kind, which is how the serve smoke test
(and the ``repro report`` service-health section) proves the cache is
actually working.  Correctness is guarded end to end: cached-path
trajectories must stay bit-identical to the cold path, and the test
suite checks exactly that.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable

from repro.obs.metrics import METRICS


class ArtifactCache:
    """Thread-safe ``get_or_build`` cache for derived run artifacts.

    Builders run under the lock, so concurrent jobs asking for the same
    artifact build it exactly once (the second job blocks briefly and
    takes the hit) — the behaviour a shared-resource scheduler wants for
    expensive, deterministic state.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: dict[tuple, Any] = {}

    # -- generic core ---------------------------------------------------------

    def get_or_build(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, building it on miss."""
        kind = key[0]
        with self._lock:
            if key in self._entries:
                METRICS.counter("serve.cache.hits", kind=kind).inc()
                return self._entries[key]
            METRICS.counter("serve.cache.misses", kind=kind).inc()
            value = builder()
            if len(self._entries) >= self.max_entries:
                # Simple FIFO eviction; artifact reuse is bursty, not LRU-shaped.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value
            METRICS.gauge("serve.cache.entries").set(len(self._entries))
            return value

    def stats(self) -> dict:
        with self._lock:
            n = len(self._entries)
        hits = sum(
            m.value for name, _, m in METRICS.collect("serve.cache.hits")
        )
        misses = sum(
            m.value for name, _, m in METRICS.collect("serve.cache.misses")
        )
        return {"entries": n, "hits": hits, "misses": misses}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- spec-shaped helpers ---------------------------------------------------

    def system_template(self, spec, ff):
        """A private copy of the seeded system for this spec's system key."""
        import numpy as np

        from repro.md.inhomogeneous import make_system

        template = self.get_or_build(
            ("system", spec.system_key()),
            lambda: make_system(
                spec.system, seed=spec.seed, ff=ff, dtype=np.float64
            ),
        )
        return template.copy()

    def grid_for(self, spec, system, ff):
        """The chosen DD grid for this spec (shared; grids are immutable)."""
        from repro.dd.grid import DDGrid, choose_grid

        if spec.shape is not None:
            return DDGrid(tuple(spec.shape))
        r_comm = ff.cutoff + spec.buffer
        key = (
            "grid",
            spec.system_key(),
            spec.ranks,
            round(r_comm, 12),
            spec.max_pulses,
        )
        return self.get_or_build(
            key,
            lambda: choose_grid(
                spec.ranks, system.box, r_comm, max_pulses=spec.max_pulses
            ),
        )

    def cluster_factory(self, spec):
        """A ``DDSimulator.cluster_factory`` serving step-0 builds from cache.

        The step-0 decomposition (DD plan, halo ``PulseData``, per-rank
        arrays) is a pure function of the system key and the grid knobs,
        so the first job builds it and every later job on the same system
        clones it.  Later neighbour searches (positions have moved) always
        rebuild normally.
        """
        from repro.dd.exchange import build_cluster

        def factory(sim):
            if sim.step_count != 0 or sim.cluster is not None:
                return build_cluster(sim.system, sim.dd, trim_corners=sim.trim_corners)
            # The kernel name and dtype are part of the key even though
            # today's snapshot holds only pre-pair-search state: kernels
            # are free to specialize what build_cluster materializes
            # (layouts, array dtypes), and a "cluster" job must never
            # replay a snapshot a "segment" job built.  A stale-keyed
            # replay would be silent — trajectories diverge only when the
            # snapshot shape drifts — so the key is defensive by design.
            key = (
                "cluster0",
                spec.system_key(),
                sim.grid.shape,
                round(sim.dd.r_comm, 12),
                sim.dd.max_pulses,
                sim.trim_corners,
                spec.kernel,
                spec.kernel_dtype,
                # DLB-planned decompositions stage extra pulses from step 0
                # (npulses rises to the max_pulses cap), so their plans are
                # not interchangeable with uniform-grid ones.
                spec.dlb != "off",
            )
            snapshot = self.get_or_build(
                key, lambda: _snapshot_cluster(sim)
            )
            return _clone_cluster(snapshot, sim)

        return factory

    def perf_model(self, spec, machine_name: str = "dgx-h100"):
        """Modeled step timings for this spec's (system, ranks, backend).

        Returns ``None`` when the configuration has no grappa workload
        mapping (odd rank counts) or the backend has no timing model.
        """
        key = ("perf_model", spec.n_atoms, spec.n_ranks, spec.backend, machine_name)

        def build():
            from repro.perf.machines import machine_by_name
            from repro.perf.model import simulate_step
            from repro.perf.workload import grappa_workload

            backend = spec.backend if spec.backend in ("mpi", "nvshmem", "threadmpi") else "nvshmem"
            try:
                machine = machine_by_name(machine_name)
                wl = grappa_workload(spec.n_atoms, spec.n_ranks, machine)
                _, t = simulate_step(wl, machine, backend=backend)
            except (ValueError, KeyError):
                return None
            return {
                "machine": machine_name,
                "backend": backend,
                "time_per_step_us": t.time_per_step,
                "local_us": t.local_work,
                "nonlocal_us": t.nonlocal_work,
                "non_overlap_us": t.non_overlap,
            }

        return self.get_or_build(key, build)


#: The ClusterState array fields materialized per rank.
_CLUSTER_ARRAYS = (
    "local_pos",
    "local_vel",
    "local_forces",
    "local_types",
    "local_charges",
    "local_masses",
)


def _snapshot_cluster(sim) -> dict:
    """Build the step-0 cluster for ``sim`` and keep a detached snapshot.

    The freshly built cluster is returned to the *snapshot* (cache) —
    the caller clones it right back out — so the cache never aliases a
    live simulation's arrays.
    """
    from repro.dd.exchange import build_cluster

    cluster = build_cluster(sim.system, sim.dd, trim_corners=sim.trim_corners)
    return {
        "plan": copy.deepcopy(cluster.plan),
        "arrays": {
            name: [a.copy() for a in getattr(cluster, name)]
            for name in _CLUSTER_ARRAYS
        },
        # build_cluster wraps positions in place; record the wrapped state
        # so cache hits can restore the exact same starting point.
        "positions": sim.system.positions.copy(),
    }


def _clone_cluster(snapshot: dict, sim):
    """A private ClusterState for ``sim`` from a cached snapshot."""
    from repro.dd.exchange import ClusterState

    # The cold path ran system.wrap() inside build_cluster; replay its
    # effect so the owning system agrees with the cluster bit for bit.
    sim.system.positions[...] = snapshot["positions"]
    return ClusterState(
        system=sim.system,
        dd=sim.dd,
        plan=copy.deepcopy(snapshot["plan"]),
        **{
            name: [a.copy() for a in arrays]
            for name, arrays in snapshot["arrays"].items()
        },
    )
