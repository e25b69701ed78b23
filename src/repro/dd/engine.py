"""The domain-decomposed MD engine.

Runs the same physics as :class:`repro.md.reference.ReferenceSimulator`, but
distributed over the ranks of a :class:`DomainDecomposition` with halo
exchange delegated to a pluggable communication backend (reference
serialized, or NVSHMEM-style fused — see :mod:`repro.comm`) and per-rank
work scheduled through a pluggable
:class:`~repro.par.base.RankExecutor` (serial, or a true-parallel process
pool over shared memory — see :mod:`repro.par`).  Trajectories must
match the serial reference to floating-point accumulation order, and must be
bit-identical across executors; the test suite enforces both.

The per-rank loops of the old engine (pair search, forces, integration) now
live in :mod:`repro.par.phases` as named phases the executor runs; the
engine's job is sequencing phases against halo exchanges.  At every
neighbour search the executor binds first and its arrays are installed into
the ``ClusterState``; the backend binds second and exchanges in place, so
each rank array has one owner and nothing is copied between the two.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.dd.decomposition import DomainDecomposition
from repro.dd.dlb import DLB_MODES, DlbController
from repro.dd.exchange import ClusterState, build_cluster, gather_forces
from repro.dd.grid import DDGrid, choose_grid
from repro.md import kernels
from repro.md.forcefield import ForceField, default_forcefield
from repro.md.inhomogeneous import make_system
from repro.md.integrator import LeapFrogIntegrator
from repro.md.reference import StepEnergies
from repro.md.system import MDSystem
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.par.phases import FIELDS, RankConfig, RankNsData

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.comm.base import HaloBackend
    from repro.par.base import RankExecutor
    from repro.spec import SimulationSpec


def resolve_backend_executor(
    backend: "HaloBackend | str | None" = None,
    executor: "RankExecutor | str | None" = None,
    *,
    backend_kwargs: dict | None = None,
    executor_kwargs: dict | None = None,
) -> "tuple[HaloBackend, RankExecutor]":
    """Resolve halo-backend and rank-executor registry names to instances.

    The single place registry names become objects: instances pass
    through untouched, ``None`` picks the defaults (``"reference"`` /
    ``"serial"``), and an unknown name raises one actionable
    :class:`ValueError` naming both registries — every entry point
    (engine, CLI, bench, harness) routes through here so the error reads
    the same everywhere.
    """
    from repro.comm import backend_registry, make_backend
    from repro.par import executor_registry, make_executor

    if backend is None:
        backend = "reference"
    if isinstance(backend, str):
        if backend not in backend_registry:
            raise ValueError(
                f"unknown backend '{backend}': available backends are "
                f"{', '.join(sorted(backend_registry))}; available executors are "
                f"{', '.join(sorted(executor_registry))} (pass a registry name "
                f"or an instance)"
            )
        backend = make_backend(backend, **(backend_kwargs or {}))
    if executor is None:
        executor = "serial"
    if isinstance(executor, str):
        if executor not in executor_registry:
            raise ValueError(
                f"unknown executor '{executor}': available executors are "
                f"{', '.join(sorted(executor_registry))}; available backends are "
                f"{', '.join(sorted(backend_registry))} (pass a registry name "
                f"or an instance)"
            )
        executor = make_executor(executor, **(executor_kwargs or {}))
    return backend, executor


@dataclass
class RankWorkload:
    """Per-rank work statistics for one neighbour-search interval.

    These feed the performance model: local pairs drive the local non-bonded
    kernel, non-local pairs the non-local kernel, and the pulse sizes the
    communication volumes.  Pair counts are the search's outer lists.
    """

    rank: int
    n_home: int
    n_halo: int
    n_pairs_local: int
    n_pairs_nonlocal: int
    pulse_send_sizes: list[int]
    #: Non-local pairs grouped by the latest pulse they depend on (the
    #: ``depOffset`` partition) — sums to ``n_pairs_nonlocal``.
    pulse_pair_counts: list[int] = field(default_factory=list)
    #: Standing pair-list footprint after the search (both outer lists
    #: plus the inner blocks pruned from them), bytes.
    pairlist_bytes: int = 0
    #: Search-structure footprint (cell grid / cluster layouts), bytes.
    cells_bytes: int = 0
    #: Peak build working set on this rank: transient chunks + standing
    #: structures.  ``build_peak_bytes / (n_home + n_halo)`` is the
    #: bytes/atom number the CI scale job asserts a cap on.
    build_peak_bytes: int = 0


@dataclass
class DDSimulator:
    """Multi-rank MD driver over an in-process cluster.

    ``backend`` and ``executor`` accept either instances or registry names
    (``make_backend`` / ``make_executor`` strings such as ``"nvshmem"`` and
    ``"process"``); they and the tuning knobs are keyword-only so
    positional misuse fails loudly.  This constructor is the
    injected-objects form; everything name-based goes through
    :meth:`from_spec`.
    """

    system: MDSystem
    ff: ForceField
    n_ranks: int = 0
    grid: DDGrid | None = None
    _: KW_ONLY
    backend: HaloBackend | str | None = None
    executor: RankExecutor | str | None = None
    nstlist: int = 20
    buffer: float = 0.1
    dt: float = 0.002
    trim_corners: bool = False
    max_pulses: int = 1
    #: Overlap the coordinate halo with the local force phase (the paper's
    #: comm–compute overlap).  ``False`` forces the strict schedule on
    #: every executor: local forces, full exchange, non-local forces.
    overlap_comm: bool = True
    #: There is one pair search, the M×N cluster-pair search of
    #: :func:`repro.md.kernels.build_split`; this keyword accepts only
    #: its name, ``"cluster"``, and any other value raises.  It is kept
    #: (with ``ReferenceSimulator.kernel``, which is accepted and
    #: ignored) only because the frozen benchmark passes it: both go
    #: with ROADMAP item 6.
    kernel: str = "cluster"
    #: Kernel compute precision: "float64" (default, bit-exact reference)
    #: or "float32" (the mixed-precision fast path).
    kernel_dtype: str = "float64"
    #: Dynamic load balancing mode (:data:`repro.dd.dlb.DLB_MODES`).
    #: Resizing happens only immediately before a neighbour search, so
    #: every boundary move is followed by full redistribution + list
    #: rebuilds by construction.
    dlb: str = "off"
    topology: "object | None" = None
    #: Optional hook replacing :func:`repro.dd.exchange.build_cluster` at
    #: neighbour search: called as ``cluster_factory(sim)`` and must return
    #: a fresh :class:`ClusterState` for the current positions
    #: (``bench/workloads.py`` routes the engine's rebuilds through it).
    cluster_factory: "Callable[[DDSimulator], ClusterState] | None" = None
    step_count: int = 0
    energies: list[StepEnergies] = field(default_factory=list)

    def __post_init__(self) -> None:
        r_comm = self.ff.cutoff + self.buffer
        if self.grid is None:
            if self.n_ranks < 1:
                raise ValueError("provide either grid or a positive n_ranks")
            self.grid = choose_grid(
                self.n_ranks, self.system.box, r_comm, max_pulses=self.max_pulses
            )
        self.n_ranks = self.grid.n_ranks
        if self.dlb not in DLB_MODES:
            raise ValueError(
                f"unknown dlb mode '{self.dlb}': use one of {DLB_MODES}"
            )
        self.dd = DomainDecomposition(
            grid=self.grid, box=self.system.box, r_comm=r_comm,
            max_pulses=self.max_pulses, dlb=self.dlb != "off",
        )
        if self.kernel != "cluster":
            raise ValueError(
                f"unknown kernel '{self.kernel}': there is one pair search, "
                "'cluster'"
            )
        # An unknown dtype or a missing compiler fails here, at
        # construction, not mid-run inside an executor worker.
        kernels.load(self.kernel_dtype)
        self.backend, _executor = resolve_backend_executor(self.backend, self.executor)
        self._integrator = LeapFrogIntegrator(dt=self.dt)
        self._periodic = np.array([self.grid.shape[d] == 1 for d in range(3)])
        self._dlb = DlbController(self.dd) if self.dlb != "off" else None
        self.executor = _executor
        self.executor.configure(
            RankConfig(
                ff=self.ff,
                dtype=self.kernel_dtype,
                integrator=self._integrator,
                box=self.dd.box,
                periodic=self._periodic,
                r_comm=self.dd.r_comm,
            ),
            self.n_ranks,
        )
        self.cluster: ClusterState | None = None
        self._pair_stats: list[dict] = []
        #: Largest squared home-atom displacement since the last search,
        #: over all ranks (what ``integrate`` reports).
        self._max_disp2 = 0.0
        self.workloads: list[RankWorkload] = []

    @property
    def dlb_adjustments(self) -> int:
        """Accepted DLB boundary moves so far (0 with DLB off)."""
        return 0 if self._dlb is None else self._dlb.adjustments

    # -- spec construction ----------------------------------------------------

    @classmethod
    def from_spec(cls, spec: "SimulationSpec") -> "DDSimulator":
        """Build a simulator from a :class:`repro.spec.SimulationSpec`.

        The only place names become objects: the system label, the
        backend/executor registry names and the grid shape are built
        here, and every knob the spec and this class both declare is
        passed through by field name (``spec.knobs_for``).
        """
        ff = default_forcefield(cutoff=spec.cutoff)
        system = make_system(spec.system, seed=spec.seed, ff=ff, dtype=np.float64)
        backend_kwargs: dict = {}
        if spec.backend == "nvshmem":
            backend_kwargs["seed"] = spec.seed
            if spec.pes_per_node:
                backend_kwargs["pes_per_node"] = spec.pes_per_node
        backend, executor = resolve_backend_executor(
            spec.backend, spec.executor, backend_kwargs=backend_kwargs
        )
        return cls(
            system,
            ff,
            n_ranks=spec.ranks,
            grid=DDGrid(tuple(spec.shape)) if spec.shape is not None else None,
            backend=backend,
            executor=executor,
            **spec.knobs_for(cls),
        )

    # -- executor binding -----------------------------------------------------

    def _bind_executor(self) -> None:
        """Hand the fresh cluster arrays to the executor and install its own.

        Runs *before* ``backend.bind``: whatever the executor returns
        (the same arrays, or views of its shared-memory arena) becomes
        ``cluster.local_*``, so the backend binds to — and exchanges in
        place on — the memory the ranks compute on.
        """
        cluster = self.cluster
        fields = [
            {name: getattr(cluster, f"local_{name}")[r] for name in FIELDS}
            for r in range(self.n_ranks)
        ]
        ns = [
            RankNsData(
                rank=r,
                n_home=rp.n_home,
                zone_shift=rp.zone_shift,
                bonded=self._bonded[r] if self._bonded else None,
                src_pulse=rp.src_pulse,
                n_pulses=cluster.plan.n_pulses,
            )
            for r, rp in enumerate(cluster.plan.ranks)
        ]
        for r, arrays in enumerate(self.executor.bind(fields, ns)):
            for name in FIELDS:
                getattr(cluster, f"local_{name}")[r] = arrays[name]

    # -- neighbour search ---------------------------------------------------

    def neighbor_search(self) -> None:
        """Full redistribution: wrap, reassign atoms, rebuild plan and lists.

        Also rebinds the executor, then the halo backend, to the fresh
        cluster and runs the per-rank pair-search phase through the executor.
        """
        if self.cluster_factory is not None:
            self.cluster = self.cluster_factory(self)
        else:
            self.cluster = build_cluster(
                self.system, self.dd, trim_corners=self.trim_corners
            )
        self._assign_bonded()
        self._bind_executor()
        self.backend.bind(self.cluster)
        self._pair_stats = self.executor.run("pairs")
        self._max_disp2 = 0.0
        self.workloads = []
        for r, plan in enumerate(self.cluster.plan.ranks):
            stats = self._pair_stats[r]
            self.workloads.append(
                RankWorkload(
                    rank=r,
                    n_home=plan.n_home,
                    n_halo=plan.n_halo,
                    n_pairs_local=stats["n_local"],
                    n_pairs_nonlocal=stats["n_nonlocal"],
                    pulse_send_sizes=[p.send_size for p in plan.pulses],
                    pulse_pair_counts=stats["pulse_pairs"],
                    pairlist_bytes=stats["pairlist_bytes"],
                    cells_bytes=stats["cells_bytes"],
                    build_peak_bytes=stats["build_peak_bytes"],
                )
            )
        METRICS.counter("dd.ns_builds").inc()
        METRICS.gauge("dd.pairs_local").set(sum(w.n_pairs_local for w in self.workloads))
        METRICS.gauge("dd.pairs_nonlocal").set(
            sum(w.n_pairs_nonlocal for w in self.workloads)
        )
        METRICS.gauge("dd.halo_atoms").set(sum(w.n_halo for w in self.workloads))
        # Tile fill of the cluster search.
        for key in ("candidates", "tiles"):
            METRICS.gauge(f"md.pairsearch.{key}").set(
                sum(stats[f"n_{key}"] for stats in self._pair_stats)
            )
        # Build-memory gauges: totals across ranks for the standing
        # structures, per-rank max for the peaks (ranks build
        # concurrently only on multi-core hosts; the per-rank peak is the
        # number the bytes/atom budget constrains either way).
        METRICS.gauge("md.pairlist.bytes").set(
            sum(w.pairlist_bytes for w in self.workloads)
        )
        METRICS.gauge("md.cells.bytes").set(
            sum(w.cells_bytes for w in self.workloads)
        )
        METRICS.gauge("md.build.peak_bytes").set(
            max((w.build_peak_bytes for w in self.workloads), default=0)
        )
        METRICS.gauge("md.build.peak_bytes_per_atom").set(
            max(
                (
                    w.build_peak_bytes / max(w.n_home + w.n_halo, 1)
                    for w in self.workloads
                ),
                default=0.0,
            )
        )
        for w in self.workloads:
            for size in w.pulse_send_sizes:
                METRICS.histogram("dd.pulse_send_atoms").observe(size)

    def _assign_bonded(self) -> None:
        """Rank-local bonded lists by the zone rule (exactly-once assignment).

        A bonded interaction is computed on the rank where every member is
        visible and the elementwise minimum of the members' zone shifts is
        zero — the same rule as non-bonded pairs, valid because all members
        lie within the communication cutoff of each other.
        """
        self._bonded = []
        if self.topology is None:
            return
        top = self.topology
        n = self.system.n_atoms
        for rp in self.cluster.plan.ranks:
            g2l = np.full(n, -1, dtype=np.int64)
            g2l[rp.global_ids] = np.arange(rp.n_local)
            zs = rp.zone_shift

            def claim(members):
                loc = g2l[members]
                ok = np.all(loc >= 0, axis=1)
                if np.any(ok):
                    sh = np.stack([zs[loc[ok][:, c]] for c in range(members.shape[1])], axis=0)
                    ok2 = np.all(sh.min(axis=0) == 0, axis=1)
                    full = np.zeros(members.shape[0], dtype=bool)
                    full[np.nonzero(ok)[0][ok2]] = True
                    return full, loc
                return np.zeros(members.shape[0], dtype=bool), loc

            b_ok, b_loc = claim(top.bonds)
            a_ok, a_loc = claim(top.angles)
            bonds = b_loc[b_ok]
            bond_r0 = top.bond_r0[b_ok]
            bond_k = top.bond_k[b_ok]
            angles = a_loc[a_ok]
            angle_t0 = top.angle_theta0[a_ok]
            angle_k = top.angle_k[a_ok]
            # Home/halo split for the overlapped force phases: a term goes
            # in ``forces_local`` only when every member is a home atom.
            b_home = np.all(bonds < rp.n_home, axis=1)
            a_home = np.all(angles < rp.n_home, axis=1)

            def pkg(bm, am):
                return {
                    "bonds": bonds[bm],
                    "bond_r0": bond_r0[bm],
                    "bond_k": bond_k[bm],
                    "angles": angles[am],
                    "angle_theta0": angle_t0[am],
                    "angle_k": angle_k[am],
                }

            self._bonded.append(
                {
                    # Flat views of everything this rank claimed (back-compat
                    # for workload accounting); home/halo carry the split.
                    "bonds": bonds,
                    "angles": angles,
                    "mol": top.molecule_of[rp.global_ids],
                    "home": pkg(b_home, a_home),
                    "halo": pkg(~b_home, ~a_home),
                }
            )

    def _needs_ns(self) -> bool:
        """``nstlist`` elapsed, or some atom moved more than buffer/2
        since the search (two atoms can then close a whole buffer)."""
        if self.cluster is None or self.step_count % self.nstlist == 0:
            return True
        return math.sqrt(self._max_disp2) > 0.5 * self.buffer

    # -- forces ---------------------------------------------------------------

    def _exchange_coordinates_overlapped(self) -> None:
        """Coordinate halo between the two force halves."""
        with TRACER.span(
            "dd.halo_x", cat="comm", backend=getattr(self.backend, "name", "?")
        ):
            self.backend.exchange_coordinates(self.cluster)
        # Inert (the backend wrote into the executor's own arrays): called
        # only so the frozen benchmark's ``par.publish`` span still exists;
        # goes away together with ``RankExecutor.publish``.
        self.executor.publish(("pos",))

    def compute_forces(self) -> tuple[float, float, float]:
        """Split force phases around the coordinate halo, then the force halo.

        ``forces_local`` needs no halo data, so the process executor runs it
        *during* the coordinate exchange and dispatches every rank's
        ``forces_nonlocal`` once the exchange returns.  The
        serial executor (and ``overlap_comm=False``) keeps the strict
        order — local, exchange, non-local — as the bit-exactness
        reference.

        Returns globally summed (E_lj, E_coulomb, E_bonded); each pair
        contributes on exactly one rank and the partial energies are
        summed in fixed rank order (local half then non-local half), so
        the total is identical for every executor.  The halves also carry
        the inner pairs evaluated and the guard's re-prunes
        (``md.pairs_inner``, ``md.prune.count``).
        """
        cluster = self.cluster
        with TRACER.span("dd.forces", cat="force", ranks=self.n_ranks):
            local, nonloc = self.executor.run_forces_overlapped(
                self._exchange_coordinates_overlapped, overlap=self.overlap_comm
            )
        e_lj_total = 0.0
        e_coul_total = 0.0
        e_bonded_total = 0.0
        pairs_inner = prunes = 0
        for halves in zip(local, nonloc):
            for half in halves:
                e_coul_total += half.e_corr
                e_bonded_total += half.e_bonded
                e_lj_total += half.e_lj
                e_coul_total += half.e_coul
                pairs_inner += half.pairs
                prunes += half.pruned
        METRICS.gauge("md.pairs_inner").set(pairs_inner)
        METRICS.counter("md.prune.count").inc(prunes)
        with TRACER.span("dd.halo_f", cat="comm", backend=getattr(self.backend, "name", "?")):
            self.backend.exchange_forces(cluster)
        return e_lj_total, e_coul_total, e_bonded_total

    def gathered_forces(self) -> np.ndarray:
        """Global force array (for verification against the reference)."""
        return gather_forces(self.cluster)

    # -- stepping ---------------------------------------------------------------

    def _dlb_loads(self) -> np.ndarray | None:
        """Per-rank load signal for the DLB controller, or None if absent.

        ``"pairs"`` mode uses the last neighbour search's per-rank pair
        counts — a pure function of the trajectory, so identical runs
        (and the chaos bit-identity oracle) make identical resize
        decisions.  ``"measured"`` drains the executor's per-rank phase
        wall times accumulated since the last search, which also sees
        injected stragglers (chaos ``perturb_phase``) and genuine host
        noise.
        """
        if self.dlb == "pairs":
            if not self.workloads:
                return None
            return np.array(
                [
                    float(w.n_pairs_local + w.n_pairs_nonlocal)
                    for w in self.workloads
                ]
            )
        loads = self.executor.drain_rank_us()
        if loads is None or float(loads.sum()) <= 0.0:
            return None
        return loads

    def _dlb_update(self) -> None:
        """One staggered DLB resize, immediately before a neighbour search.

        The following ``neighbor_search()`` performs the full atom
        redistribution, halo re-plan, and pair-list rebuild the moved
        boundaries require, so invariants never observe a stale
        decomposition.
        """
        loads = self._dlb_loads()
        if loads is None:
            return
        with TRACER.span("dd.dlb", cat="dd", step=self.step_count):
            self._dlb.update(loads)

    def _ensure_ns(self) -> None:
        """Run a neighbour search when the lifecycle demands one."""
        if self._needs_ns():
            if self._dlb is not None and self.cluster is not None:
                self._dlb_update()
            with TRACER.span("dd.ns", cat="dd", step=self.step_count):
                self.neighbor_search()

    def step(self) -> StepEnergies:
        """One complete MD step across all ranks.

        The gather into ``system`` is output only: between two searches
        nothing here reads it back (the next search does).
        """
        with TRACER.span("dd.step", cat="dd", step=self.step_count):
            self._ensure_ns()
            e_lj, e_coul, e_bonded = self.compute_forces()
            cluster = self.cluster
            kin = 0.0
            with TRACER.span("dd.integrate", cat="update"):
                results = self.executor.run("integrate")
                for r, plan in enumerate(cluster.plan.ranks):
                    nh = plan.n_home
                    home_ids = plan.global_ids[:nh]
                    self.system.positions[home_ids] = cluster.local_pos[r][:nh]
                    self.system.velocities[home_ids] = cluster.local_vel[r]
                    self.system.forces[home_ids] = cluster.local_forces[r][:nh]
                    kin += results[r][0]
                # np.max keeps a NaN whatever the rank order; max() would not.
                self._max_disp2 = float(np.max([d2 for _, d2 in results]))
        METRICS.counter("dd.steps").inc()
        rec = StepEnergies(self.step_count, e_lj, e_coul, kin, e_bonded)
        self.energies.append(rec)
        self.step_count += 1
        return rec

    def run(self, n_steps: int) -> list[StepEnergies]:
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        return [self.step() for _ in range(n_steps)]

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (worker processes, shared memory)."""
        executor = getattr(self, "executor", None)
        if executor is not None and not isinstance(executor, str):
            executor.close()

    def __enter__(self) -> "DDSimulator":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
