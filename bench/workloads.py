"""The four benchmark workloads and their output checks.

Two kinds of workload share one driver loop (:mod:`worker`):

* ``md`` — a :class:`repro.dd.DDSimulator` stepping a grappa system;
* ``halo`` — :class:`HaloLoop`, the halo exchange alone (no pair search,
  no forces) on a 4x4x4 decomposition, shaped like the simulator
  (``step`` / ``neighbor_search`` / ``cluster`` / ``cluster_factory`` /
  ``backend``) so the same timing loop and the same tracer drive both.

Every knob that is not a workload dimension is a constant here: all MD
workloads run cutoff 0.65, buffer 0.12, ``nstlist=10``, the ``cluster``
kernel in float64, overlap on and ``dt=0.0005`` (the lattice start is not
relaxed: at the engine's default ``dt=0.002`` the system heats to ~1650 K,
rebuilds every 2-3 steps and blows up near step 260 — see README.md).
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.comm import make_backend
from repro.dd import DDSimulator
from repro.dd.decomposition import DomainDecomposition
from repro.dd.engine import RankWorkload
from repro.dd.exchange import (
    build_cluster,
    gather_forces,
    reference_coordinate_exchange,
    reference_force_exchange,
)
from repro.dd.grid import DDGrid
from repro.md import ReferenceSimulator, default_forcefield, make_system
from repro.par import make_executor

CUTOFF = 0.65
BUFFER = 0.12
DT = 0.0005
MD_NSTLIST = 10
#: The halo loop redoes ``build_cluster`` + ``bind`` at this cadence, as
#: the engine does at each neighbour search.
HALO_NSTLIST = 25
#: Per-step displacement of home atoms in the halo loop (nm); far below
#: the buffer, so the plan built at the last rebuild stays valid.
HALO_JITTER = 0.005
#: Tolerances of the output checks.
POSITION_TOL_NM = 1e-12
FORCE_RTOL = 1e-12
ENERGY_BAND = 0.10


@dataclass(frozen=True)
class Spec:
    """One workload: what runs, and how many steps at ``run_seconds``."""

    name: str
    kind: str  # "md" | "halo"
    system: str
    grid: tuple[int, int, int]
    executor: str | None
    pes_per_node: int | None
    nstlist: int
    warmup: int
    #: Timed steps in a full run (``--seconds`` equal to BENCHMARK.json's
    #: ``run_seconds``); a whole number of ``nstlist`` cycles, sized on
    #: the reference host so the window lasts about ``run_seconds``.
    steps: int


WORKLOADS = {
    s.name: s
    for s in (
        Spec("grappa45k-8r", "md", "45k", (1, 2, 4), "serial", None, MD_NSTLIST, 3, 20),
        Spec("grappa6k-32r-proc", "md", "6k", (2, 4, 4), "process", 8, MD_NSTLIST, 11, 200),
        Spec("halo-nvl-64r", "halo", "12k", (4, 4, 4), None, None, HALO_NSTLIST, 20, 1300),
        Spec("halo-ib-64r", "halo", "12k", (4, 4, 4), None, 8, HALO_NSTLIST, 20, 250),
    )
}


def _build_cluster(eng):
    """The engine's own rebuild, routed through ``cluster_factory`` so the
    tracer can put a span on it without touching ``repro.dd``."""
    return build_cluster(eng.system, eng.dd, trim_corners=eng.trim_corners)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Checks:
    """Attempted / failed operation counts of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(note)


class Workload:
    """What the two kinds of workload share: the engine and its checks."""

    def __init__(self, spec: Spec, seed: int, workers: int, wrap_backend=None):
        self.spec = spec
        self.seed = seed
        self.workers = workers
        self.wrap_backend = wrap_backend
        self.checks = Checks()
        self.eng = None

    def _system(self):
        ff = default_forcefield(cutoff=CUTOFF)
        return make_system(self.spec.system, seed=self.seed, ff=ff, dtype=np.float64), ff

    def _backend(self):
        backend = make_backend(
            "nvshmem", seed=self.seed, pes_per_node=self.spec.pes_per_node
        )
        return backend if self.wrap_backend is None else self.wrap_backend(backend)

    def teardown(self) -> None:
        """Close the engine and drop every reference to its arrays."""
        if self.eng is not None:
            self.eng.close()
        self.eng = None
        gc.collect()

    def before_step(self) -> None:
        """Untimed work ahead of one step."""


# -- MD workloads -----------------------------------------------------------------


class MdWorkload(Workload):
    """A DDSimulator run checked against the serial reference."""

    _after_warmup: np.ndarray | None = None
    #: Total energy of the first timed step.
    _e0: float | None = None

    def setup(self) -> DDSimulator:
        """Cold set-up: system, simulator, first search (and pool), warm-up."""
        spec = self.spec
        system, ff = self._system()
        kwargs = {"max_workers": self.workers} if spec.executor == "process" else {}
        self.eng = DDSimulator(
            system, ff, grid=DDGrid(spec.grid), backend=self._backend(),
            executor=make_executor(spec.executor, **kwargs),
            nstlist=spec.nstlist, buffer=BUFFER, dt=DT, kernel="cluster",
            kernel_dtype="float64", overlap_comm=True,
            cluster_factory=_build_cluster,
        )
        for _ in range(spec.warmup):
            self.eng.step()
        self._after_warmup = system.positions.copy()
        self._e0 = None
        return self.eng

    def after_step(self, rec) -> None:
        """One step attempted; it fails on a non-finite or runaway energy."""
        if self._e0 is None:
            self._e0 = rec.total
        # NaN and inf fail the comparison too.
        ok = abs(rec.total - self._e0) <= ENERGY_BAND * abs(self._e0)
        self.checks.record(ok, f"step {rec.step}: total energy {rec.total!r} vs {self._e0!r}")

    def finish(self) -> dict:
        """Reference check of the warm-up trajectory + final digest.

        Runs after the window (and after peak RSS is read): the serial
        reference holds a whole-system pair list, which would otherwise
        set the high-water mark this benchmark reports for the engine.
        The reference uses the ``segment`` kernel — bit-compatible with
        ``cluster`` in float64 and 2.5x cheaper to build at 45k atoms.
        """
        system, ff = self._system()
        ref = ReferenceSimulator(
            system, ff, nstlist=self.spec.nstlist, buffer=BUFFER, dt=DT, kernel="segment"
        )
        ref.run(self.spec.warmup)
        box = system.box
        delta = self._after_warmup - system.positions
        delta -= np.rint(delta / box) * box
        max_dx = float(np.abs(delta).max())
        self.checks.record(
            max_dx <= POSITION_TOL_NM,
            f"positions after {self.spec.warmup} steps differ from the serial "
            f"reference by {max_dx:.3e} nm",
        )
        return {
            "traj_digest": _digest(self.eng.system.positions),
            "ref_max_dx_nm": max_dx,
        }


# -- halo workloads -----------------------------------------------------------------


class HaloLoop:
    """The halo exchange alone, with the simulator's public shape.

    One step is ``exchange_coordinates`` + ``exchange_forces``; every
    ``nstlist`` steps the step first redoes ``build_cluster`` + ``bind``.
    """

    trim_corners = False
    executor = None

    def __init__(self, system, grid: DDGrid, backend, nstlist: int):
        self.system = system
        self.grid = grid
        self.n_ranks = grid.n_ranks
        self.dd = DomainDecomposition(
            grid=grid, box=system.box, r_comm=CUTOFF + BUFFER, max_pulses=1
        )
        self.backend = backend
        self.nstlist = nstlist
        self.cluster_factory = _build_cluster
        self.cluster = None
        self.workloads: list[RankWorkload] = []
        self.step_count = 0

    def neighbor_search(self) -> None:
        self.cluster = self.cluster_factory(self)
        self.backend.bind(self.cluster)
        self.workloads = [
            RankWorkload(
                rank=rp.rank, n_home=rp.n_home, n_halo=rp.n_halo,
                n_pairs_local=0, n_pairs_nonlocal=0,
                pulse_send_sizes=[p.send_size for p in rp.pulses],
            )
            for rp in self.cluster.plan.ranks
        ]

    def step(self) -> None:
        if self.step_count % self.nstlist == 0:
            self.neighbor_search()
        self.backend.exchange_coordinates(self.cluster)
        self.backend.exchange_forces(self.cluster)
        self.step_count += 1

    def close(self) -> None:
        pass


class HaloWorkload(Workload):
    """A HaloLoop checked against a twin cluster on the reference backend.

    Before each step (outside the timed span) home positions are
    re-jittered and all force rows refilled from the seeded RNG.  On the
    last step before every rebuild the twin receives the same data and
    runs the lock-step reference exchange; all ranks' ``local_pos`` must
    match bit for bit and the gathered forces to ``FORCE_RTOL``.
    """

    def setup(self) -> HaloLoop:
        spec = self.spec
        system, _ff = self._system()
        self.eng = HaloLoop(system, DDGrid(spec.grid), self._backend(), spec.nstlist)
        self.rng = np.random.default_rng(self.seed)
        self._seen = None
        self._twin = None
        self._home: list[np.ndarray] = []
        self._check_due = False
        for _ in range(spec.warmup):
            self.before_step()
            self.eng.step()
        return self.eng

    def before_step(self) -> None:
        eng = self.eng
        if eng.step_count % eng.nstlist == 0:
            # step() is about to rebuild from system.positions: move the
            # atoms so every rebuild decomposes a new configuration.
            eng.system.positions += self.rng.normal(
                scale=HALO_JITTER, size=eng.system.positions.shape
            )
            return
        cluster = eng.cluster
        if cluster is not self._seen:
            self._seen = cluster
            self._twin = build_cluster(eng.system, eng.dd, trim_corners=eng.trim_corners)
            self._home = [
                cluster.local_pos[rp.rank][: rp.n_home].copy()
                for rp in cluster.plan.ranks
            ]
        self._check_due = (eng.step_count + 1) % eng.nstlist == 0
        for rp in cluster.plan.ranks:
            r, nh = rp.rank, rp.n_home
            pos = self._home[r] + self.rng.normal(scale=HALO_JITTER, size=(nh, 3))
            forces = self.rng.standard_normal(cluster.local_forces[r].shape)
            cluster.local_pos[r][:nh] = pos
            cluster.local_forces[r][...] = forces
            if self._check_due:
                self._twin.local_pos[r][:nh] = pos
                self._twin.local_forces[r][...] = forces

    def after_step(self, _rec) -> None:
        self.checks.record(True, "")
        if not self._check_due:
            return
        self._check_due = False
        cluster, twin = self.eng.cluster, self._twin
        reference_coordinate_exchange(twin)
        reference_force_exchange(twin)
        same_pos = all(
            np.array_equal(cluster.local_pos[r], twin.local_pos[r])
            for r in range(cluster.n_ranks)
        )
        self.checks.record(
            same_pos, f"step {self.eng.step_count - 1}: halo coordinates differ from the reference exchange"
        )
        got, want = gather_forces(cluster), gather_forces(twin)
        err = float(np.abs(got - want).max() / np.abs(want).max())
        self.checks.record(
            err <= FORCE_RTOL,
            f"step {self.eng.step_count - 1}: gathered forces differ from the "
            f"reference exchange by {err:.3e} (relative)",
        )

    def finish(self) -> dict:
        return {"traj_digest": _digest(gather_forces(self.eng.cluster))}


def make_workload(spec: Spec, seed: int, workers: int, wrap_backend=None):
    cls = MdWorkload if spec.kind == "md" else HaloWorkload
    return cls(spec, seed, workers, wrap_backend)
