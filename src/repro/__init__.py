"""repro — reproduction of "Redesigning GROMACS Halo Exchange: Improving
Strong Scaling with GPU-initiated NVSHMEM" (SC Workshops '25).

Two layers:

* **Functional** (:mod:`repro.md`, :mod:`repro.dd`, :mod:`repro.comm`,
  :mod:`repro.nvshmem`): a from-scratch MD engine with eighth-shell
  neutral-territory domain decomposition, whose halo exchange runs through
  interchangeable MPI-style / thread-MPI-style / fused NVSHMEM-style
  backends — all verified bit-exact against a serial reference.
* **Timing** (:mod:`repro.gpusim`, :mod:`repro.sched`, :mod:`repro.perf`,
  :mod:`repro.analysis`, :mod:`repro.harness`): a task-graph simulator of
  the GPU-resident step schedules (the paper's Figs. 1-2), calibrated to
  the published device-side timings, regenerating every evaluation figure.

One frozen :class:`~repro.spec.SimulationSpec` describes a run: it is the
only place a knob is declared, ``DDSimulator.from_spec`` is the only
place its names become objects, and :func:`repro.run.execute_spec` is the
one body that runs it (what every functional CLI calls).

Quickstart::

    from repro import quick_compare
    print(quick_compare("45k", gpus=4).render())

    from repro import SimulationSpec, execute_spec
    result = execute_spec(SimulationSpec(system="45k", steps=10, ranks=8))

Public API
----------

Everything in ``__all__`` below is the supported surface; backends and
executors are picked by registry name (``backend="nvshmem"``,
``executor="process"``), directly or via :class:`SimulationSpec`.
"""

from repro.comm import MpiBackend, NvshmemBackend, ThreadMpiBackend, make_backend
from repro.dd import (
    DDGrid,
    DDSimulator,
    DomainDecomposition,
    build_halo_plan,
    resolve_backend_executor,
)
from repro.md import ReferenceSimulator, default_forcefield, make_grappa_system
from repro.perf import (
    DGX_H100,
    EOS,
    GB200_NVL72,
    estimate_step,
    grappa_workload,
    simulate_step,
)
from repro.run import execute_spec
from repro.spec import SimulationSpec
from repro.util.tables import Table
from repro.util.units import ms_per_step_to_ns_per_day

__version__ = "1.0.0"

__all__ = [
    # functional layer
    "DDGrid",
    "DDSimulator",
    "DomainDecomposition",
    "MpiBackend",
    "NvshmemBackend",
    "ReferenceSimulator",
    "ThreadMpiBackend",
    "build_halo_plan",
    "default_forcefield",
    "make_backend",
    "make_grappa_system",
    "resolve_backend_executor",
    # timing layer
    "DGX_H100",
    "EOS",
    "GB200_NVL72",
    "estimate_step",
    "grappa_workload",
    "quick_compare",
    "simulate_step",
    # one spec, one run body
    "SimulationSpec",
    "execute_spec",
    # utilities
    "Table",
    "ms_per_step_to_ns_per_day",
]


def quick_compare(system: str = "45k", gpus: int = 4, machine=None) -> Table:
    """One-call MPI vs NVSHMEM comparison for a grappa system size."""
    from repro.md.grappa import GRAPPA_SIZES

    machine = machine or DGX_H100
    tbl = Table(
        columns=("backend", "ns_per_day", "ms_per_step", "nonlocal_us"),
        title=f"{system} on {gpus} GPUs ({machine.name})",
    )
    wl = grappa_workload(GRAPPA_SIZES[system], gpus, machine)
    for backend in ("mpi", "nvshmem"):
        t = estimate_step(wl, machine, backend=backend)
        tbl.add_row(
            backend,
            ms_per_step_to_ns_per_day(t.time_per_step * 1e-3),
            t.time_per_step * 1e-3,
            t.nonlocal_work,
        )
    return tbl
