"""Performance model: hardware parameters, machines, and workloads.

Separates three concerns:

* :mod:`repro.perf.constants` — per-architecture hardware parameters
  (kernel throughputs, launch/sync latencies, link alpha-beta numbers),
  calibrated against the paper's published device-side timings (Sec. 6.3);
* :mod:`repro.perf.machines` — machine descriptions (DGX-H100, Eos,
  GB200 NVL72) including the per-pulse NVLink-vs-InfiniBand transport
  decision derived from the actual rank-to-node mapping;
* :mod:`repro.perf.workload` — per-step work for one representative rank
  (home atoms, local/non-local pair counts, pulse volumes) from either the
  analytic grappa model or a measured functional-DD run;
* :mod:`repro.perf.model` — end-to-end step-time estimation by building and
  evaluating the MPI / NVSHMEM schedules of :mod:`repro.sched`;
* :mod:`repro.perf.metrics` — ns/day, speedups, parallel efficiency.
"""

from repro.perf.constants import GB200_PARAMS, H100_PARAMS, HardwareParams
from repro.perf.machines import DGX_H100, EOS, GB200_NVL72, Machine, machine_by_name
from repro.perf.metrics import ScalingPoint, scaling_series
from repro.perf.model import estimate_step, simulate_step
from repro.perf.workload import PulseWork, StepWorkload, grappa_workload, paper_grid

__all__ = [
    "DGX_H100",
    "EOS",
    "GB200_NVL72",
    "GB200_PARAMS",
    "H100_PARAMS",
    "HardwareParams",
    "Machine",
    "PulseWork",
    "ScalingPoint",
    "StepWorkload",
    "estimate_step",
    "grappa_workload",
    "machine_by_name",
    "paper_grid",
    "scaling_series",
    "simulate_step",
]
