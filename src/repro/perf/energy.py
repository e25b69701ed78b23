"""Energy/efficiency model layered on the machine constants.

Machado et al.'s energy-efficiency analysis of GROMACS (PAPERS.md) is
the template: energy claims are auditable only when they come from a
declared power model applied to measured (or modeled) step times, not
from anecdote.  This module declares per-architecture power constants
(:class:`EnergyParams`) next to the timing constants in
:mod:`repro.perf.constants`, and derives the three numbers every report
row carries:

* **J/step** — average node-set power × step time;
* **ns·day⁻¹/W** — simulation throughput per watt, the figure of merit
  Machado et al. rank configurations by;
* **parallel efficiency vs the model** — measured scaling efficiency
  over the :func:`repro.perf.model.simulate_step` prediction for the
  same configuration, so "we scale worse than the model says we should"
  is a number, not a feeling.

The power model is deliberately simple and stated: each rank draws its
host share plus a GPU draw interpolated between idle and max by the
step's *busy fraction* (compute time / step time, from the simulated
schedule).  All assumptions are in the constants below; changing them
changes every report the same way, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import METRICS
from repro.perf.constants import HardwareParams
from repro.perf.machines import Machine
from repro.util.units import ms_per_step_to_ns_per_day


@dataclass(frozen=True)
class EnergyParams:
    """Per-GPU-architecture power constants (watts)."""

    name: str
    #: Board power at full MD load (measured mdrun draw sits near TDP).
    gpu_max_w: float
    #: Fraction of ``gpu_max_w`` drawn while idle/waiting on signals.
    gpu_idle_frac: float
    #: Host share per GPU: CPU cores + DRAM + NIC amortized over the node.
    host_w_per_gpu: float


#: H100 SXM: 700 W board, ~125 W idle, ~160 W/GPU of host on a DGX/Eos node.
H100_ENERGY = EnergyParams(name="H100", gpu_max_w=700.0, gpu_idle_frac=0.18,
                           host_w_per_gpu=160.0)

#: GB200: 1200 W Blackwell board, Grace host share amortized per GPU.
GB200_ENERGY = EnergyParams(name="GB200", gpu_max_w=1200.0, gpu_idle_frac=0.15,
                            host_w_per_gpu=145.0)

_ENERGY = {p.name: p for p in (H100_ENERGY, GB200_ENERGY)}


def energy_params_for(hw: HardwareParams | Machine | str) -> EnergyParams:
    """Power constants for an architecture, machine, or architecture name."""
    if isinstance(hw, Machine):
        name = hw.hw.name
    elif isinstance(hw, HardwareParams):
        name = hw.name
    else:
        name = hw
    try:
        return _ENERGY[name]
    except KeyError:
        raise KeyError(
            f"no energy constants for '{name}', available: {sorted(_ENERGY)}"
        ) from None


def step_power_w(n_ranks: int, busy_frac: float, params: EnergyParams) -> float:
    """Average draw of ``n_ranks`` GPUs+host shares at the given busy fraction."""
    busy_frac = min(1.0, max(0.0, busy_frac))
    per_gpu = params.host_w_per_gpu + params.gpu_max_w * (
        params.gpu_idle_frac + busy_frac * (1.0 - params.gpu_idle_frac)
    )
    return n_ranks * per_gpu


@dataclass(frozen=True)
class EnergyReport:
    """Energy/efficiency estimate for one configuration."""

    machine: str
    backend: str
    n_ranks: int
    time_per_step_us: float  # the step time the energy is computed at
    model_time_per_step_us: float  # simulate_step's prediction
    busy_frac: float
    watts: float
    j_per_step: float
    ns_per_day: float
    ns_day_per_w: float
    #: model time / actual time; 1.0 when running exactly at the model's
    #: prediction, <1 when slower.  None when no measured time was given.
    efficiency_vs_model: float | None

    def as_dict(self) -> dict:
        return {
            "machine": self.machine,
            "backend": self.backend,
            "n_ranks": self.n_ranks,
            "time_per_step_us": self.time_per_step_us,
            "model_time_per_step_us": self.model_time_per_step_us,
            "busy_frac": self.busy_frac,
            "watts": self.watts,
            "j_per_step": self.j_per_step,
            "ns_per_day": self.ns_per_day,
            "ns_day_per_w": self.ns_day_per_w,
            "efficiency_vs_model": self.efficiency_vs_model,
        }


def energy_report(
    wl,
    machine: Machine,
    backend: str = "nvshmem",
    measured_ms_per_step: float | None = None,
    publish: bool = True,
) -> EnergyReport:
    """Energy estimate for one workload/machine/backend configuration.

    The simulated schedule supplies the busy fraction (compute µs over
    step µs) and the model step time; when ``measured_ms_per_step`` is
    given the energy integrates over the *measured* time instead and
    ``efficiency_vs_model`` reports model/measured.  With ``publish``
    the numbers land in the metrics registry as ``perf.energy.*`` gauges
    so cycle-accounting dumps and mdlog footers carry them.
    """
    from repro.perf.model import simulate_step  # local: avoid import cycle

    params = energy_params_for(machine)
    _, t = simulate_step(wl, machine, backend=backend)
    busy = min(1.0, (t.local_work + t.nonlocal_work) / t.time_per_step)
    if measured_ms_per_step is not None:
        step_us = measured_ms_per_step * 1e3
        eff = t.time_per_step / step_us if step_us > 0 else None
    else:
        step_us = t.time_per_step
        eff = None
    watts = step_power_w(wl.n_ranks, busy, params)
    j_per_step = watts * step_us * 1e-6
    ns_per_day = ms_per_step_to_ns_per_day(step_us * 1e-3)
    rep = EnergyReport(
        machine=machine.name,
        backend=backend,
        n_ranks=wl.n_ranks,
        time_per_step_us=step_us,
        model_time_per_step_us=t.time_per_step,
        busy_frac=busy,
        watts=watts,
        j_per_step=j_per_step,
        ns_per_day=ns_per_day,
        ns_day_per_w=ns_per_day / watts if watts > 0 else 0.0,
        efficiency_vs_model=eff,
    )
    if publish:
        labels = dict(machine=machine.name, backend=backend, ranks=wl.n_ranks)
        METRICS.gauge("perf.energy.watts", **labels).set(rep.watts)
        METRICS.gauge("perf.energy.j_per_step", **labels).set(rep.j_per_step)
        METRICS.gauge("perf.energy.ns_day_per_w", **labels).set(rep.ns_day_per_w)
    return rep
