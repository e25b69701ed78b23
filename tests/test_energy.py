"""Energy/efficiency model on the machine constants."""

from __future__ import annotations

import pytest

from repro.obs.metrics import METRICS
from repro.perf import DGX_H100, GB200_NVL72
from repro.perf.constants import H100_PARAMS
from repro.perf.energy import (
    GB200_ENERGY,
    H100_ENERGY,
    energy_params_for,
    energy_report,
    step_power_w,
)
from repro.perf.workload import grappa_workload


class TestEnergyParams:
    def test_lookup_by_machine_hw_and_name(self):
        assert energy_params_for(DGX_H100) is H100_ENERGY
        assert energy_params_for(H100_PARAMS) is H100_ENERGY
        assert energy_params_for("GB200") is GB200_ENERGY

    def test_unknown_architecture(self):
        with pytest.raises(KeyError, match="no energy constants"):
            energy_params_for("TPU-v5")

    def test_power_monotone_in_busy_frac(self):
        idle = step_power_w(1, 0.0, H100_ENERGY)
        half = step_power_w(1, 0.5, H100_ENERGY)
        full = step_power_w(1, 1.0, H100_ENERGY)
        assert idle < half < full
        assert full == pytest.approx(H100_ENERGY.host_w_per_gpu + H100_ENERGY.gpu_max_w)
        assert idle == pytest.approx(
            H100_ENERGY.host_w_per_gpu
            + H100_ENERGY.gpu_max_w * H100_ENERGY.gpu_idle_frac
        )

    def test_power_scales_with_ranks_and_clamps(self):
        assert step_power_w(8, 0.5, H100_ENERGY) == pytest.approx(
            8 * step_power_w(1, 0.5, H100_ENERGY)
        )
        assert step_power_w(1, 7.0, H100_ENERGY) == step_power_w(1, 1.0, H100_ENERGY)
        assert step_power_w(1, -1.0, H100_ENERGY) == step_power_w(1, 0.0, H100_ENERGY)


class TestEnergyReport:
    @pytest.fixture()
    def wl(self):
        return grappa_workload(45000, 8, DGX_H100)

    def test_internal_consistency(self, wl):
        rep = energy_report(wl, DGX_H100, publish=False)
        assert 0.0 < rep.busy_frac <= 1.0
        assert rep.time_per_step_us == rep.model_time_per_step_us
        assert rep.efficiency_vs_model is None
        assert rep.j_per_step == pytest.approx(rep.watts * rep.time_per_step_us * 1e-6)
        assert rep.ns_day_per_w == pytest.approx(rep.ns_per_day / rep.watts)
        assert rep.as_dict()["machine"] == "dgx-h100"

    def test_measured_time_slower_than_model(self, wl):
        model = energy_report(wl, DGX_H100, publish=False)
        slow_ms = 2.0 * model.model_time_per_step_us * 1e-3
        rep = energy_report(wl, DGX_H100, measured_ms_per_step=slow_ms, publish=False)
        assert rep.efficiency_vs_model == pytest.approx(0.5)
        # energy integrates over the measured time, not the model's
        assert rep.j_per_step == pytest.approx(2.0 * model.j_per_step)
        assert rep.ns_day_per_w == pytest.approx(model.ns_day_per_w / 2.0)

    def test_publishes_gauges(self, wl):
        METRICS.reset()
        rep = energy_report(wl, DGX_H100)
        gauges = {name for name, _, _ in METRICS.collect("perf.energy")}
        assert gauges == {
            "perf.energy.watts", "perf.energy.j_per_step", "perf.energy.ns_day_per_w"
        }
        (_, labels, g) = METRICS.collect("perf.energy.watts")[0]
        assert dict(labels) == {"machine": "dgx-h100", "backend": "nvshmem", "ranks": 8}
        assert g.value == rep.watts

    def test_gb200_draws_more_power(self, wl):
        wl_gb = grappa_workload(45000, 8, GB200_NVL72)
        h100 = energy_report(wl, DGX_H100, publish=False)
        gb200 = energy_report(wl_gb, GB200_NVL72, publish=False)
        assert gb200.watts > h100.watts
