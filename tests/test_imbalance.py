"""Load-imbalance summaries from ``par.rank_us``, incl. a chaos straggler."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.dd import DDSimulator
from repro.dd.grid import DDGrid
from repro.md import make_grappa_system
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.par.imbalance import imbalance_pct, summarize_imbalance


class TestImbalanceMath:
    def test_zero_mean_is_zero(self):
        assert imbalance_pct(0.0, 100.0) == 0.0

    def test_balanced_is_zero(self):
        assert imbalance_pct(100.0, 100.0) == 0.0

    def test_gromacs_formula(self):
        # ranks [100, 100, 100, 180]: mean 120, max 180 -> 50% imbalance
        assert imbalance_pct(120.0, 180.0) == pytest.approx(50.0)

    def test_summary_from_synthetic_histograms(self):
        reg = MetricsRegistry()
        for us in (100.0, 100.0, 100.0, 180.0):
            reg.histogram("par.rank_us", executor="process", phase="forces_local").observe(us)
        for us in (50.0, 50.0):
            reg.histogram("par.rank_us", executor="process", phase="pairs").observe(us)
        summary = summarize_imbalance(reg)
        fl = summary["process"]["forces_local"]
        assert fl["count"] == 4
        assert fl["mean_us"] == pytest.approx(120.0)
        assert fl["max_us"] == pytest.approx(180.0)
        assert fl["imbalance_pct"] == pytest.approx(50.0)
        assert summary["process"]["pairs"]["imbalance_pct"] == 0.0
        # overall: sum(max)/sum(mean) = 230/170 -> ~35.3%
        overall = summary["process"]["overall"]
        assert overall["imbalance_pct"] == pytest.approx(100.0 * (230.0 / 170.0 - 1.0))

    def test_executor_filter_and_empty(self):
        reg = MetricsRegistry()
        assert summarize_imbalance(reg) == {}
        reg.histogram("par.rank_us", executor="serial", phase="pairs").observe(10.0)
        assert "serial" not in summarize_imbalance(reg, executor="process")
        assert "serial" in summarize_imbalance(reg, executor="serial")


class TestChaosStraggler:
    """A chaos-injected straggler rank must surface in the imbalance metric."""

    def run_steps(self, ff, straggle: bool) -> dict:
        METRICS.reset()
        system = make_grappa_system(1400, seed=11, ff=ff)
        plan = FaultPlan(seed=0)
        if straggle:
            # Rank 0's forces_local sleeps ~20 ms every step — far above
            # the phase's genuine cost at this system size even on a
            # loaded host, so the *run-averaged per-rank* statistic (a
            # persistent straggler lifts its rank's mean) must see it.
            plan.faults.append(
                Fault("perturb_phase", target="forces_local", rank=0, delay_us=20000.0)
            )
        with ChaosInjector(plan):
            sim = DDSimulator(
                system, ff, n_ranks=4, executor="serial", nstlist=3, buffer=0.12
            )
            with sim:
                sim.run(3)
        return summarize_imbalance(executor="serial")

    def test_straggler_dominates_forces_local(self, ff):
        summary = self.run_steps(ff, straggle=True)
        fl = summary["serial"]["forces_local"]
        assert fl["count"] == 12  # 4 ranks x 3 steps
        # rank 0 carries +20000 us every step; the mean over ranks gains
        # only a quarter of that, so imbalance stays large even with
        # timer noise on a loaded host.
        assert fl["max_us"] >= 20000.0
        assert fl["imbalance_pct"] > 50.0
        assert summary["serial"]["overall"]["imbalance_pct"] > 10.0

    def test_measured_dlb_shrinks_the_straggler_cell(self, ff):
        """``dlb="measured"`` drains the same per-rank timings, so a
        20 ms straggler shrinks its rank's cell at the next search."""
        system = make_grappa_system(1400, seed=11, ff=ff)
        plan = FaultPlan(seed=0)
        plan.faults.append(
            Fault("perturb_phase", target="forces_local", rank=2, delay_us=20000.0)
        )
        with ChaosInjector(plan):
            sim = DDSimulator(
                system, ff, grid=DDGrid((1, 1, 4)), executor="serial", nstlist=3,
                buffer=0.12, max_pulses=2, dlb="measured",
            )
            with sim:
                uniform = sim.dd.cell_widths(2)
                sim.run(4)  # searches at steps 0 and 3; DLB acts before the second
                widths = sim.dd.cell_widths(2)
        assert sim.dlb_adjustments == 1
        assert widths[2] < uniform[2]
        assert widths[2] == widths.min()
