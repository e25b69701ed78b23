"""Load-imbalance summaries over the ``par.rank_us`` histograms.

Every executor records each rank's per-phase wall time into the
``par.rank_us`` histogram (labels ``executor=..., phase=..., rank=...``).
This module folds those distributions into the number GROMACS prints at
the end of every log: the *load imbalance*, ``100 * (max / mean - 1)`` —
how much longer the slowest rank ran than the average, i.e. the fraction
of the force-phase budget the bulk-synchronous step wastes waiting.
Andersson et al.'s GROMACS breakdown (PAPERS.md) identifies exactly this
term as first-order at scale; DLB (:mod:`repro.dd.dlb`) and the repo
benchmark's ``dd.pair_imbalance_pct`` row are built on the same statistic.

``max`` and ``mean`` compare each rank's *run-averaged* phase cost (the
per-rank histogram means), exactly GROMACS' statistic: load imbalance is
the persistent skew between ranks, so a single OS-jitter straggler step
is diluted by that rank's other steps rather than setting the maximum
for the whole run.  A persistent straggler — e.g. the chaos layer's
``perturb_phase`` fault, the synthetic one used to validate the metric
end to end — lifts its rank's mean and still dominates.  Histograms
recorded without a ``rank`` label (older producers, hand-rolled tests)
fall back to the observation-level max.
"""

from __future__ import annotations

from repro.obs.metrics import METRICS, Histogram, MetricsRegistry


def imbalance_pct(mean_us: float, max_us: float) -> float:
    """GROMACS-style load imbalance: how far the slowest rank trails the mean."""
    if mean_us <= 0.0:
        return 0.0
    return 100.0 * (max_us / mean_us - 1.0)


def summarize_imbalance(
    registry: MetricsRegistry = METRICS, executor: str | None = None
) -> dict[str, dict[str, dict[str, float]]]:
    """Per-executor, per-phase imbalance from the ``par.rank_us`` histograms.

    Returns ``{executor: {phase: {count, mean_us, max_us, imbalance_pct}}}``
    where ``max_us`` is the slowest rank's *run-averaged* phase cost and
    ``mean_us`` the average over ranks (see module docstring), plus an
    ``"overall"`` phase per executor aggregating across phases as
    ``sum(max) / sum(mean)`` — the step-level imbalance if every phase's
    straggler were the same rank (the pessimistic bound GROMACS' DLB
    reacts to).  Executors with no observations are absent.
    """
    # (executor, phase) -> [(rank label or None, histogram)]
    groups: dict[tuple[str, str], list[tuple[str | None, Histogram]]] = {}
    for name, labels, m in registry.collect("par.rank_us"):
        if name != "par.rank_us" or not isinstance(m, Histogram) or not m.count:
            continue
        lab = dict(labels)
        exe, phase = lab.get("executor", "?"), lab.get("phase", "?")
        if executor is not None and exe != executor:
            continue
        groups.setdefault((exe, phase), []).append((lab.get("rank"), m))
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (exe, phase), hists in groups.items():
        count = float(sum(m.count for _, m in hists))
        mean = sum(m.mean * m.count for _, m in hists) / count
        if all(rank is not None for rank, _ in hists):
            # Rank-resolved: compare run-averaged per-rank costs.
            max_us = max(m.mean for _, m in hists)
        else:
            # Legacy shape (no rank label): observation-level max.
            max_us = max(m.max for _, m in hists)
        out.setdefault(exe, {})[phase] = {
            "count": count,
            "mean_us": mean,
            "max_us": max_us,
            "imbalance_pct": imbalance_pct(mean, max_us),
        }
    for exe, phases in out.items():
        tot_mean = sum(p["mean_us"] for p in phases.values())
        tot_max = sum(p["max_us"] for p in phases.values())
        phases["overall"] = {
            "count": sum(p["count"] for p in phases.values()),
            "mean_us": tot_mean,
            "max_us": tot_max,
            "imbalance_pct": imbalance_pct(tot_mean, tot_max),
        }
    return out
