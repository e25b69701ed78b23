"""Compare two ``results.json`` files from ``run.py``: ``compare.py A.json B.json``.

One row per workload and end-to-end metric: both medians, the ratio B/A
(base A), the regression bound from ``BENCHMARK.json`` and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's run-to-run spread (interquartile distance
  over its median, known when the file holds ``--repeats`` >= 2) is wider
  than the bound, and not every B run beats every A run;
* ``same``: neither.

Exact values (``traj_digest``, counts, simulated microseconds) must be
identical, and any failed operation on the B side is ``worse``.  Runs
that are not comparable — different ``cpu_count``, seed, window length or
step counts — are refused.  Exit status: 0 when every row is ``same`` and
every exact value matches, 1 otherwise, 2 when refusing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Provenance fields that make two runs comparable.
MUST_MATCH = ("cpu_count", "seed", "seconds", "smoke")


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    widest = max((s for s in (spread(a), spread(b)) if s is not None), default=0.0)
    if widest > bound:
        b_wins_all = max(sign * v for v in b) < min(sign * v for v in a)
        return "same" if b_wins_all else "unresolved"
    return "worse" if sign * (med_b - med_a) > bound * abs(med_a) else "same"


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two records cannot be compared (empty: they can)."""
    why = [
        f"{key}: {a['provenance'].get(key)!r} vs {b['provenance'].get(key)!r}"
        for key in MUST_MATCH
        if a["provenance"].get(key) != b["provenance"].get(key)
    ]
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        steps_a, steps_b = (r["workloads"][name]["exact"]["steps"] for r in (a, b))
        if steps_a != steps_b:
            why.append(f"{name}: step counts {steps_a} vs {steps_b}")
    if not set(a["workloads"]) & set(b["workloads"]):
        why.append("no workload in common")
    return why


def compare(a: dict, b: dict, bench: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, med_a, med_b, ratio, bound, verdict)`` and
    exact-value mismatches."""
    rows, mismatches = [], []
    for name in [w["name"] for w in bench["workloads"]]:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in bench["end_to_end"]:
            va, vb = (w["end_to_end"][m["name"]]["values"] for w in (wa, wb))
            med_a, med_b = statistics.median(va), statistics.median(vb)
            rows.append(
                (name, m["name"], med_a, med_b, med_b / med_a, m["bound"],
                 verdict(va, vb, m["bound"], m["better"]))
            )
        frac_a, frac_b = (w["failed"] / w["attempted"] for w in (wa, wb))
        rows.append(
            (name, "fail_frac", frac_a, frac_b, float("nan"), 0.0,
             "worse" if frac_b > 0 else "same")
        )
        for key in sorted(set(wa["exact"]) | set(wb["exact"])):
            if wa["exact"].get(key) != wb["exact"].get(key):
                mismatches.append(
                    f"{name}: exact value {key} differs: "
                    f"{wa['exact'].get(key)!r} vs {wb['exact'].get(key)!r}"
                )
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    refusal = comparable(a, b)
    if refusal:
        print("not comparable:\n  " + "\n  ".join(refusal), file=sys.stderr)
        return 2
    rows, mismatches = compare(a, b, bench)
    print(f"{'workload':<20} {'metric':<14} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
    for name, metric, med_a, med_b, ratio, bound, how in rows:
        print(f"{name:<20} {metric:<14} {med_a:>12.4f} {med_b:>12.4f} {ratio:>8.4f} {bound:>6.2f}  {how}")
    for line in mismatches:
        print(line)
    bad = [r for r in rows if r[-1] != "same"]
    print(f"{len(rows)} rows, {len(bad)} not same, {len(mismatches)} exact mismatches (ratios: base A)")
    return 1 if bad or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
