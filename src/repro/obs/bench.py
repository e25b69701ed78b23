"""Versioned bench history: committed records plus the regression gate.

The paper's strong-scaling claims are throughput numbers; this module is
what keeps ours honest over time.  ``benchmarks/bench_step.py`` appends
one :class:`BenchRecord` per (system, ranks, backend, executor) to a
*committed* ``BENCH_step.json``, so the repository itself carries the
perf trajectory — every PR that touches a hot path leaves a row, and
``repro report`` renders the trend straight from git history.

The file layout is versioned (:data:`BENCH_SCHEMA_VERSION`)::

    {
      "schema_version": 1,
      "bench": "step_throughput",
      "records": [ {<BenchRecord>}, ... ]   # append-only, oldest first
    }

Records carry everything a reviewer needs to audit a number: git sha and
timestamp (passed in by CI — the store never invents provenance), the
host's machine constants, the executor/system/backend key, steady-state
throughput, the per-phase breakdown, the ``par.rank_us`` load-imbalance
summary, and the modeled energy estimate.

The regression gate (:func:`check_regression`) compares each new record
against a *rolling baseline* — the median ``steps_per_s`` of the last
``window`` committed records with the same key — and flags anything more
than ``threshold`` (default 10%) slower.  An empty or first-run history
yields ``"no-baseline"`` results, which pass: the gate seeds itself.

The pieces every bench script needs around a measurement live here too,
so the scripts share them instead of importing each other: provenance
(:func:`detect_git_sha`, :func:`machine_context`, :func:`provenance`),
the build-memory snapshot, the history/gate flags
(:func:`add_history_flags`) and the append-then-gate tail
(:func:`commit_records`).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from statistics import median

from repro.obs.metrics import METRICS

#: Bump when the record layout changes incompatibly; readers reject newer.
BENCH_SCHEMA_VERSION = 1

#: The benchmark family this store tracks (one file per family).
BENCH_NAME = "step_throughput"

#: Default committed history location (repo root).
DEFAULT_HISTORY = "BENCH_step.json"

#: Records per key folded into the rolling baseline.
DEFAULT_WINDOW = 5

#: Fractional step-throughput loss that fails the gate.
DEFAULT_THRESHOLD = 0.10

#: BenchRecord identity fields copied, by name, from the measured spec.
_SPEC_FIELDS = (
    "system", "ranks", "backend", "executor", "overlap_comm", "steps",
    "kernel", "kernel_dtype", "max_build_bytes", "dlb",
)


@dataclass
class BenchRecord:
    """One committed measurement of steady-state step throughput."""

    git_sha: str
    timestamp: str  # ISO-8601, supplied by the caller (CI), never invented
    system: str
    n_atoms: int
    ranks: int
    backend: str
    executor: str
    overlap_comm: bool
    steps: int
    ms_per_step: float
    steps_per_s: float
    #: Non-bonded kernel registry name; part of the baseline identity so
    #: per-kernel numbers regress independently.  Old records (pre-kernel
    #: schema) load as "segment", which is what they measured.
    kernel: str = "segment"
    #: Kernel compute precision ("float64"/"float32"); also part of the
    #: baseline identity — the float32 fast path regresses on its own.
    kernel_dtype: str = "float64"
    #: Pair-list build working-set cap (bytes; None = uncapped).  Part of
    #: the baseline identity: memory-capped runs trade build time for
    #: bounded memory and must regress against their own history, never
    #: against uncapped numbers.  Old records load as None (uncapped),
    #: which is what they measured.
    max_build_bytes: int | None = None
    #: Dynamic load-balancing mode ("off", "pairs", "measured").  Part of
    #: the baseline identity: DLB trades resize/rebuild work for lower
    #: imbalance, so balanced and uniform runs regress independently, and
    #: the report's imbalance section can label which records had DLB on.
    #: Old records (pre-DLB schema) load as "off", which is what they ran.
    dlb: str = "off"
    #: Host constants the number was measured on (cpu_count, platform, python).
    machine: dict = field(default_factory=dict)
    #: ``forces_local``/``forces_nonlocal``/halo/overlap split (optional).
    phase_breakdown: dict | None = None
    #: Per-phase ``par.rank_us`` summary: mean/max µs + GROMACS-style %.
    imbalance: dict | None = None
    #: Modeled energy estimate (see :mod:`repro.perf.energy`).
    energy: dict | None = None
    #: Build-memory accounting from the ``md.*`` gauges: pairlist_bytes,
    #: cells_bytes, build_peak_bytes, build_peak_bytes_per_atom (optional).
    memory: dict | None = None
    #: Strong-scaling context from ``bench_scaling``: parallel efficiency
    #: measured vs the perf model's prediction at this rank count.
    scaling: dict | None = None
    schema_version: int = BENCH_SCHEMA_VERSION

    @classmethod
    def measured(cls, spec, **results) -> "BenchRecord":
        """A record of a run of ``spec``: identity from the spec, the rest given."""
        identity = dict(zip(_SPEC_FIELDS, attrgetter(*_SPEC_FIELDS)(spec)))
        return cls(n_atoms=spec.n_atoms, **identity, **results)

    def key(self) -> tuple:
        """The identity the rolling baseline groups by."""
        return (self.system, self.ranks, self.backend, self.executor,
                self.overlap_comm, self.kernel, self.kernel_dtype,
                self.max_build_bytes, self.dlb)

    def key_label(self) -> str:
        ov = "overlap" if self.overlap_comm else "no-overlap"
        label = (f"{self.system}/{self.ranks}r/{self.backend}/{self.executor}"
                 f"/{ov}/{self.kernel}")
        if self.kernel_dtype != "float64":
            label += f"/{self.kernel_dtype}"
        if self.max_build_bytes is not None:
            label += f"/cap{self.max_build_bytes // (1 << 20)}M"
        if self.dlb != "off":
            label += f"/dlb-{self.dlb}"
        return label

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


class BenchHistory:
    """The append-only record store behind ``BENCH_step.json``."""

    def __init__(self, path: str | Path, records: list[BenchRecord] | None = None):
        self.path = Path(path)
        self.records: list[BenchRecord] = list(records or [])

    @classmethod
    def load(cls, path: str | Path) -> "BenchHistory":
        """Read a history file; a missing file is an empty (first-run) store."""
        path = Path(path)
        if not path.exists():
            return cls(path)
        doc = json.loads(path.read_text())
        version = doc.get("schema_version", 0)
        if version > BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: schema_version {version} is newer than supported "
                f"{BENCH_SCHEMA_VERSION} — update the tooling"
            )
        records = [BenchRecord.from_dict(r) for r in doc.get("records", [])]
        return cls(path, records)

    def append(self, record: BenchRecord) -> None:
        self.records.append(record)

    def save(self) -> Path:
        doc = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": BENCH_NAME,
            "records": [r.to_dict() for r in self.records],
        }
        self.path.write_text(json.dumps(doc, indent=2) + "\n")
        return self.path

    # -- queries ---------------------------------------------------------------

    def matching(self, key: tuple) -> list[BenchRecord]:
        """Records with the given key, oldest first."""
        return [r for r in self.records if r.key() == key]

    def keys(self) -> list[tuple]:
        """Distinct record keys in first-appearance order."""
        seen: dict[tuple, None] = {}
        for r in self.records:
            seen.setdefault(r.key(), None)
        return list(seen)

    def latest(self, key: tuple) -> BenchRecord | None:
        hits = self.matching(key)
        return hits[-1] if hits else None


def rolling_baseline(
    records: list[BenchRecord], window: int = DEFAULT_WINDOW
) -> float | None:
    """Median ``steps_per_s`` of the last ``window`` records (None if empty).

    The median keeps one noisy run (a loaded CI host, a cold cache) from
    moving the gate; the window keeps genuine speedups from being held
    hostage by ancient slow records.
    """
    if not records:
        return None
    tail = records[-window:] if window > 0 else records
    return float(median(r.steps_per_s for r in tail))


@dataclass(frozen=True)
class GateResult:
    """The regression gate's verdict for one new record."""

    record: BenchRecord
    baseline: float | None  # rolling-baseline steps_per_s, None on first run
    ratio: float | None  # new / baseline
    status: str  # "ok" | "no-baseline" | "regression"

    def describe(self) -> str:
        label = self.record.key_label()
        if self.status == "no-baseline":
            return f"{label}: no committed baseline yet (gate seeds itself)"
        pct = (self.ratio - 1.0) * 100.0
        return (
            f"{label}: {self.record.steps_per_s:.2f} steps/s vs rolling "
            f"baseline {self.baseline:.2f} ({pct:+.1f}%)"
        )


def check_regression(
    history: BenchHistory,
    new_records: list[BenchRecord],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> list[GateResult]:
    """Gate new records against the history's rolling baselines.

    ``history`` must be the *pre-append* store: a record is never compared
    against itself.  A record regresses when its ``steps_per_s`` falls
    below ``(1 - threshold)`` of its key's rolling baseline.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    out = []
    for rec in new_records:
        base = rolling_baseline(history.matching(rec.key()), window)
        if base is None or base <= 0.0:
            out.append(GateResult(rec, None, None, "no-baseline"))
            continue
        ratio = rec.steps_per_s / base
        status = "regression" if ratio < (1.0 - threshold) else "ok"
        out.append(GateResult(rec, base, ratio, status))
    return out


def regressions(results: list[GateResult]) -> list[GateResult]:
    """Just the failing verdicts."""
    return [g for g in results if g.status == "regression"]


# -- shared bench-script plumbing ----------------------------------------------


def detect_git_sha() -> str:
    """Short sha of HEAD, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_context() -> dict:
    """Host constants recorded with every measurement."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def build_memory_snapshot() -> dict:
    """The ``md.*`` build-memory gauges as a BenchRecord ``memory`` dict.

    Read *after* the warm-up step (the first neighbour search populates
    the gauges) and *before* ``METRICS.reset()`` wipes them.
    """
    return {
        "pairlist_bytes": int(METRICS.gauge("md.pairlist.bytes").value),
        "cells_bytes": int(METRICS.gauge("md.cells.bytes").value),
        "build_peak_bytes": int(METRICS.gauge("md.build.peak_bytes").value),
        "build_peak_bytes_per_atom": float(
            METRICS.gauge("md.build.peak_bytes_per_atom").value
        ),
    }


def add_history_flags(parser) -> None:
    """The committed-history and regression-gate flags of a bench script."""
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="committed bench-history file to append to "
                             f"(default: {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not read or append the committed history")
    parser.add_argument("--git-sha", default=None,
                        help="record provenance (default: git rev-parse)")
    parser.add_argument("--timestamp", default=None,
                        help="record timestamp — CI passes its own; defaults "
                             "to $BENCH_TIMESTAMP or the current UTC time")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit non-zero) when a new record regresses "
                             "more than --threshold vs its rolling baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional steps/s loss that fails --check "
                             f"(default: {DEFAULT_THRESHOLD:.2f})")
    parser.add_argument("--baseline-window", type=int, default=DEFAULT_WINDOW,
                        help="records per key folded into the rolling baseline "
                             f"(default: {DEFAULT_WINDOW})")


def provenance(args) -> tuple[str, str]:
    """(git sha, timestamp) to stamp this run's records with."""
    return (
        args.git_sha or detect_git_sha(),
        args.timestamp
        or os.environ.get("BENCH_TIMESTAMP")
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def commit_records(args, new_records: list[BenchRecord], what: str) -> None:
    """Append new records to ``args.history`` and gate them (``--check``).

    The gate compares against the pre-append store so no record compares
    to itself, but the store is saved first: a failing run must still
    leave its evidence behind.  ``what`` names the measured thing in the
    verdict line ("step-throughput", "strong-scaling").
    """
    history = BenchHistory.load(args.history)
    gate = check_regression(
        history, new_records,
        threshold=args.threshold, window=args.baseline_window,
    )
    for rec in new_records:
        history.append(rec)
    history.save()
    print(f"appended {len(new_records)} record(s) to {history.path} "
          f"({len(history.records)} total)")
    for g in gate:
        print(f"  gate: {g.describe()}")
    if args.check:
        failed = regressions(gate)
        if failed:
            raise SystemExit(
                f"FAILED: {len(failed)} record(s) regress more than "
                f"{args.threshold:.0%} vs the rolling baseline "
                f"(window {args.baseline_window})"
            )
        print(f"OK: no {what} regression beyond {args.threshold:.0%}")
