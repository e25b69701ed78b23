"""Seeded fault plans: what to break, where, and for how long.

A :class:`FaultPlan` is a small, JSON-serializable description of the
faults one chaos run injects.  Plans are generated from a seed (so a
campaign is just a range of seeds), and shrunk plans are dumped as JSON
artifacts that replay deterministically (``repro chaos --replay``).

Fault kinds
-----------
``delay_task``
    Hold a runnable scheduler task (matched by name substring) for
    ``count`` extra rounds — a slow threadblock group.
``hide_signal``
    Make a *set* signal slot invisible for ``count`` polls — reordered
    signal visibility (store buffering, NIC completion reordering).
``drop_op``
    Skip the ``count``-th intercepted proxy operation once, requeueing it
    at the back of the queue — a retried IB transport.
``perturb_phase``
    Sleep ``delay_us`` before a rank's phase — inside the rank's timed
    window on the serial executor, at parent-side dispatch on the process
    executor — a straggler rank.
``defer_notify``
    Shuffle the cross-rank order of ``on_pulse`` notifications (per-rank
    pulse order is preserved, as the backend contract requires), seeded by
    ``count`` — a callback arriving in a different delivery order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

#: All fault kinds, in generation-weight order.
FAULT_KINDS = ("delay_task", "hide_signal", "drop_op", "perturb_phase", "defer_notify")

#: Kinds meaningful for backends that do not use the scheduler/NVSHMEM
#: substrate (reference, mpi, threadmpi).
GENERIC_KINDS = ("perturb_phase", "defer_notify")

_SIGNAL_NAMES = ("coordSig", "forceSig")
_TASK_PREFIXES = ("coordX", "serveF", "accF")
_PHASES = ("pairs", "forces_local", "forces_nonlocal", "integrate")


@dataclass(frozen=True)
class Fault:
    """One injected fault; fields unused by a kind keep their defaults."""

    kind: str
    target: str = ""  # task-name substring / signal name / phase name
    rank: int = -1  # -1 matches any rank / PE
    pulse: int = -1  # -1 matches any pulse / signal slot
    count: int = 1  # rounds held / polls hidden / op ordinal / defer sub-seed
    delay_us: float = 0.0  # perturb_phase sleep

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}', use one of {FAULT_KINDS}")
        if self.count < 0:
            raise ValueError("count must be >= 0")

    def describe(self) -> str:
        bits = [self.kind]
        if self.target:
            bits.append(self.target)
        if self.rank >= 0:
            bits.append(f"rank={self.rank}")
        if self.pulse >= 0:
            bits.append(f"pulse={self.pulse}")
        bits.append(f"count={self.count}")
        if self.delay_us:
            bits.append(f"delay_us={self.delay_us:g}")
        return "[" + " ".join(bits) + "]"


@dataclass
class FaultPlan:
    """A seeded set of faults for one chaos run."""

    seed: int
    faults: list[Fault] = field(default_factory=list)

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def describe(self) -> str:
        if not self.faults:
            return f"plan(seed={self.seed}, no faults)"
        return f"plan(seed={self.seed}, " + " ".join(f.describe() for f in self.faults) + ")"

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 4,
        n_ranks: int = 4,
        n_pulses: int = 2,
        backend: str = "nvshmem",
    ) -> "FaultPlan":
        """Draw ``n_faults`` faults from the seeded distribution.

        Backends without a scheduler/NVSHMEM substrate only receive the
        generic kinds (phase perturbation, notification deferral).
        """
        rng = np.random.default_rng(seed)
        kinds = FAULT_KINDS if backend == "nvshmem" else GENERIC_KINDS
        faults = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            rank = int(rng.integers(-1, n_ranks))
            pulse = int(rng.integers(-1, n_pulses))
            if kind == "delay_task":
                prefix = _TASK_PREFIXES[int(rng.integers(len(_TASK_PREFIXES)))]
                target = prefix if rank < 0 else f"{prefix}[rank={rank}"
                faults.append(
                    Fault(kind, target=target, rank=rank, pulse=pulse,
                          count=int(rng.integers(1, 7)))
                )
            elif kind == "hide_signal":
                name = _SIGNAL_NAMES[int(rng.integers(len(_SIGNAL_NAMES)))]
                faults.append(
                    Fault(kind, target=name, rank=rank, pulse=pulse,
                          count=int(rng.integers(1, 9)))
                )
            elif kind == "drop_op":
                faults.append(Fault(kind, count=int(rng.integers(1, 9))))
            elif kind == "perturb_phase":
                phase = _PHASES[int(rng.integers(len(_PHASES)))]
                faults.append(
                    Fault(kind, target=phase, rank=rank,
                          delay_us=float(rng.integers(50, 501)))
                )
            else:  # defer_notify
                faults.append(Fault(kind, count=int(rng.integers(0, 1 << 16))))
        return cls(seed=seed, faults=faults)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [asdict(f) for f in self.faults]}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(seed=int(d["seed"]), faults=[Fault(**f) for f in d.get("faults", [])])

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
