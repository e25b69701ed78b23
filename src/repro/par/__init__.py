"""True-parallel rank execution for the DD engine.

The paper's whole point is overlapping per-rank work so communication
stops serializing the step; this package gives the functional engine the
same property.  :class:`~repro.par.base.RankExecutor` abstracts *how* the
per-rank phases (pair search, forces, integration — see
:mod:`repro.par.phases`) are scheduled:

* :class:`~repro.par.serial.SerialExecutor` (``"serial"``) — in-order,
  in-thread; the bit-exactness reference.
* :class:`~repro.par.process.ProcessExecutor` (``"process"``) — persistent
  worker processes over a shared-memory arena; only indices cross process
  boundaries.

Both produce bit-identical trajectories: per-rank work has no cross-rank
reduction, and the engine sums rank results in rank order.  The executor
owns the per-rank arrays (``bind`` returns them, the engine installs them,
halo backends exchange in place on them); why there are exactly two
executors is recorded, with the measurements, in DESIGN.md §4.
"""

from repro.par.base import (
    RankExecutor,
    executor_registry,
    make_executor,
    register_executor,
)
from repro.par.imbalance import imbalance_pct, summarize_imbalance
from repro.par.phases import (
    FIELDS,
    PHASES,
    RankConfig,
    RankNsData,
    RankWorkspace,
    SplitPairs,
)
from repro.par.process import ProcessExecutor
from repro.par.serial import SerialExecutor

__all__ = [
    "FIELDS",
    "PHASES",
    "ProcessExecutor",
    "RankConfig",
    "RankExecutor",
    "RankNsData",
    "RankWorkspace",
    "SerialExecutor",
    "SplitPairs",
    "executor_registry",
    "imbalance_pct",
    "make_executor",
    "register_executor",
    "summarize_imbalance",
]
