"""Every step's energies, the guard's re-prunes and the evaluated inner
pairs of a 32-rank run, pinned by sha256.

``traj_digest`` and the other position pins hash coordinates only: a
change to the kinetic energy's summation order, or to the guard's
re-prune decisions, would pass them.  This run hashes what they miss:
the floats of every :class:`~repro.md.reference.StepEnergies` record,
the final positions and velocities, the ``md.prune.count`` total and
the sum over steps of ``md.pairs_inner``.

The run is the 6k system on 2×4×4 with the benchmark's constants
(cutoff 0.65, buffer 0.12, ``nstlist`` 10, ``dt`` 0.0005) for 40 steps:
four searches and ≈100 guard re-prunes in between.  Three variants:
serial float64, serial float32 (a float32 system and the float32
kernel), and the process executor in float64, which must read the
serial float64 pins.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import default_forcefield, make_system
from repro.obs.metrics import METRICS
from repro.par import make_executor

STEPS = 40

#: sha256 of the energy floats, of the final positions + velocities,
#: then the re-prune total and the summed inner pairs.
PINS = {
    "float64": (
        "2c94186f12f047e81a538a071f8237e319f5087fbb0e44f40fac9d574fc42974",
        "099fa98232d4a890c485f856ae0dde25a6ad6d5e9943c0b8adde21c04e2a7493",
        107,
        18072729,
    ),
    "float32": (
        "d1e9bd6fe65f421eddae6aeff5ac67224b2f793c84a61aaa2ed13bcd1c0b6888",
        "04d08815ef544066f3dd7ba95913e5cff67d5ae99b09d3a59ea9e2ee772e815e",
        107,
        18072746,
    ),
}


def _run(executor: str, dtype: str) -> tuple[str, str, int, int]:
    ff = default_forcefield(cutoff=0.65)
    system = make_system("6k", seed=4242, ff=ff, dtype=np.dtype(dtype))
    kwargs = {"max_workers": 2} if executor == "process" else {}
    prunes = METRICS.counter("md.prune.count")
    before = prunes.value
    energies = hashlib.sha256()
    pairs_inner = 0
    with DDSimulator(
        system, ff, grid=DDGrid((2, 4, 4)), backend="nvshmem",
        executor=make_executor(executor, **kwargs), nstlist=10, buffer=0.12,
        dt=0.0005, kernel="cluster", kernel_dtype=dtype,
    ) as sim:
        for _ in range(STEPS):
            rec = sim.step()
            # 0.0 where the bonded energy was packed keeps the pins' bytes.
            energies.update(struct.pack(
                "<q4d", rec.step, rec.lj, rec.coulomb, rec.kinetic, 0.0,
            ))
            pairs_inner += int(METRICS.gauge("md.pairs_inner").value)
        state = hashlib.sha256(
            np.ascontiguousarray(sim.system.positions).tobytes()
            + np.ascontiguousarray(sim.system.velocities).tobytes()
        )
    return energies.hexdigest(), state.hexdigest(), prunes.value - before, pairs_inner


@pytest.mark.parametrize(
    "executor, dtype",
    [("serial", "float64"), ("serial", "float32"), ("process", "float64")],
)
def test_energies_and_guard_decisions_are_pinned(executor, dtype):
    assert _run(executor, dtype) == PINS[dtype]
