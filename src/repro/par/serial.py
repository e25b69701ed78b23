"""Serial executor: ranks in order in the caller, the bit-exactness reference."""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.obs.metrics import METRICS
import repro.par.base as par_base
from repro.par.base import RankExecutor, register_executor
from repro.par.phases import PHASES, RankNsData, RankWorkspace


@register_executor("serial")
class SerialExecutor(RankExecutor):
    """Runs every rank's phase in order in the calling thread."""

    def __init__(self) -> None:
        super().__init__()
        self._ws: list[RankWorkspace] = []

    def bind(
        self,
        fields: list[dict[str, np.ndarray]],
        ns: list[RankNsData],
    ) -> list[dict[str, np.ndarray]]:
        self._check_fields(fields)
        self._ws = [
            RankWorkspace(cfg=self._cfg, ns=ns[r], **fields[r])
            for r in range(self.n_ranks)
        ]
        self._bound = True
        return fields

    def _dispatch(self, phase: str) -> Any:
        return None

    def _collect(self, phase: str, token: Any) -> list[Any]:
        fn = PHASES[phase]
        out = []
        for rank, ws in enumerate(self._ws):
            t0 = time.perf_counter_ns()
            # Inside the timed window, so an injected straggler lengthens
            # this rank's phase in ``par.rank_us`` as a slow rank would.
            if par_base.phase_chaos is not None:
                par_base.phase_chaos(phase, rank)
            out.append(fn(ws))
            dur_us = (time.perf_counter_ns() - t0) / 1000.0
            METRICS.histogram(
                "par.rank_us", executor=self.name, phase=phase, rank=str(rank)
            ).observe(dur_us)
            self._note_rank_us(rank, dur_us)
        return out
