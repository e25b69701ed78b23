"""The reference backend: synchronous serialized halo exchange.

This is the paper's "baseline (serialized pulses)" formulation wrapped in
the :class:`~repro.comm.base.HaloBackend` interface — the simplest correct
implementation and the default for :class:`repro.dd.engine.DDSimulator`.
It delegates to the lock-step reference exchanges in
:mod:`repro.dd.exchange`, which every other backend must match
bit-for-bit.
"""

from __future__ import annotations

from repro.comm.base import HaloBackend, register_backend
from repro.dd.exchange import (
    ClusterState,
    reference_coordinate_exchange,
    reference_force_exchange,
)


@register_backend("reference")
class ReferenceBackend(HaloBackend):
    """Synchronous serialized reference exchange (lock-step pulses)."""

    def bind(self, cluster: ClusterState) -> None:
        pass

    def exchange_coordinates(self, cluster: ClusterState, on_pulse=None) -> None:
        reference_coordinate_exchange(cluster)

    def exchange_forces(self, cluster: ClusterState) -> None:
        reference_force_exchange(cluster)
