"""Backend interface and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.dd.exchange import ClusterState


class HaloBackend(ABC):
    """A coordinate/force halo-exchange implementation.

    Contract: after :meth:`exchange_coordinates`, every rank's halo slots
    hold the peers' current (shifted) coordinates; after
    :meth:`exchange_forces`, every halo force contribution has been folded
    back into its owning rank's home (or earlier-pulse halo) rows.  Results
    must be bit-identical to the serialized reference exchange up to
    floating-point accumulation order.

    Backends exchange **in place**: the arrays in ``cluster.local_*`` are
    the ones the rank executor computes on (for the process executor,
    views of its shared-memory arena), installed before :meth:`bind`
    runs.  A backend may keep references to them until the next
    :meth:`bind`, but must never replace an entry of ``cluster.local_*``
    with another array.
    """

    name: str = "abstract"

    @abstractmethod
    def bind(self, cluster: ClusterState) -> None:
        """(Re)allocate per-plan resources; called after neighbour search,
        once the executor's arrays are installed in ``cluster``."""

    @abstractmethod
    def exchange_coordinates(self, cluster: ClusterState, on_pulse: None = None) -> None:
        """Run all coordinate pulses (z, y, x phases with forwarding).

        ``on_pulse`` is accepted and ignored only because the frozen
        benchmark's span wrapper (``bench/spans.py``) forwards
        ``on_pulse=None`` to every backend; ROADMAP item 6 drops that
        forwarding and then this keyword.
        """

    @abstractmethod
    def exchange_forces(self, cluster: ClusterState) -> None:
        """Run the reverse force pulses with accumulation."""


backend_registry: dict[str, Callable[..., HaloBackend]] = {}


def register_backend(name: str) -> Callable:
    """Class decorator adding a backend to the registry."""

    def deco(cls):
        backend_registry[name] = cls
        cls.name = name
        return cls

    return deco


def make_backend(name: str, **kwargs) -> HaloBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = backend_registry[name]
    except KeyError:
        raise KeyError(
            f"unknown backend '{name}', available: {sorted(backend_registry)}"
        ) from None
    return factory(**kwargs)
