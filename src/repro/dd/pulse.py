"""Per-pulse halo-exchange metadata (the paper's ``PulseData``, Algorithm 1).

One ``PulseData`` exists per rank per pulse.  Within a pulse every rank both
sends (its ``index_map`` selection, to ``send_rank``) and receives (the
``recv_size`` entries stored at ``atom_offset``, from ``recv_rank``) — the
per-dimension exchanges form rings.

The dependency split of Algorithm 4 lives here: ``index_map`` is ordered with
*independent* entries (home atoms, local index < n_home) first and
*dependent* entries (atoms received in earlier pulses of the same exchange,
which cannot be packed until those pulses complete) after ``dep_offset``.
``depends_on`` lists the exact earlier pulse ids feeding the dependent part,
matching the paper's ``firstDependentPulse`` chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PulseData:
    """Metadata for one communication pulse on one rank."""

    pulse_id: int  # position in the global pulse order [z.., y.., x..]
    dim: int  # 0=x, 1=y, 2=z
    pulse_in_dim: int  # index of this pulse within its dimension
    rank: int
    send_rank: int  # peer this rank's selection is sent to (-dim neighbour)
    recv_rank: int  # peer whose selection this rank receives (+dim neighbour)
    index_map: np.ndarray  # local indices to pack, independent-first
    dep_offset: int  # count of independent entries in index_map
    depends_on: tuple[int, ...]  # earlier pulse ids the dependent part needs
    coord_shift: np.ndarray  # (3,) float shift applied when packing (PBC image)
    atom_offset: int  # local index where received entries are stored
    recv_size: int

    def __post_init__(self) -> None:
        self.index_map = np.asarray(self.index_map, dtype=np.int64)
        self.coord_shift = np.asarray(self.coord_shift, dtype=np.float64)
        if self.coord_shift.shape != (3,):
            raise ValueError("coord_shift must have shape (3,)")
        if not 0 <= self.dep_offset <= self.index_map.size:
            raise ValueError(
                f"dep_offset {self.dep_offset} outside [0, {self.index_map.size}]"
            )
        if self.recv_size < 0 or self.atom_offset < 0:
            raise ValueError("recv_size and atom_offset must be non-negative")
        if any(d >= self.pulse_id for d in self.depends_on):
            raise ValueError("pulses may only depend on earlier pulses")

    @property
    def send_size(self) -> int:
        return int(self.index_map.size)

    @property
    def independent_map(self) -> np.ndarray:
        """Entries that can be packed immediately (home atoms)."""
        return self.index_map[: self.dep_offset]

    @property
    def dependent_map(self) -> np.ndarray:
        """Entries waiting on earlier pulses' received data."""
        return self.index_map[self.dep_offset :]

    @property
    def first_dependent_pulse(self) -> int | None:
        """Earliest pulse id the dependent part waits on (None if none)."""
        return min(self.depends_on) if self.depends_on else None

    def send_bytes(self, per_entry: int = 12) -> int:
        """Bytes on the wire for this pulse (float3 coordinates by default)."""
        return self.send_size * per_entry
