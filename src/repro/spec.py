"""``SimulationSpec``: the one canonical description of a run.

A frozen, schema-versioned, JSON-round-trippable value object naming the
system, the decomposition, the backend/executor registry entries, every
tuning knob, the seed, and — for chaos jobs — an embedded
:class:`repro.faultplan.FaultPlan`.

It is also the only place a serialisable knob is *declared*: each field
carries its default, its help text, its allowed values (read from the
registry or constant that owns them) and its command-line parser as
dataclass metadata.  Validation, the CLI and the benchmark scripts are
generated from that one declaration (:func:`add_spec_flags`,
:func:`spec_from_args`), and simulators take their keyword arguments from
it by field name (:meth:`SimulationSpec.knobs_for`, used by
``DDSimulator.from_spec``), so a knob cannot be re-defaulted or dropped
on the way.

There is one way to run a spec: ``DDSimulator.from_spec(spec)`` builds the
simulator and :func:`repro.run.execute_spec` is the run body the CLIs
call.  Specs also arrive from outside the process — chaos artifacts and
``repro chaos --replay`` persist them as JSON — which is why ``from_dict``
rejects unknown fields and foreign schema versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.comm import backend_registry
from repro.dd.dlb import DLB_MODES
from repro.faultplan import FaultPlan
from repro.md.grappa import resolve_atoms
from repro.md.kernels import KERNEL_DTYPES, kernel_registry
from repro.par import executor_registry

#: Spec schema version; bump on incompatible field changes.  v2 dropped
#: the pair-list build-memory cap, v3 the ``coulomb`` field (reaction
#: field is the only electrostatics).
SPEC_VERSION = 3

#: What a job does with the simulator the spec describes.
KINDS = ("simulate", "verify", "profile", "chaos")

#: Fields a spec shares by name with the simulators but not by type: the
#: spec carries a label or registry name, the simulator the built object.
_BUILT_FIELDS = ("system", "backend", "executor")


def _check_schema(version) -> None:
    if version != SPEC_VERSION:
        raise ValueError(
            f"unsupported spec schema_version {version} "
            f"(this build speaks {SPEC_VERSION})"
        )


def _knob(default, help: str, *, choices=None):
    """A spec field plus everything a command-line flag for it needs.

    ``choices`` is the owning registry or constant itself, not a copy, so
    entries registered later are accepted.  ``parse``, the argparse
    ``type``, is the type of a numeric ``default``.
    """
    parse = type(default) if type(default) in (int, float) else None
    return field(
        default=default,
        metadata={"help": help, "choices": choices, "parse": parse},
    )


@dataclass(frozen=True)
class SimulationSpec:
    """Frozen description of one simulation / profile / chaos job.

    Everything is JSON-serializable by construction: backends and
    executors are registry *names* (instances never enter a spec), the
    DD grid is an optional explicit ``shape``, and the optional chaos
    plan nests as its own dict.  ``from_dict`` rejects unknown fields and
    foreign schema versions, so persisted specs (chaos artifacts) are safe
    to load.
    """

    # -- what to run ----------------------------------------------------------
    kind: str = _knob("simulate", "what the job does with the simulator", choices=KINDS)
    system: str = _knob(
        "1400", "atom count or grappa label (e.g. 45k, grappa-45k, slab-45k)"
    )
    steps: int = _knob(10, "MD steps to run")
    # -- decomposition --------------------------------------------------------
    ranks: int = _knob(4, "DD rank count")
    shape: tuple[int, int, int] | None = None  # explicit DD grid (overrides ranks)
    max_pulses: int = _knob(1, "halo pulses allowed per dimension")
    # -- backend / executor (registry names only) ----------------------------
    backend: str = _knob(
        "reference", "halo-exchange backend (see repro.comm)", choices=backend_registry
    )
    executor: str = _knob(
        "serial", "rank executor for functional runs (see repro.par)",
        choices=executor_registry,
    )
    pes_per_node: int = _knob(
        0, "nvshmem topology: 1 = all-IB, n_ranks = all-NVLink (0 = backend default)"
    )
    # -- tuning knobs ---------------------------------------------------------
    nstlist: int = _knob(10, "steps between neighbour searches")
    buffer: float = _knob(0.12, "pair-list buffer beyond the cutoff (nm)")
    dt: float = _knob(0.002, "leap-frog time step (ps)")
    cutoff: float = _knob(0.65, "non-bonded cutoff (nm)")
    trim_corners: bool = False
    overlap_comm: bool = True
    kernel: str = _knob(
        "cluster", "non-bonded kernel for functional runs (repro.md.kernels)",
        choices=kernel_registry,
    )
    kernel_dtype: str = _knob(
        "float64", "kernel compute precision (float32 = fast path)",
        choices=KERNEL_DTYPES,
    )
    dlb: str = _knob(
        "off",
        "dynamic load balancing for functional runs: 'pairs' resizes "
        "DD cells from deterministic per-rank pair counts, 'measured' "
        "from wall-clock rank timings (see repro.dd.dlb)",
        choices=DLB_MODES,
    )
    # -- determinism ----------------------------------------------------------
    seed: int = _knob(7, "system (and nvshmem topology) RNG seed")
    # -- chaos ----------------------------------------------------------------
    fault_plan: FaultPlan | None = None
    n_faults: int = _knob(4, "faults per plan when a chaos job generates one")
    # -- schema ---------------------------------------------------------------
    schema_version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        _check_schema(self.schema_version)
        if not isinstance(self.backend, str) or not isinstance(self.executor, str):
            raise TypeError(
                "specs carry backend/executor registry *names*; pass instances "
                "to DDSimulator directly if you need one-off objects"
            )
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ValueError(
                    f"unknown spec {f.name} '{value}'; "
                    f"registered {f.name}s: {', '.join(choices)}"
                )
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.shape is not None:
            object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        resolve_atoms(self.system)  # fail fast with the actionable system error
        if self.kind == "chaos" and self.dlb == "measured":
            raise ValueError(
                "chaos jobs cannot use dlb='measured': the bit-identity "
                "oracle re-runs the same spec on the reference backend, and "
                "wall-clock-driven resizing would diverge the two "
                "decompositions; use the deterministic 'pairs' mode"
            )

    # -- derived --------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return resolve_atoms(self.system)

    @property
    def n_ranks(self) -> int:
        return math.prod(self.shape) if self.shape is not None else self.ranks

    def knobs_for(self, cls) -> dict[str, Any]:
        """Keyword arguments for simulator dataclass ``cls``, by field name.

        The one mapping from spec to simulator: every init field of
        ``cls`` that the spec also declares is passed through, so adding
        a knob to both is all it takes for it to arrive.  The fields in
        ``_BUILT_FIELDS`` are left to the caller, who builds the objects.
        """
        mine = {f.name for f in fields(self)} - set(_BUILT_FIELDS)
        return {
            f.name: getattr(self, f.name)
            for f in fields(cls)
            if f.init and f.name in mine
        }

    def with_(self, **changes: Any) -> "SimulationSpec":
        """A copy with the named fields replaced (specs are frozen)."""
        return replace(self, **changes)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.shape is not None:
            d["shape"] = list(self.shape)
        d["fault_plan"] = self.fault_plan.to_dict() if self.fault_plan else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationSpec":
        """The spec a dict describes.  The schema version is checked
        first: a spec from another version fails on that, not on the
        fields the versions do not share."""
        d = dict(d)
        _check_schema(d.get("schema_version", SPEC_VERSION))
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown SimulationSpec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if d.get("shape") is not None:
            d["shape"] = tuple(int(x) for x in d["shape"])
        if d.get("fault_plan") is not None:
            d["fault_plan"] = FaultPlan.from_dict(d["fault_plan"])
        return cls(**d)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationSpec":
        return cls.from_dict(json.loads(text))


# -- command-line flags generated from the field declarations ------------------


def add_spec_flags(parser, *field_names: str, **overrides: dict) -> None:
    """Add one ``--flag`` per named spec field, built from its metadata.

    ``overrides`` maps a field name to ``add_argument`` keywords that
    replace the generated ones — a command whose default or help differs
    from the spec's says so here, and nowhere else.
    """
    declared = {f.name: f for f in fields(SimulationSpec)}
    for name in field_names:
        f, meta = declared[name], declared[name].metadata
        kwargs = dict(
            default=f.default, help=meta["help"], type=meta["parse"],
            choices=meta["choices"] and tuple(meta["choices"]),
        )
        kwargs.update(overrides.get(name, {}))
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def spec_from_args(
    args, base: SimulationSpec | None = None, **fixed: Any
) -> SimulationSpec:
    """The spec a parsed command line describes.

    Starts from ``base`` (default: the spec defaults), takes every
    attribute of ``args`` named after a spec field, then applies
    ``fixed`` — what the command pins regardless of its flags.
    """
    known = {f.name for f in fields(SimulationSpec)}
    picked = {k: v for k, v in vars(args).items() if k in known}
    return replace(base or SimulationSpec(), **{**picked, **fixed})
