"""``repro.serve``: the multi-tenant simulation job service.

One process, many concurrent simulation/profile/verify/chaos jobs:

* :mod:`repro.spec` — :class:`SimulationSpec`, the frozen
  JSON-round-trippable description of a run that both the blocking CLIs
  and the service execute (core, re-exported here);
* :mod:`repro.serve.runner` — :func:`execute_spec`, the one job body;
* :mod:`repro.serve.cache` — :class:`ArtifactCache`, derived-state reuse
  across jobs that share a system key;
* :mod:`repro.serve.engine` — :class:`JobEngine`, the asyncio queue +
  worker pool with retry-on-worker-death;
* :mod:`repro.serve.rpc` / :mod:`repro.serve.client` — JSON-RPC 2.0 over
  HTTP (stdlib only) and its client, plus :func:`submit_and_wait`, the
  call every CLI routes through.

Start a server with ``python -m repro serve``; submit with
``python -m repro submit spec.json`` or any CLI's ``--server`` flag.
"""

from repro.serve.cache import ArtifactCache
from repro.serve.client import RpcError, ServeClient, run_local, submit_and_wait
from repro.serve.engine import JobEngine
from repro.serve.jobs import Job, JobCancelled
from repro.serve.runner import execute_spec, positions_digest
from repro.serve.rpc import make_server, start_server
from repro.spec import KINDS, SPEC_VERSION, SimulationSpec

__all__ = [
    "ArtifactCache",
    "Job",
    "JobCancelled",
    "JobEngine",
    "KINDS",
    "RpcError",
    "SPEC_VERSION",
    "ServeClient",
    "SimulationSpec",
    "execute_spec",
    "make_server",
    "positions_digest",
    "run_local",
    "start_server",
    "submit_and_wait",
]
