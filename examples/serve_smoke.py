"""Serve smoke test: one server, concurrent jobs, cache hits, bit-identity.

Boots a :class:`repro.serve.engine.JobEngine` with its JSON-RPC HTTP
front end in-process, submits three concurrent jobs over the wire — two
simulations sharing a system key plus one chaos job with an embedded
:class:`~repro.faultplan.FaultPlan` — and then asserts the service
contract end to end:

1. every job reaches ``done``;
2. the artifact cache recorded at least one hit (the second simulation
   reuses the first one's system template, DD grid, and step-0 cluster);
3. the served simulation's positions digest is **bit-identical** to the
   same spec executed on the blocking CLI path (``submit_and_wait`` with
   no server).

CI runs this as the ``serve`` job's core step::

    PYTHONPATH=src python examples/serve_smoke.py
"""

from __future__ import annotations

from repro.faultplan import FaultPlan
from repro.serve import JobEngine, ServeClient, SimulationSpec, start_server, submit_and_wait

SIM = SimulationSpec(system="3000", steps=4, ranks=4, nstlist=2, seed=7)
CHAOS = SimulationSpec(
    kind="chaos", system="1400", steps=2, shape=(1, 1, 4), max_pulses=2,
    backend="nvshmem", pes_per_node=2, seed=3, nstlist=2,
    fault_plan=FaultPlan.generate(1, n_faults=3, n_ranks=4, n_pulses=2,
                                  backend="nvshmem"),
)


def main() -> None:
    print("serve smoke: blocking-path baseline ...")
    baseline = submit_and_wait(SIM)
    print(f"  digest {baseline['digest'][:16]}..., "
          f"{baseline['ms_per_step']:.1f} ms/step")

    print("serve smoke: starting engine + JSON-RPC server ...")
    with JobEngine(workers=3) as engine:
        server, url = start_server(engine, port=0)
        try:
            client = ServeClient(url)
            assert client.ping(), "server did not answer ping"
            # Three concurrent jobs: two sims sharing a system key (the
            # second must hit the cache) and one fault-injected chaos run.
            ids = [client.submit(SIM),
                   client.submit(SIM.with_(kind="profile")),
                   client.submit(CHAOS)]
            results = [client.result(i, timeout=600.0) for i in ids]
            stats = client.stats()
        finally:
            server.shutdown()

    assert stats["jobs"]["done"] == 3, f"not all jobs done: {stats['jobs']}"
    print(f"  all 3 jobs done (queue stats: {stats['jobs']})")

    hits = stats["cache"]["hits"]
    assert hits > 0, f"artifact cache recorded no hits: {stats['cache']}"
    print(f"  artifact cache: {hits} hits / {stats['cache']['misses']} misses")

    assert results[0]["digest"] == baseline["digest"], (
        f"served digest {results[0]['digest']} != blocking "
        f"{baseline['digest']}"
    )
    assert results[1]["digest"] == baseline["digest"], "profile job diverged"
    print("  served trajectories bit-identical to the blocking path")

    assert results[2]["ok"], f"chaos job violations: {results[2]['violations']}"
    print(f"  chaos job clean under {len(CHAOS.fault_plan.faults)} injected faults")

    print("OK: serve smoke passed (3 concurrent jobs, cache hit, bit-identity)")


if __name__ == "__main__":
    main()
