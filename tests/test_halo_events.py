"""Event-driven NVSHMEM halo exchange: poll budget, interleavings, staleness.

Runs on the ``halo-ib-64r`` benchmark shape (12k atoms, 4x4x4 ranks, one
pulse per dimension) so the counts asserted here are the ones the
benchmark's ``nvshmem.polls_per_wait`` reports.
"""

import numpy as np
import pytest

from repro.comm import NvshmemBackend
from repro.dd.decomposition import DomainDecomposition
from repro.dd.exchange import (
    build_cluster,
    gather_forces,
    reference_coordinate_exchange,
    reference_force_exchange,
)
from repro.dd.grid import DDGrid
from repro.md import make_system
from repro.nvshmem.runtime import PendingOp
from repro.obs.metrics import METRICS

BUFFER = 0.12
#: Relative force tolerance of the benchmark's own check of this exchange.
FORCE_RTOL = 1e-12


@pytest.fixture(scope="module")
def decomposed(ff):
    system = make_system("12k", seed=7, ff=ff, dtype=np.float64)
    dd = DomainDecomposition(
        grid=DDGrid((4, 4, 4)), box=system.box, r_comm=ff.cutoff + BUFFER, max_pulses=1
    )
    return system, dd


def _fill(cluster, seed):
    """Poison halo coordinates; give every force row a seeded value."""
    rng = np.random.default_rng(seed)
    cluster.invalidate_halo_coords()
    for forces in cluster.local_forces:
        forces[...] = rng.standard_normal(forces.shape)


def _reference(system, dd, seed):
    twin = build_cluster(system, dd)
    _fill(twin, seed)
    reference_coordinate_exchange(twin)
    reference_force_exchange(twin)
    return twin


def _exchange(backend, cluster):
    backend.exchange_coordinates(cluster)
    backend.exchange_forces(cluster)


def _assert_matches(cluster, twin):
    for r in range(cluster.n_ranks):
        assert np.array_equal(cluster.local_pos[r], twin.local_pos[r]), f"rank {r} coordinates"
    got, want = gather_forces(cluster), gather_forces(twin)
    assert np.abs(got - want).max() <= FORCE_RTOL * np.abs(want).max()
    return got


def _growth(names):
    """Totals of the named metrics (all label sets), as a snapshot."""
    return {
        n: sum(
            m.sum if hasattr(m, "sum") else m.value
            for name, _labels, m in METRICS.collect()
            if name == n
        )
        for n in names
    }


def test_poll_budget_on_the_ib_shape(decomposed):
    """At most two polls per satisfied wait (one on arrival, one per
    wake-up), one stall round per proxied put, no rescue re-poll."""
    system, dd = decomposed
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=8, seed=7)
    backend.bind(cluster)
    names = (
        "nvshmem.signal.polls", "nvshmem.signal.waits_satisfied", "nvshmem.put_signals",
        "comm.stall_rounds", "comm.sched.repolls", "comm.sched.wakeups",
    )
    before = _growth(names)
    for _ in range(3):
        _exchange(backend, cluster)
    after = _growth(names)
    grown = {n: after[n] - before[n] for n in names}
    n_waits = grown["nvshmem.signal.waits_satisfied"]
    # One force wait per (rank, pulse) + one coordinate wait per dependency.
    assert n_waits == 3 * (
        sum(len(p.depends_on) for rp in cluster.plan.ranks for p in rp.pulses)
        + cluster.n_ranks * cluster.plan.n_pulses
    )
    assert grown["nvshmem.signal.polls"] <= 2.0 * n_waits
    assert grown["nvshmem.put_signals"] > 0
    assert grown["comm.stall_rounds"] == grown["nvshmem.put_signals"]
    assert grown["comm.sched.repolls"] == 0
    assert grown["comm.sched.wakeups"] > 0


@pytest.mark.parametrize("pes_per_node", [1, 8, 64], ids=["all-ib", "8-per-node", "all-nvlink"])
def test_any_interleaving_matches_the_reference(decomposed, pes_per_node):
    system, dd = decomposed
    twin = _reference(system, dd, seed=11)
    cluster = build_cluster(system, dd)
    forces = []
    for seed in range(10):
        backend = NvshmemBackend(pes_per_node=pes_per_node, seed=seed)
        backend.bind(cluster)
        _fill(cluster, seed=11)
        _exchange(backend, cluster)
        forces.append(_assert_matches(cluster, twin))
    for got in forces[1:]:
        assert np.array_equal(got, forces[0])


def test_rebind_recompiles_the_pulse_programs(decomposed):
    """What ``bind`` resolved belongs to one cluster: a new plan under the
    same backend is exchanged correctly, the old cluster is refused."""
    system, dd = decomposed
    backend = NvshmemBackend(pes_per_node=8, seed=1)
    first = build_cluster(system, dd)
    backend.bind(first)
    _fill(first, seed=2)
    _exchange(backend, first)
    _assert_matches(first, _reference(system, dd, seed=2))

    moved = system.copy()
    moved.positions += np.random.default_rng(4).normal(scale=0.05, size=moved.positions.shape)
    second = build_cluster(moved, dd)
    assert any(
        a.n_local != b.n_local for a, b in zip(first.plan.ranks, second.plan.ranks)
    ), "the perturbed system must decompose differently"
    backend.bind(second)
    for seed in (2, 3):
        _fill(second, seed=seed)
        _exchange(backend, second)
        _assert_matches(second, _reference(moved, dd, seed=seed))
    with pytest.raises(RuntimeError, match="bind"):
        backend.exchange_coordinates(first)


def test_non_unique_index_map_falls_back_to_add_at(decomposed):
    """The fancy ``+=`` is only taken where bind verified the rows unique;
    a map that names a row twice still accumulates every contribution."""
    system, dd = decomposed
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=8, seed=0)
    backend.bind(cluster)
    assert all(prog.acc[-1] for prog in backend._programs)
    p = cluster.plan.ranks[0].pulses[0]
    p.index_map = p.index_map.copy()
    p.index_map[1] = p.index_map[0]  # same row twice, same send size
    backend.bind(cluster)
    flags = [prog.acc[-1] for prog in backend._programs]
    assert flags.count(False) == 1 and not flags[0]
    twin = build_cluster(system, dd)
    tp = twin.plan.ranks[0].pulses[0]
    tp.index_map = p.index_map.copy()
    for c in (cluster, twin):
        _fill(c, seed=9)
    reference_coordinate_exchange(twin)
    reference_force_exchange(twin)
    _exchange(backend, cluster)
    _assert_matches(cluster, twin)


def test_all_increasing_ignores_seams_and_empty_maps():
    from repro.comm.nvshmem_backend import _all_increasing

    a = lambda *rows: np.array(rows, dtype=np.int64)  # noqa: E731
    assert _all_increasing([])
    assert _all_increasing([a(), a()])
    assert _all_increasing([a(3, 5, 9), a(0, 1), a(), a(7)])  # seams may fall
    assert _all_increasing([a(), a(4), a(2, 3), a()])
    assert not _all_increasing([a(3, 5, 5)])
    assert not _all_increasing([a(1, 2), a(4, 3)])
    assert not _all_increasing([a(), a(0, 0), a()])


def test_proxy_delivery_order_depends_on_the_seed(decomposed, monkeypatch):
    """Two nodes, two seeds: the proxied puts land in different orders and
    the exchanged coordinates and forces are bit-identical anyway."""
    system, dd = decomposed
    delivered: list[int] = []
    deliver = PendingOp.deliver

    def spy(op):
        delivered.append(op.target_pe)
        deliver(op)

    monkeypatch.setattr(PendingOp, "deliver", spy)
    cluster = build_cluster(system, dd)
    sequences, forces = [], []
    for seed in (0, 1):
        backend = NvshmemBackend(pes_per_node=32, seed=seed)
        backend.bind(cluster)
        _fill(cluster, seed=6)
        delivered.clear()
        _exchange(backend, cluster)
        assert backend.runtime.topology.n_nodes == 2
        sequences.append(list(delivered))
        forces.append(gather_forces(cluster))
        if seed == 0:
            coords = [pos.copy() for pos in cluster.local_pos]
    assert sorted(sequences[0]) == sorted(sequences[1])
    assert sequences[0] != sequences[1]
    assert np.array_equal(forces[0], forces[1])
    for r in range(cluster.n_ranks):
        assert np.array_equal(cluster.local_pos[r], coords[r])


def test_halo_spans_carry_rounds_stalls_polls(decomposed):
    from repro.obs.tracer import TRACER

    system, dd = decomposed
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=8, seed=0)
    backend.bind(cluster)
    with TRACER.scope() as spans:
        _exchange(backend, cluster)
    by_name = {s.name: s for s in spans}
    for name in ("comm.nvshmem.halo_x", "comm.nvshmem.halo_f"):
        args = by_name[name].args
        assert args["pulses"] == cluster.plan.n_pulses
        assert args["stalls"] > 0 and args["rounds"] > args["stalls"]
        assert 0 < args["polls"]
