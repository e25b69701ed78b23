"""Event-driven NVSHMEM halo exchange: poll budget, interleavings, staleness.

Runs on the ``halo-ib-64r`` benchmark shape (12k atoms, 4x4x4 ranks, one
pulse per dimension) so the counts asserted here are the ones the
benchmark's ``nvshmem.polls_per_wait`` reports.  The deep shape (6k atoms,
1x1x8, two pulses) is the one where later pulses accumulate into the
zones of earlier ones.
"""

import hashlib

import numpy as np
import pytest

from repro.comm import NvshmemBackend
from repro.comm.scheduler import CooperativeScheduler
from repro.dd.decomposition import DomainDecomposition
from repro.dd.exchange import (
    build_cluster,
    gather_forces,
    reference_coordinate_exchange,
    reference_force_exchange,
)
from repro.dd.grid import DDGrid
from repro.md import make_system
from repro.nvshmem.runtime import NvshmemRuntime, PendingOp
from repro.obs.metrics import METRICS

BUFFER = 0.12


@pytest.fixture(scope="module")
def decomposed(ff):
    system = make_system("12k", seed=7, ff=ff, dtype=np.float64)
    dd = DomainDecomposition(
        grid=DDGrid((4, 4, 4)), box=system.box, r_comm=ff.cutoff + BUFFER, max_pulses=1
    )
    return system, dd


@pytest.fixture(scope="module")
def deep(ff):
    system = make_system("6k", seed=7, ff=ff, dtype=np.float64)
    dd = DomainDecomposition(
        grid=DDGrid((1, 1, 8)), box=system.box, r_comm=ff.cutoff + BUFFER, max_pulses=2
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
    # Every force row receives the reference's additions in the
    # reference's order (descending pulse, then row): equal bit for bit.
    got = gather_forces(cluster)
    assert got.tobytes() == gather_forces(twin).tobytes()
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


TOPOLOGIES = {"all-ib": 1, "8-per-node": 8, "all-nvlink": 64}


@pytest.mark.parametrize(
    "shape, pes_per_node",
    [(s, ppn) for s in ("decomposed", "deep") for ppn in TOPOLOGIES.values()],
    ids=[p + t for p in ("", "deep-") for t in TOPOLOGIES],
)
def test_any_interleaving_matches_the_reference(request, shape, pes_per_node):
    """On the deep shape later pulses accumulate into earlier pulses' zones
    before those are served: a force read that saw a zone early shows."""
    system, dd = request.getfixturevalue(shape)
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


def test_bind_refuses_a_send_longer_than_the_peers_zone(decomposed):
    """The pack stores straight into the peer's halo rows, so a plan whose
    send and receive sizes disagree is refused at bind, naming the pulse."""
    system, dd = decomposed
    cluster = build_cluster(system, dd)
    p = cluster.plan.ranks[5].pulses[1]
    p.index_map = np.append(p.index_map, p.index_map[-1])
    backend = NvshmemBackend(pes_per_node=8, seed=0)
    backend.bind(build_cluster(system, dd))
    with pytest.raises(ValueError, match=rf"pulse 1: rank 5 sends {p.send_size} rows"):
        backend.bind(cluster)
    # The refused plan left the backend unbound, not bound to the old one.
    with pytest.raises(RuntimeError, match="bind"):
        backend.exchange_coordinates(cluster)


def test_bind_refuses_a_self_peer_view(decomposed):
    """Over NVLink the returned forces are accumulated straight from the
    peer's zone: a pulse whose peer is the rank itself would read the array
    it adds into, so bind refuses it before any view is taken."""
    system, dd = decomposed
    cluster = build_cluster(system, dd)
    p = cluster.plan.ranks[5].pulses[1]
    p.send_rank = 5
    # Sizes consistent with the rank's own zone: only the peer is wrong.
    p.index_map = np.resize(p.index_map, p.recv_size)
    p.dep_offset = min(p.dep_offset, p.recv_size)
    backend = NvshmemBackend(pes_per_node=8, seed=0)
    with pytest.raises(ValueError, match="on PE 5 from itself"):
        backend.bind(cluster)
    with pytest.raises(RuntimeError, match="bind"):
        backend.exchange_coordinates(cluster)


def test_non_unique_index_map_accumulates_every_contribution(decomposed):
    """A map that names a row twice still accumulates every contribution,
    in the reference's order: the gathered forces are equal bit for bit."""
    system, dd = decomposed
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=8, seed=0)
    p = cluster.plan.ranks[0].pulses[0]
    p.index_map = p.index_map.copy()
    p.index_map[1] = p.index_map[0]  # same row twice, same send size
    backend.bind(cluster)
    twin = build_cluster(system, dd)
    tp = twin.plan.ranks[0].pulses[0]
    tp.index_map = p.index_map.copy()
    for c in (cluster, twin):
        _fill(c, seed=9)
    reference_coordinate_exchange(twin)
    reference_force_exchange(twin)
    _exchange(backend, cluster)
    _assert_matches(cluster, twin)


@pytest.mark.parametrize("seed", range(4))
def test_flat_index_accumulation_is_row_add_at(seed):
    """One flat ``add.at`` over ``_flat_index(rows)`` performs the additions
    of the row-wise ``add.at``, repeated rows included, in both dtypes."""
    from repro.comm.nvshmem_backend import _flat_index

    rng = np.random.default_rng(seed)
    for dtype in (np.float64, np.float32):
        forces = rng.standard_normal((40, 3)).astype(dtype)
        rows = rng.integers(0, 40, size=60)  # repeats guaranteed
        block = rng.standard_normal((60, 3)).astype(dtype)
        want = forces.copy()
        np.add.at(want, rows, block)
        np.add.at(forces.reshape(-1), _flat_index(rows), block.reshape(-1))
        assert forces.tobytes() == want.tobytes()


def test_negative_zero_is_shifted_like_the_reference(decomposed):
    """Every pack adds its shift, zero included: a ``-0.0`` coordinate
    arrives as the reference's ``+0.0``, on the direct-store path and the
    staged one alike."""
    system, dd = decomposed
    twin = build_cluster(system, dd)
    for rp in twin.plan.ranks:
        twin.local_pos[rp.rank][: rp.n_home] *= -0.0
    reference_coordinate_exchange(twin)
    assert all(np.signbit(pos).any() for pos in twin.local_pos)
    for pes_per_node in (8, 64):
        cluster = build_cluster(system, dd)
        for rp in cluster.plan.ranks:
            cluster.local_pos[rp.rank][: rp.n_home] *= -0.0
        backend = NvshmemBackend(pes_per_node=pes_per_node, seed=3)
        backend.bind(cluster)
        backend.exchange_coordinates(cluster)
        for r in range(cluster.n_ranks):
            assert cluster.local_pos[r].tobytes() == twin.local_pos[r].tobytes(), r


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


@pytest.mark.parametrize("seed", (0, 1), ids=["seed0", "seed1"])
@pytest.mark.parametrize(
    "shape, pes_per_node",
    [("decomposed", 1), ("decomposed", 8), ("deep", 1), ("deep", 4)],
    ids=["all-ib", "8-per-node", "deep-all-ib", "deep-4-per-node"],
)
def test_ib_sources_are_untouched_until_delivery(request, monkeypatch, shape, pes_per_node, seed):
    """The proxy reads a put's source when it delivers (NVSHMEM's nbi
    contract), so nothing may write the source between post and delivery:
    not the sender's packs, and on the deep shape not the later pulses'
    accumulations into earlier zones.  (The deep shape has 8 ranks: 4 per
    node is its two-node case.)"""
    system, dd = request.getfixturevalue(shape)
    posted: dict[int, np.ndarray] = {}
    changed: list[int] = []
    post, deliver = NvshmemRuntime.post, PendingOp.deliver

    def post_spy(rt, op, value):
        posted[id(op)] = op.src.copy()
        post(rt, op, value)

    def deliver_spy(op):
        if posted.pop(id(op)).tobytes() != op.src.tobytes():
            changed.append(op.target_pe)
        deliver(op)

    monkeypatch.setattr(NvshmemRuntime, "post", post_spy)
    monkeypatch.setattr(PendingOp, "deliver", deliver_spy)
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=pes_per_node, seed=seed)
    backend.bind(cluster)
    n_ops = backend._op_totals["x"]["put_signals"] + backend._op_totals["f"]["put_signals"]
    assert n_ops > 0
    for step in range(2):
        _fill(cluster, seed=seed + step)
        _exchange(backend, cluster)
        assert changed == [] and posted == {}
    assert backend.runtime.stats.put_signals == 2 * n_ops


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


def _schedule_digest(monkeypatch, system, dd, pes_per_node, seed, steps=3):
    """sha256 of every task resume, in order, and of each exchange's
    ``(rounds, polls, wakeups, stalls)``: the seeded interleaving itself."""
    log: list = []
    run = CooperativeScheduler.run
    wakeups = METRICS.counter("comm.sched.wakeups")

    def logged(name, gen):
        log.append(name)
        for wait in gen:
            yield wait
            log.append(name)

    def spy(sched, tasks, on_stall=None):
        stalls = 0

        def counted():
            nonlocal stalls
            stalls += 1
            return on_stall()

        before = wakeups.value
        rounds = run(sched, [(n, logged(n, g)) for n, g in tasks], counted)
        log.append((rounds, sched.polls_used, wakeups.value - before, stalls))
        return rounds

    monkeypatch.setattr(CooperativeScheduler, "run", spy)
    cluster = build_cluster(system, dd)
    backend = NvshmemBackend(pes_per_node=pes_per_node, seed=seed)
    backend.bind(cluster)
    for _ in range(steps):
        _fill(cluster, seed=5)
        _exchange(backend, cluster)
    return hashlib.sha256(repr(log).encode()).hexdigest()


#: Recorded before the control path was rewritten for speed; a change that
#: moves one resume, draw or poll fails here, and shrunk chaos artifacts
#: recorded before it would no longer replay.  The deep shape has 8 ranks,
#: so 8 and 64 per node are both one node: the same schedule.
SCHEDULE_PINS = {
    ("decomposed", "all-ib", 0):
        "c7d7a8bd0914b0b524bde3845335061871142e63d206d524a136e2f22565d089",
    ("decomposed", "all-ib", 1):
        "9a8c491e8bc0359f958eff0d4c0760ef83d09f0b3949590f746f35ecf4435144",
    ("decomposed", "8-per-node", 0):
        "8b5b523efe6175437e898b21bc929739bdbadf015d2666107723ab61ef53849b",
    ("decomposed", "8-per-node", 1):
        "b54049da0e7b61f0da5d5b1b0cc4ec2ce99bb5471944d3eb1ac5f6817fae2233",
    ("decomposed", "all-nvlink", 0):
        "16583db04ac49796182d0afbe683922444c3b96d7d092564582a3df669a734ab",
    ("decomposed", "all-nvlink", 1):
        "1a69de5b3c310ff9b674aaa792a9ea0848b757fa60230c0262f1e20a4682ef0a",
    ("deep", "all-ib", 0):
        "52e34a7348c6acbcaed909705ef2f4482a9dbd5d263ff3dcd7d12f91f6e14224",
    ("deep", "all-ib", 1):
        "9cba4c76dd7859ce0ba3997db3829c0ce06fa61b77a54bdf44a28ebc9a0e8d5c",
    ("deep", "8-per-node", 0):
        "e2ad35796950647b3e20492337df5440f7ed92aaf6d532eb0ecca5093c495932",
    ("deep", "8-per-node", 1):
        "53082d0cd5009c285d36588416e8e3a2c7464b7e1ad03375336a2ba6864db81a",
    ("deep", "all-nvlink", 0):
        "e2ad35796950647b3e20492337df5440f7ed92aaf6d532eb0ecca5093c495932",
    ("deep", "all-nvlink", 1):
        "53082d0cd5009c285d36588416e8e3a2c7464b7e1ad03375336a2ba6864db81a",
}


@pytest.mark.parametrize(
    "shape, topology, seed",
    list(SCHEDULE_PINS),
    ids=[f"{'deep-' if s == 'deep' else ''}{t}-seed{n}" for s, t, n in SCHEDULE_PINS],
)
def test_schedule_pins(request, monkeypatch, shape, topology, seed):
    system, dd = request.getfixturevalue(shape)
    got = _schedule_digest(monkeypatch, system, dd, TOPOLOGIES[topology], seed)
    assert got == SCHEDULE_PINS[shape, topology, seed]
