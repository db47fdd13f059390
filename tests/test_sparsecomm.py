import numpy as np
import pytest

from dsba.algorithms import dsa_node_step, dsba_node_step, make_node
from dsba.dataset import Sample
from dsba.operators import make_operator
from dsba.sparse import SparseVec
from dsba.sparsecomm import (
    DeltaBlocks,
    DeltaPacket,
    Network,
    ObserverMemory,
    ProtocolError,
    RelaySchedule,
    bootstrap_rounds,
    run_sparse,
)
from dsba.topology import TopologyError, bfs_distances, build_mixing, make_adjacency


def _packet(origin, rnd, nnz=3, dim=10):
    payload = SparseVec(np.arange(nnz, dtype=np.int64), np.ones(nnz), dim)
    return DeltaPacket(origin, rnd, payload)


def test_packet_accounting_split():
    p = _packet(0, 5, nnz=4)
    assert p.value_doubles == 4
    assert p.metadata_doubles == 6  # indices + origin and round tags


def test_schedule_delays_match_bfs():
    A = make_adjacency("erdos_renyi", 7, p=0.4, seed=2)
    sch = RelaySchedule(A)
    D = bfs_distances(A)
    for o in range(7):
        for u in range(7):
            assert sch.delay(o, u) == D[o, u]


def test_schedule_rejects_disconnected_graph():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.0
    with pytest.raises(TopologyError):
        RelaySchedule(A)


def test_network_delivers_once_per_destination():
    A = make_adjacency("path", 4)
    net = Network(RelaySchedule(A))
    net.broadcast(_packet(0, 0))
    seen = {}
    for t in range(0, 5):
        inboxes = net.deliver(t)
        for dest, packets in enumerate(inboxes):
            for p in packets:
                assert dest not in seen
                seen[dest] = t
    # each other node got the packet exactly once, at its hop distance
    assert seen == {1: 1, 2: 2, 3: 3}


def test_network_rejects_duplicate_delivery():
    A = make_adjacency("complete", 3)
    net = Network(RelaySchedule(A))
    net.broadcast(_packet(0, 0))
    net.broadcast(_packet(0, 0))
    with pytest.raises(ProtocolError):
        net.deliver(1)


def test_dense_round_accounting():
    A = make_adjacency("star", 5)
    net = Network(RelaySchedule(A))
    degrees = A.sum(axis=1)
    net.account_dense_round(degrees, d=10)
    assert np.array_equal(net.received_doubles(), degrees.astype(np.int64) * 10)


def test_bootstrap_rounds_covers_eccentricity():
    mix = build_mixing(make_adjacency("path", 6))
    assert bootstrap_rounds(mix) >= mix.eccentricities.max()


def _make_states(mix, d=12, q=6, lam=0.05, seed=11, data_seed=31):
    rng = np.random.default_rng(data_seed)
    N = mix.n
    states = []
    z0 = rng.standard_normal((N, d))
    all_ops = []
    for n in range(N):
        ops = []
        for _ in range(q):
            idx = np.sort(rng.choice(d, size=4, replace=False)).astype(np.int64)
            val = rng.standard_normal(4)
            val /= np.linalg.norm(val)
            ops.append(make_operator("ridge", Sample(idx, val, float(rng.standard_normal())), lam, d))
        all_ops.append(ops)
    alpha = 0.02
    return [make_node(n, all_ops[n], alpha, lam, z0[n], seed=seed) for n in range(N)], all_ops, z0, alpha


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("kind,n", [("ring", 5), ("path", 4), ("complete", 3)])
def test_sparse_equals_dense_small(variant, kind, n):
    mix = build_mixing(make_adjacency(kind, n))
    d = 12
    states, all_ops, z0, alpha = _make_states(mix, d=d)
    lam = states[0].lam
    rounds = 60

    # dense reference
    ref_states, _, _, _ = _make_states(mix, d=d)
    step = dsba_node_step if variant == "dsba" else dsa_node_step
    Z = np.stack([s.z for s in ref_states])
    for t in range(rounds):
        if t == 0:
            mixed_all = mix.W @ Z
        else:
            Zp = np.stack([s.z_prev for s in ref_states])
            mixed_all = mix.Wt @ (2.0 * Z - Zp)
        for m, s in enumerate(ref_states):
            step(s, mixed_all[m])
        Z = np.stack([s.z for s in ref_states])

    Z_sparse, net = run_sparse(states, mix, rounds, variant=variant)
    assert np.max(np.abs(Z_sparse - Z)) < 1e-10


def test_sparse_payload_bounded_by_support():
    # after bootstrap, per-round payload per node is at most
    # (number of origins) * (max delta support)
    mix = build_mixing(make_adjacency("ring", 5))
    states, all_ops, _, _ = _make_states(mix, d=20, q=5)
    max_nnz = max(op.sample.nnz for ops in all_ops for op in ops)
    rounds = 50
    _, net = run_sparse(states, mix, rounds, variant="dsba")
    boot = bootstrap_rounds(mix)
    for t, vals in net.round_values.items():
        if t > boot + 1:
            assert vals.max() <= mix.n * max_nnz


def test_run_sparse_on_round_early_stop():
    mix = build_mixing(make_adjacency("ring", 4))
    states, _, _, _ = _make_states(mix, d=8, q=4)
    calls = []

    def on_round(t, Z):
        calls.append(t)
        return t >= 10

    run_sparse(states, mix, 100, variant="dsba", on_round=on_round)
    assert calls[-1] == 10


class _Withholding(Network):
    """Drops packet (origin, round) on its way to one destination."""

    def __init__(self, schedule, origin, rnd, dest):
        super().__init__(schedule)
        self.drop = (origin, rnd, dest)

    def deliver(self, t):
        inboxes = super().deliver(t)
        origin, rnd, dest = self.drop
        inboxes[dest] = [p for p in inboxes[dest] if (p.origin, p.round) != (origin, rnd)]
        return inboxes


@pytest.mark.parametrize("origin,dest", [(0, 3), (2, 1), (3, 2)])
def test_observer_needs_every_delta_it_reads(origin, dest):
    mix = build_mixing(make_adjacency("path", 4))
    states, _, _, _ = _make_states(mix, d=8, q=4)
    rnd = bootstrap_rounds(mix) + 4
    net = _Withholding(RelaySchedule(mix.adjacency), origin, rnd, dest)
    done = []

    def on_round(t, Z):
        done.append(t)

    with pytest.raises(ProtocolError, match=f"observer {dest} missing delta "
                                            f"\\(origin={origin}, round={rnd}\\)"):
        run_sparse(states, mix, 60, variant="dsba", on_round=on_round, net=net)
    # the observer first reads the delta in the round the packet was due
    assert done[-1] == rnd + mix.distances[origin, dest] - 1


def test_observer_rejects_gap_and_repeat():
    mix = build_mixing(make_adjacency("ring", 4))
    blocks = DeltaBlocks(np.full(4, 3), dim=10, depth=3)
    obs = ObserverMemory(0, mix, blocks, alpha=0.1, lam=0.1, variant="dsba")
    obs.absorb([_packet(1, 0), _packet(2, 0)])
    with pytest.raises(ProtocolError, match="round=0.* after round 0"):
        obs.absorb([_packet(1, 0)])
    with pytest.raises(ProtocolError, match="round=2.* after round 0"):
        obs.absorb([_packet(2, 2)])
    assert obs.heard == [-1, 0, 0, -1]


class _Recording(Network):
    """Keeps every packet sent and every inbox delivered."""

    def __init__(self, schedule):
        super().__init__(schedule)
        self.sent, self.inboxes = [], {}

    def broadcast(self, packet):
        self.sent.append(packet)
        super().broadcast(packet)

    def deliver(self, t):
        self.inboxes[t] = super().deliver(t)
        return self.inboxes[t]


def test_network_accounting_matches_per_packet_oracle():
    # packet by packet: (o, s) reaches every u != o at round s + dist(o, u)
    mix = build_mixing(make_adjacency("erdos_renyi", 7, p=0.4, seed=2))
    states, _, _, _ = _make_states(mix, d=12, q=5)
    net = _Recording(RelaySchedule(mix.adjacency))
    run_sparse(states, mix, 30, variant="dsa", net=net)
    last = max(net.inboxes)
    values = {t: np.zeros(mix.n, dtype=np.int64) for t in net.inboxes}
    metadata = np.zeros(mix.n, dtype=np.int64)
    arrivals = {t: [set() for _ in range(mix.n)] for t in net.inboxes}
    for p in net.sent:
        for u in range(mix.n):
            t = p.round + mix.distances[p.origin, u]
            if u != p.origin and t <= last:
                values[t][u] += p.value_doubles
                metadata[u] += p.metadata_doubles
                arrivals[t][u].add((p.origin, p.round))
    for t, inboxes in net.inboxes.items():
        assert np.array_equal(net.round_values[t], values[t])
        assert [sorted((p.origin, p.round) for p in box) for box in inboxes] \
            == [sorted(a) for a in arrivals[t]]
    assert np.array_equal(net.value_doubles, sum(values.values()))
    assert np.array_equal(net.metadata_doubles, metadata)
