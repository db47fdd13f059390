import numpy as np
import pytest

from dsba.algorithms import dsa_node_step, dsba_node_step, make_node
from dsba.dataset import Sample
from dsba.operators import make_operator
from dsba.sparse import SparseVec
from dsba.sparsecomm import (
    DeltaPacket,
    Network,
    ObserverMemory,
    ProtocolError,
    bootstrap_rounds,
    run_sparse,
)
from dsba.topology import bfs_distances, build_mixing, make_adjacency


def _packet(origin, rnd, nnz=3, dim=10):
    payload = SparseVec(np.arange(nnz, dtype=np.int64), np.ones(nnz), dim)
    return DeltaPacket(origin, rnd, payload)


def test_packet_accounting_split():
    p = _packet(0, 5, nnz=4)
    assert p.value_doubles == 4
    assert p.metadata_doubles == 6  # indices + origin and round tags


def test_network_delivers_once_per_destination():
    A = make_adjacency("path", 4)
    net = Network(bfs_distances(A))
    net.broadcast(_packet(0, 0))
    seen = {}
    for t in range(0, 5):
        arrivals = net.deliver(t)
        for dest, origin in np.argwhere(arrivals >= 0):
            assert (origin, arrivals[dest, origin]) == (0, 0)
            assert dest not in seen
            seen[dest] = t
    # each other node got the packet exactly once, at its hop distance
    assert seen == {1: 1, 2: 2, 3: 3}


def test_network_rejects_duplicate_delivery():
    A = make_adjacency("complete", 3)
    net = Network(bfs_distances(A))
    net.broadcast(_packet(0, 0))
    net.broadcast(_packet(0, 0))
    with pytest.raises(ProtocolError):
        net.deliver(1)


def test_dense_round_accounting():
    A = make_adjacency("star", 5)
    net = Network(bfs_distances(A))
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


def _dense_reference(mix, variant, rounds, d=12):
    states, _, _, _ = _make_states(mix, d=d)
    step = dsba_node_step if variant == "dsba" else dsa_node_step
    Z = np.stack([s.z for s in states])
    for t in range(rounds):
        if t == 0:
            mixed_all = mix.W @ Z
        else:
            Zp = np.stack([s.z_prev for s in states])
            mixed_all = mix.Wt @ (2.0 * Z - Zp)
        for m, s in enumerate(states):
            step(s, mixed_all[m])
        Z = np.stack([s.z for s in states])
    return Z


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("kind,n", [("ring", 5), ("path", 4), ("complete", 3)])
def test_sparse_equals_dense_small(variant, kind, n):
    mix = build_mixing(make_adjacency(kind, n))
    states, _, _, _ = _make_states(mix, d=12)
    Z_sparse, net = run_sparse(states, mix, 60, variant=variant)
    assert np.max(np.abs(Z_sparse - _dense_reference(mix, variant, 60))) < 1e-10


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("kind,n", [("path", 5), ("ring", 6), ("star", 5)])
def test_sparse_equals_dense_across_warmup_boundary(variant, kind, n):
    # runs that stop inside the dense warm-up, on its last round, and in the
    # first rounds rebuilt from the seeded observer state
    mix = build_mixing(make_adjacency(kind, n))
    b = bootstrap_rounds(mix)
    for rounds in (1, b - 1, b, b + 1, b + 2):
        states, _, _, _ = _make_states(mix, d=12)
        Z_sparse, _ = run_sparse(states, mix, rounds, variant=variant)
        gap = np.max(np.abs(Z_sparse - _dense_reference(mix, variant, rounds)))
        assert gap < 1e-10, (rounds, gap)


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

    def __init__(self, distances, origin, rnd, dest):
        super().__init__(distances)
        self.drop = (origin, rnd, dest)

    def deliver(self, t):
        arrivals = super().deliver(t)
        origin, rnd, dest = self.drop
        if arrivals[dest, origin] == rnd:
            arrivals[dest, origin] = -1
        return arrivals


@pytest.mark.parametrize("origin,dest", [(0, 3), (2, 1), (3, 2)])
def test_observer_needs_every_delta_it_reads(origin, dest):
    mix = build_mixing(make_adjacency("path", 4))
    states, _, _, _ = _make_states(mix, d=8, q=4)
    rnd = bootstrap_rounds(mix) + 4
    net = _Withholding(mix.distances, origin, rnd, dest)
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
    obs = ObserverMemory(mix, np.full(4, 3), dim=10, alpha=0.1, lam=0.1, variant="dsba")

    def arrivals(*packets):
        arr = np.full((4, 4), -1)
        for dest, origin, rnd in packets:
            arr[dest, origin] = rnd
        return arr

    obs.absorb(arrivals((0, 1, 0), (0, 2, 0)))
    with pytest.raises(ProtocolError, match="observer 0 .*origin=1, round=0.* after round 0"):
        obs.absorb(arrivals((0, 1, 0)))
    with pytest.raises(ProtocolError, match="observer 0 .*origin=2, round=2.* after round 0"):
        obs.absorb(arrivals((3, 1, 0), (0, 2, 2)))
    # a rejected round leaves the watermark untouched
    assert obs.heard.tolist() == [[-1, 0, 0, -1]] + [[-1] * 4] * 3


class _Recording(Network):
    """Keeps every packet sent and every inbox delivered."""

    def __init__(self, distances):
        super().__init__(distances)
        self.sent, self.arrivals = [], {}

    def broadcast(self, packet):
        self.sent.append(packet)
        super().broadcast(packet)

    def deliver(self, t):
        self.arrivals[t] = super().deliver(t)
        return self.arrivals[t]


def test_network_accounting_matches_per_packet_oracle():
    # packet by packet: (o, s) reaches every u != o at round s + dist(o, u)
    mix = build_mixing(make_adjacency("erdos_renyi", 7, p=0.4, seed=2))
    states, _, _, _ = _make_states(mix, d=12, q=5)
    net = _Recording(mix.distances)
    run_sparse(states, mix, 30, variant="dsa", net=net)
    last = max(net.arrivals)
    values = {t: np.zeros(mix.n, dtype=np.int64) for t in net.arrivals}
    metadata = np.zeros(mix.n, dtype=np.int64)
    arrivals = {t: [set() for _ in range(mix.n)] for t in net.arrivals}
    for p in net.sent:
        for u in range(mix.n):
            t = p.round + mix.distances[p.origin, u]
            if u != p.origin and t <= last:
                values[t][u] += p.value_doubles
                metadata[u] += p.metadata_doubles
                arrivals[t][u].add((p.origin, p.round))
    for t, arr in net.arrivals.items():
        assert np.array_equal(net.round_values[t], values[t])
        assert [{(o, r) for o, r in enumerate(row) if r >= 0} for row in arr.tolist()] \
            == arrivals[t]
    assert np.array_equal(net.value_doubles, sum(values.values()))
    assert np.array_equal(net.metadata_doubles, metadata)
