import numpy as np
import pytest

from dsba.algorithms import (
    BatchedTable,
    dsa_node_step,
    dsba_node_step,
    make_node,
)
from dsba.dataset import Sample
from dsba.operators import SampleMatrix, make_operator
from dsba.sparsecomm import (
    Network,
    ObserverMemory,
    ProtocolError,
    bootstrap_rounds,
    run_sparse,
)
from dsba.topology import bfs_distances, build_mixing, make_adjacency


def test_network_delivers_once_per_destination():
    A = make_adjacency("path", 4)
    distances = bfs_distances(A)
    net = Network(distances)
    net.broadcast(0, np.full(4, 3))
    seen = {}
    for t in range(0, 5):
        arrivals = net.deliver(t)
        for dest, origin in np.argwhere(arrivals >= 0):
            assert arrivals[dest, origin] == 0
            assert (dest, origin) not in seen
            seen[dest, origin] = t
    # each other node got each origin's packet exactly once, at its hop distance
    assert {dest: t for (dest, origin), t in seen.items() if origin == 0} == {1: 1, 2: 2, 3: 3}
    assert seen == {(u, o): distances[o, u] for o in range(4) for u in range(4) if u != o}


def test_network_rejects_duplicate_delivery():
    A = make_adjacency("complete", 3)
    net = Network(bfs_distances(A))
    net.broadcast(0, np.full(3, 3))
    net.broadcast(0, np.full(3, 3))
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


ALPHA, LAM, SEED = 0.02, 0.05, 11


def _data(mix, d=12, q=6, data_seed=31):
    """Per-node ridge samples (q per node, 4 nonzeros each) and z0."""
    rng = np.random.default_rng(data_seed)
    z0 = rng.standard_normal((mix.n, d))
    per_node = []
    for _ in range(mix.n):
        shard = []
        for _ in range(q):
            idx = np.sort(rng.choice(d, size=4, replace=False)).astype(np.int64)
            val = rng.standard_normal(4)
            val /= np.linalg.norm(val)
            shard.append(Sample(idx, val, float(rng.standard_normal())))
        per_node.append(shard)
    return per_node, z0


def _run_sparse(mix, rounds, d=12, q=6, **kw):
    per_node, z0 = _data(mix, d=d, q=q)
    table = BatchedTable(SampleMatrix.from_shards("ridge", per_node, d), z0, SEED)
    return run_sparse(table, mix, z0, rounds, alpha=ALPHA, lam=LAM, **kw)


def _dense_reference(mix, variant, rounds, d=12):
    # the per-node update rule, one node at a time
    per_node, z0 = _data(mix, d=d)
    states = [make_node(n, [make_operator("ridge", s, LAM, d) for s in shard],
                        ALPHA, LAM, z0[n], seed=SEED)
              for n, shard in enumerate(per_node)]
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
    Z_sparse, net = _run_sparse(mix, 60, variant=variant)
    assert np.max(np.abs(Z_sparse - _dense_reference(mix, variant, 60))) < 1e-10


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("kind,n", [("path", 5), ("ring", 6), ("star", 5)])
def test_sparse_equals_dense_across_warmup_boundary(variant, kind, n):
    # runs that stop inside the dense warm-up, on its last round, and in the
    # first relay rounds
    mix = build_mixing(make_adjacency(kind, n))
    b = bootstrap_rounds(mix)
    for rounds in (1, b - 1, b, b + 1, b + 2):
        Z_sparse, _ = _run_sparse(mix, rounds, variant=variant)
        gap = np.max(np.abs(Z_sparse - _dense_reference(mix, variant, rounds)))
        assert gap < 1e-10, (rounds, gap)


def test_sparse_payload_bounded_by_support():
    # after bootstrap, per-round payload per node is at most
    # (number of origins) * (max delta support)
    mix = build_mixing(make_adjacency("ring", 5))
    per_node, _ = _data(mix, d=20, q=5)
    max_nnz = max(s.nnz for shard in per_node for s in shard)
    rounds = 50
    _, net = _run_sparse(mix, rounds, d=20, q=5, variant="dsba")
    boot = bootstrap_rounds(mix)
    for t, vals in net.round_values.items():
        if t > boot + 1:
            assert vals.max() <= mix.n * max_nnz


def test_run_sparse_on_round_early_stop():
    mix = build_mixing(make_adjacency("ring", 4))
    calls = []

    def on_round(t, Z, table):
        calls.append(t)
        return t >= 10

    _run_sparse(mix, 100, d=8, q=4, variant="dsba", on_round=on_round)
    assert calls[-1] == 10


@pytest.mark.parametrize("variant", ["extra", "pointsaga"])
def test_run_sparse_rejects_other_variants(variant):
    # the relay carries dsba/dsa table corrections only; the check comes
    # before the first round, so nothing is sent
    mix = build_mixing(make_adjacency("ring", 4))
    net = Network(mix.distances)
    with pytest.raises(ProtocolError, match=f"sparse protocol supports dsba/dsa, "
                                            f"not '{variant}'"):
        _run_sparse(mix, 10, d=8, q=4, variant=variant, net=net)
    assert not net.received_doubles().any()


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


# ids are origin-dest
@pytest.mark.parametrize("n,origin,dest", [(4, 0, 3), (4, 2, 1), (4, 3, 2), (6, 0, 5)],
                         ids=["0-3", "2-1", "3-2", "0-5"])
def test_observer_needs_every_delta_it_reads(n, origin, dest):
    # distances 3, 1 and 1 on a 4-node path, and the far end of a 6-node
    # path, where the lag equals the largest eccentricity D = 5
    mix = build_mixing(make_adjacency("path", n))
    rnd = bootstrap_rounds(mix) + 4
    net = _Withholding(mix.distances, origin, rnd, dest)
    done = []

    def on_round(t, Z, table):
        done.append(t)

    with pytest.raises(ProtocolError, match=f"observer {dest} missing delta "
                                            f"\\(origin={origin}, round={rnd}\\)"):
        _run_sparse(mix, 60, d=8, q=4, variant="dsba", on_round=on_round, net=net)
    # the observer first reads the delta in the round the packet was due
    assert done[-1] == rnd + mix.distances[origin, dest] - 1


def test_observer_rejects_gap_and_repeat():
    mix = build_mixing(make_adjacency("ring", 4))
    obs = ObserverMemory(mix)

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
    """Keeps every round sent and every inbox delivered."""

    def __init__(self, distances):
        super().__init__(distances)
        self.sent, self.arrivals = [], {}

    def broadcast(self, t, nnz):
        self.sent.append((t, np.array(nnz)))
        super().broadcast(t, nnz)

    def deliver(self, t):
        self.arrivals[t] = super().deliver(t)
        return self.arrivals[t]


def _check_traffic_against_oracle(rounds):
    # packet by packet: (o, s) reaches every u != o at round s + dist(o, u)
    mix = build_mixing(make_adjacency("erdos_renyi", 7, p=0.4, seed=2))
    net = _Recording(mix.distances)
    _run_sparse(mix, rounds, d=12, q=5, variant="dsa", net=net)
    last = max(net.arrivals)
    values = {t: np.zeros(mix.n, dtype=np.int64) for t in net.arrivals}
    metadata = np.zeros(mix.n, dtype=np.int64)
    arrivals = {t: [set() for _ in range(mix.n)] for t in net.arrivals}
    assert [s for s, _ in net.sent] == list(range(rounds))
    for s, nnz in net.sent:
        for origin, value_doubles in enumerate(nnz):
            for u in range(mix.n):
                t = s + mix.distances[origin, u]
                if u != origin and t <= last:
                    values[t][u] += value_doubles
                    # indices, plus origin and round tags
                    metadata[u] += value_doubles + 2
                    arrivals[t][u].add((origin, s))
    for t, arr in net.arrivals.items():
        assert np.array_equal(net.round_values[t], values[t])
        assert [{(o, r) for o, r in enumerate(row) if r >= 0} for row in arr.tolist()] \
            == arrivals[t]
    assert np.array_equal(net.value_doubles, sum(values.values()))
    assert np.array_equal(net.metadata_doubles, metadata)
    return mix, net


def test_network_accounting_matches_per_packet_oracle():
    _check_traffic_against_oracle(30)


def test_run_inside_warmup_delivers_its_packets():
    # a run that ends inside the dense warm-up still delivers the packets
    # relayed during it, up to its last round's first hop
    for rounds in (1, 4):
        mix, net = _check_traffic_against_oracle(rounds)
        assert rounds < bootstrap_rounds(mix)
        assert max(net.arrivals) == rounds
        assert net.value_doubles.sum() > 0
