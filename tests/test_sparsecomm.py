import numpy as np
import pytest

from dsba.algorithms import dsa_node_step, dsba_node_step, make_node
from dsba.dataset import Sample
from dsba.operators import make_operator
from dsba.sparse import SparseVec
from dsba.sparsecomm import (
    DeltaPacket,
    Network,
    ProtocolError,
    RelaySchedule,
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


def test_schedule_delays_match_bfs():
    A = make_adjacency("erdos_renyi", 7, p=0.4, seed=2)
    sch = RelaySchedule(A)
    D = bfs_distances(A)
    for o in range(7):
        for u in range(7):
            assert sch.delay(o, u) == D[o, u]


def test_network_delivers_once_per_destination():
    A = make_adjacency("path", 4)
    net = Network(RelaySchedule(A), trace=True)
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
