import numpy as np
import pytest
import scipy.sparse as sp

from dsba.algorithms import (
    BatchedTable,
    dsa_node_step,
    dsba_node_step,
    make_node,
)
from dsba.dataset import Shards
from dsba.operators import SampleMatrix
from dsba.simulator import build_problem
from dsba.sparsecomm import (
    NO_PACKET,
    Network,
    ObserverMemory,
    ProtocolError,
    run_sparse,
)
from dsba.topology import bfs_distances, build_mixing, make_adjacency


def test_network_delivers_once_per_destination():
    # origin o's round-0 packet carries 10**o values, so every round's
    # traffic names the origins it came from
    A = make_adjacency("path", 4)
    distances = bfs_distances(A)
    net = Network(distances)
    net.broadcast(-1, np.zeros(4, dtype=np.int64))
    seen = {}
    for t in range(0, 5):
        net.broadcast(t, 10 ** np.arange(4) if t == 0 else np.zeros(4, dtype=np.int64))
        before = net.value_doubles.copy()
        net.settle()
        for dest, got in enumerate(net.value_doubles - before):
            for origin in range(4):
                if got // 10 ** origin % 10:
                    assert got // 10 ** origin % 10 == 1
                    assert (dest, origin) not in seen
                    seen[dest, origin] = t
    # each other node got each origin's packet exactly once, at its hop distance
    assert {dest: t for (dest, origin), t in seen.items() if origin == 0} == {1: 1, 2: 2, 3: 3}
    assert seen == {(u, o): distances[o, u] for o in range(4) for u in range(4) if u != o}
    first, last = net.deliver(0, 5)
    for u in range(4):
        for o in range(4):
            expected = NO_PACKET if u == o else -1
            assert first[u, o] == expected and last[u, o] == (
                NO_PACKET if u == o else 4 - distances[o, u])


def test_network_rejects_duplicate_delivery():
    A = make_adjacency("complete", 3)
    net = Network(bfs_distances(A))
    net.broadcast(-1, np.full(3, 6))
    net.broadcast(0, np.full(3, 3))
    net.broadcast(0, np.full(3, 3))
    with pytest.raises(ProtocolError, match="duplicate delivery of round 0"):
        net.deliver(1, 2)


ALPHA, LAM, SEED = 0.02, 0.05, 11


def _data(mix, d=12, q=6, data_seed=31):
    """Ridge shards (q rows per node, 4 nonzeros each) and z0."""
    rng = np.random.default_rng(data_seed)
    z0 = rng.standard_normal((mix.n, d))
    idx, val, y = [], [], []
    for _ in range(mix.n * q):
        idx.append(np.sort(rng.choice(d, size=4, replace=False)))
        v = rng.standard_normal(4)
        val.append(v / np.linalg.norm(v))
        y.append(float(rng.standard_normal()))
    X = sp.csr_array((np.concatenate(val), np.concatenate(idx),
                      np.arange(0, 4 * len(y) + 1, 4)), shape=(len(y), d))
    return Shards(X, np.array(y), np.arange(len(y)), np.full(mix.n, q)), z0


def _run_sparse(mix, rounds, d=12, q=6, **kw):
    shards, z0 = _data(mix, d=d, q=q)
    table = BatchedTable(SampleMatrix.from_shards("ridge", shards), z0, SEED)
    return run_sparse(table, mix, z0, rounds, alpha=ALPHA, lam=LAM, **kw)


def _dense_reference(mix, variant, rounds, d=12):
    # the per-node update rule, one node at a time
    shards, z0 = _data(mix, d=d)
    samples = build_problem(shards, "ridge", LAM).samples
    states = [make_node(n, samples, ALPHA, LAM, z0[n], seed=SEED) for n in range(mix.n)]
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
    # short runs: they stop before the initial-state flood has reached every
    # node, in the round it does (D - 1, D the largest eccentricity), and
    # just after
    mix = build_mixing(make_adjacency(kind, n))
    D = int(mix.distances.max())
    for rounds in (1, 2, D - 1, D, D + 1):
        Z_sparse, _ = _run_sparse(mix, rounds, variant=variant)
        gap = np.max(np.abs(Z_sparse - _dense_reference(mix, variant, rounds)))
        assert gap < 1e-10, (rounds, gap)


def test_sparse_payload_bounded_by_support():
    # every round's payload per node is at most
    # (number of origins) * (max delta support)
    mix = build_mixing(make_adjacency("ring", 5))
    shards, _ = _data(mix, d=20, q=5)
    max_nnz = np.diff(shards.X.indptr).max()
    rounds = 50
    done = []
    _, net = _run_sparse(mix, rounds, d=20, q=5, variant="dsba",
                         on_round=lambda t, Z, table: done.append(t))
    assert done == list(range(rounds))
    assert net.max_round_values.max() <= mix.n * max_nnz


def test_network_state_is_bounded_by_the_graph():
    # the ring holds the last D + 1 rounds sent, so a 100x longer run leaves
    # a network of the same size, with no per-round history
    mix = build_mixing(make_adjacency("path", 5))
    short, long = (vars(_run_sparse(mix, rounds, d=8, q=4, variant="dsba")[1])
                   for rounds in (20, 2000))
    assert short.keys() == long.keys()
    for name, value in long.items():
        assert not isinstance(value, dict), name
        assert np.shape(value) == np.shape(short[name]), name


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
    """Drops packet (origin, round) on its way to one destination: the
    span's arrivals from that origin stop before it."""

    def __init__(self, distances, origin, rnd, dest):
        super().__init__(distances)
        self.drop = (origin, rnd, dest)

    def deliver(self, t, end):
        first, last = arrivals = super().deliver(t, end)
        origin, rnd, dest = self.drop
        if first[dest, origin] <= rnd <= last[dest, origin]:
            last[dest, origin] = rnd - 1
            if rnd == first[dest, origin]:
                first[dest, origin] = last[dest, origin] = NO_PACKET
        return arrivals


# ids are origin-dest, and "flood" for the initial-state packet (round -1);
# rnd None is the round D + 4
@pytest.mark.parametrize("n,origin,dest,rnd",
                         [(4, 0, 3, None), (4, 2, 1, None), (4, 3, 2, None),
                          (6, 0, 5, None), (4, 0, 3, -1), (6, 0, 5, -1),
                          (4, 2, 1, -1), (4, 0, 3, 1097)],
                         ids=["0-3", "2-1", "3-2", "0-5", "flood-0-3", "flood-0-5",
                              "flood-2-1", "0-3-second-block"])
def test_observer_needs_every_delta_it_reads(n, origin, dest, rnd):
    # distances 3, 1 and 1 on a 4-node path, and the far end of a 6-node
    # path, where the lag equals the largest eccentricity D = 5; the last
    # case's packet is due at round 1,100, in the second span of draws and
    # between the rows where the traffic is read
    mix = build_mixing(make_adjacency("path", n))
    if rnd is None:
        rnd = int(mix.distances.max()) + 4
    net = _Withholding(mix.distances, origin, rnd, dest)
    done = []

    def on_round(t, Z, table):
        done.append(t)
        if (t + 1) % 7 == 0:
            net.received_doubles()

    with pytest.raises(ProtocolError, match=f"observer {dest} missing delta "
                                            f"\\(origin={origin}, round={rnd}\\)"):
        _run_sparse(mix, max(60, rnd + 100), d=8, q=4, variant="dsba",
                    on_round=on_round, net=net)
    # the observer first reads the packet in the round it was due, before
    # round 0 completes for the flood to a neighbour
    assert len(done) == rnd + mix.distances[origin, dest]


def test_observer_rejects_gap_and_repeat():
    mix = build_mixing(make_adjacency("ring", 4))
    obs = ObserverMemory(mix)

    def arrivals(*packets):
        # one-packet spans: first and last round alike
        arr = np.full((2, 4, 4), NO_PACKET)
        for dest, origin, rnd in packets:
            arr[:, dest, origin] = rnd
        return arr

    obs.absorb(arrivals((0, 1, -1), (0, 2, -1)))
    obs.absorb(arrivals((0, 1, 0), (0, 2, 0)))
    with pytest.raises(ProtocolError, match="observer 0 .*origin=1, round=0.* after round 0"):
        obs.absorb(arrivals((0, 1, 0)))
    with pytest.raises(ProtocolError, match="observer 0 .*origin=2, round=2.* after round 0"):
        obs.absorb(arrivals((3, 1, 0), (0, 2, 2)))
    # a rejected round leaves the watermark untouched
    expected = np.full((4, 4), NO_PACKET)
    np.fill_diagonal(expected, -1)
    expected[0, 1:3] = 0
    assert obs.heard.tolist() == expected.tolist()


class _Recording(Network):
    """Keeps every round sent, every span's arrivals, and the delta values
    each round delivered to each node: it settles before every send."""

    def __init__(self, distances):
        super().__init__(distances)
        self.sent, self.spans, self.values = [], [], {}

    def broadcast(self, t, nnz):
        self._record()
        self.sent.append((t, np.array(nnz)))
        super().broadcast(t, nnz)

    def deliver(self, t, end):
        self.spans.append(super().deliver(t, end))
        return self.spans[-1]

    def settle(self):
        self._record()

    def _record(self):
        before, t = self.value_doubles.copy(), self._sent
        super().settle()
        if t >= 0 and t not in self.values:
            self.values[t] = self.value_doubles - before


def _check_traffic_against_oracle(rounds, d=12):
    # packet by packet: (o, s) reaches every u != o at round s + dist(o, u);
    # round -1's packet is o's initial state, 2 d values
    mix = build_mixing(make_adjacency("erdos_renyi", 7, p=0.4, seed=2))
    net = _Recording(mix.distances)
    _run_sparse(mix, rounds, d=d, q=5, variant="dsa", net=net)
    # settled once at the end, as a run settles, the ledger counts the same
    _, bulk = _run_sparse(mix, rounds, d=d, q=5, variant="dsa")
    last = rounds - 1
    values = {t: np.zeros(mix.n, dtype=np.int64) for t in range(rounds)}
    initial = np.zeros(mix.n, dtype=np.int64)
    metadata = np.zeros(mix.n, dtype=np.int64)
    arrivals = {t: [set() for _ in range(mix.n)] for t in range(rounds)}
    assert [s for s, _ in net.sent] == list(range(-1, rounds))
    assert net.sent[0][1].tolist() == [2 * d] * mix.n
    for s, nnz in net.sent:
        for origin, value_doubles in enumerate(nnz):
            for u in range(mix.n):
                t = s + mix.distances[origin, u]
                if u != origin and t <= last:
                    if s == -1:
                        initial[u] += value_doubles
                    else:
                        values[t][u] += value_doubles
                    # indices, plus origin and round tags
                    metadata[u] += value_doubles + 2
                    arrivals[t][u].add((origin, s))
    # a span's arrivals, round by round: round s reaches u at s + dist
    got = {t: [set() for _ in range(mix.n)] for t in range(rounds)}
    for first, last_round in net.spans:
        for u, o in np.argwhere(last_round != NO_PACKET):
            for s in range(first[u, o], last_round[u, o] + 1):
                got[s + mix.distances[o, u]][u].add((o, s))
    assert got == arrivals
    assert sorted(net.values) == list(range(rounds))
    for t in range(rounds):
        assert np.array_equal(net.values[t], values[t])
    for n in (net, bulk):
        assert np.array_equal(n.value_doubles, sum(values.values()))
        assert np.array_equal(n.max_round_values, np.max(list(values.values()), axis=0))
        assert np.array_equal(n.initial_doubles, initial)
        assert np.array_equal(n.metadata_doubles, metadata)
        assert np.array_equal(n.received_doubles(), n.value_doubles + initial)
    return mix, net


def test_network_accounting_matches_per_packet_oracle():
    _check_traffic_against_oracle(30)


def test_run_inside_warmup_delivers_its_packets():
    # runs shorter than the largest eccentricity D deliver their flood up to
    # their last round, before it has reached every node
    for rounds in (1, 3):
        mix, net = _check_traffic_against_oracle(rounds)
        assert rounds < mix.distances.max()
        assert max(net.values) == rounds - 1
        assert 0 < net.initial_doubles.min() < (mix.n - 1) * 2 * 12
    assert net.value_doubles.sum() > 0


WITNESS_ROUNDS, WITNESS_Q = 25, 6


def _witness_run(mix, family, variant):
    """A sparse run's live mixing products Wt Z^t for t < WITNESS_ROUNDS,
    and what its packets carry, taken from the engine's own arrays: Z^0,
    the table means phibar^0 and the deltas delta^s = (phibar^{s+1} -
    phibar^s) q. Also the largest magnitude of Z, the dual S and alpha
    phibar over the run."""
    shards, _ = _data(mix, q=WITNESS_Q)
    if family != "ridge":
        shards.y = np.where(shards.y > 0, 1.0, -1.0)
    p = np.mean(shards.y > 0)
    samples = SampleMatrix.from_shards(family, shards, p=p if family == "auc" else None)
    Z0 = np.random.default_rng(5).standard_normal((mix.n, 12 + 3 * (family == "auc")))
    table = BatchedTable(samples, Z0, SEED)
    Zs, phibars = [Z0], [table.phibar.copy()]
    scale = [np.abs(Z0).max(), ALPHA * np.abs(table.phibar).max()]

    def on_round(t, Z, table):
        Zs.append(Z)
        phibars.append(table.phibar.copy())
        scale.extend([np.abs(Z).max(), np.abs(table.dual).max(),
                      ALPHA * np.abs(table.phibar).max()])

    run_sparse(table, mix, Z0, WITNESS_ROUNDS, alpha=ALPHA, lam=LAM, variant=variant,
               on_round=on_round)
    deltas = np.stack([(b - a) * WITNESS_Q for a, b in zip(phibars, phibars[1:])])
    live = [mix.Wt @ Z for Z in Zs[:-1]]
    return live, Z0, phibars[0], deltas, max(scale)


def _rebuilt_row(mix, variant, o, t, Z0, phibar0, deltas, z_known, phi_known, d_known):
    """Row o of Wt Z^t from the packets observer o holds: the round is
    linear in (Z^0, phibar^0, the deltas), so run it with every value o
    does not hold set to zero. The dual's node-mean subtraction is left out:
    S's node mean is zero in exact arithmetic."""
    Z = np.where(z_known[:, None], Z0, 0.0)
    phibar = np.where(phi_known[:, None], phibar0, 0.0)
    S = np.zeros_like(Z)
    rho = 1.0 / (1.0 + LAM * ALPHA)
    for s in range(t):
        WZ = mix.Wt @ Z
        S += Z - WZ
        u = WZ - S
        delta = np.where(d_known[s][:, None], deltas[s], 0.0)
        if variant == "dsba":
            Z = rho * (u - ALPHA * phibar) - rho * ALPHA * delta
        else:
            Z = u - ALPHA * (phibar + LAM * Z) - ALPHA * delta
        phibar = phibar + delta / WITNESS_Q
    return (mix.Wt @ Z)[o]


def _held(mix, o, t):
    """What observer o holds at round t: initial states from origins within
    t + 1 hops (the flood, sent at round -1), and delta_m^s once s +
    dist(o, m) <= t."""
    dist = mix.distances[o]
    initial = dist - 1 <= t
    return initial, initial.copy(), np.arange(WITNESS_ROUNDS)[:, None] + dist <= t


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
@pytest.mark.parametrize("kind,n", [("path", 6), ("star", 6), ("random", 10)])
def test_observer_rebuilds_its_mixing_row(kind, n, family, variant):
    # claim (ii): every node can compute its mixing input from the packets
    # it has been sent. The random graph (graph seed 0) has a leaf.
    mix = build_mixing(make_adjacency(kind, n, seed=0))
    live, Z0, phibar0, deltas, scale = _witness_run(mix, family, variant)
    # Bound, fixed from float64 before running: per round every entry
    # passes through the N-term mixing sum and at most q + 4 further
    # rounded operations (the dual, phibar and delta terms, and the delta's
    # recovery from phibar, scaled by q), each off by at most eps times the
    # largest magnitude in play, `scale`. The (Z, S) map contracts except
    # along the consensus direction, where an error in the dual's node mean
    # feeds Z every later round, so errors grow at most linearly and sum to
    # at most T^2 (N + q + 4) eps scale after T rounds.
    eps = np.finfo(np.float64).eps
    bound = WITNESS_ROUNDS ** 2 * (mix.n + WITNESS_Q + 4) * eps * scale

    def gap(o, t, known):
        return np.abs(_rebuilt_row(mix, variant, o, t, Z0, phibar0, deltas, *known)
                      - live[t][o]).max()

    for o in range(mix.n):
        for t in range(WITNESS_ROUNDS):
            assert gap(o, t, _held(mix, o, t)) <= bound, (o, t)

    # negative control: one packet fewer, in the round o first reads it,
    # moves the row by far more than the bound: z_m^0 at round dist - 1,
    # phibar_m^0 at round dist, delta_m^1 at round 1 + dist (dsa's round-0
    # deltas are zero in exact arithmetic, its table being anchored at Z^0)
    for o in range(mix.n):
        for m in range(mix.n):
            dist = mix.distances[o, m]
            if m == o or dist + 1 >= WITNESS_ROUNDS:
                continue
            for t, part in ((dist - 1, 0), (dist, 1), (dist + 1, 2)):
                known = _held(mix, o, t)
                if part < 2:
                    known[part][m] = False
                else:
                    known[2][1, m] = False
                assert gap(o, t, known) > 100 * bound, (o, m, part)
