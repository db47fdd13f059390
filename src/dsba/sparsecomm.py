"""Sparse-communication execution of the decentralized updates.

At round -1 every node floods its initial state, z_m^0 and its table mean
phibar_m^0; from round 0 on nodes exchange only the per-round sparse table
corrections (delta packets). Packets are relayed hop-by-hop along shortest
paths. The relay is two things: the traffic accounting (`Network`), which
counts every value and tag each node receives from the hop-distance matrix
and a ring of the last D + 1 rounds sent, and the receive rule
(`ObserverMemory`), which checks before every round that each node has heard
every packet its mixing input reads. The round itself is the dense batched
engine's, `BatchedTable.step` on Wt Z^t: every node is an *observer* that
could rebuild its row of that product from the packets it has heard
(`tests/test_sparsecomm.py::test_observer_rebuilds_its_mixing_row` does so),
and the simulation takes the row from the live product instead, so a sparse
run equals the dense batched run bitwise, at every round.

Observer o may read origin m's packets only up to the delivered-round
watermark heard[o, m], the last round it heard from m with no gap; needing
more, or hearing a gap or a repeat, raises `ProtocolError`. In exact
arithmetic row o of Wt Z^t depends on origin m's round t - k only if
dist(o, m) <= k, where round -1 is the flood, and that round has reached o
by round t, so the relay needs no traffic beyond the flood and the deltas;
since `heard` only grows, one comparison at lag max(dist(o, m), 1) checks
every such round. The guarantee is an exact-arithmetic one: the round runs
on whole arrays, and the dual's node-mean subtraction sums every row, so in
float64 row o carries rounding, at the level of the last bit, from origins
o has not heard yet.
"""

from __future__ import annotations

import numpy as np

from .algorithms import BatchedTable
# the per-node step is the reference the batched round is tested against;
# perfbench/spans.py traces it under this module's name as well
from .algorithms import dsba_node_step  # noqa: F401
from .topology import MixingMatrix


class ProtocolError(RuntimeError):
    pass


# `Network.deliver`'s entry for "no packet"; round -1 is the flood's
NO_PACKET = -2


class Network:
    """Synchronous lossless packet fabric with per-node receive accounting.
    Packet (origin o, round s) reaches node u exactly once, at round
    s + dist(o, u), so the hop-distance matrix fixes all traffic, and the
    state is the graph's, not the run's: a ring of the last D + 1 rounds'
    per-origin value counts, D the largest distance. Round -1 is the
    initial-state flood. Every packet carries its values, as many indices,
    and an origin and a round tag; so the flood's indices over-count its
    metadata, which is not part of a node's received doubles."""

    def __init__(self, distances: np.ndarray):
        self.n = len(distances)
        # reach[k - 1][o, u]: o's packets reach u k rounds after they are sent
        self._reach = [distances == k for k in range(1, distances.max() + 1)]
        # origin and round tags each destination receives per round and delay
        self._tags = [2 * reach.sum(axis=0) for reach in self._reach]
        # ring row s % (D + 1): round s's per-origin value counts, its round
        # tag (None until a round is sent) and how often it was sent
        ring = len(self._reach) + 1
        self._counts = np.zeros((ring, self.n), dtype=np.int64)
        self._round: list[int | None] = [None] * ring
        self._sends = [0] * ring
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.initial_doubles = np.zeros(self.n, dtype=np.int64)
        # each node's largest delta payload received in one round
        self.max_round_values = np.zeros(self.n, dtype=np.int64)

    def broadcast(self, t: int, nnz: np.ndarray) -> None:
        """Send round t's packets, one per origin: origin m's carries nnz[m]
        values and as many indices, plus its origin and round tags. A round
        sent twice is a protocol error, raised when it is delivered."""
        row = t % len(self._round)
        self._sends[row] = self._sends[row] + 1 if self._round[row] == t else 1
        self._round[row], self._counts[row] = t, nnz

    def deliver(self, t: int) -> np.ndarray:
        """Arrivals at the start of round t: entry [u, o] is the round s of
        the packet from origin o that reaches u now (s + dist(o, u) = t), or
        `NO_PACKET`. Delay k reads round t - k from the ring if it was sent
        (one gather over all delays was 35% slower at N = 10, 0-10% faster at
        N = 50). Flood values count to `initial_doubles`, deltas' to
        `value_doubles`."""
        ring = len(self._round)
        if self._round[(t - 1) % ring] == t - 1 and self._sends[(t - 1) % ring] > 1:
            raise ProtocolError(f"duplicate delivery of round {t - 1}")
        arrivals = np.full((self.n, self.n), NO_PACKET, dtype=np.int64)
        values = np.zeros(self.n, dtype=np.int64)
        for s, reach, tags in zip(range(t - 1, t - ring, -1), self._reach, self._tags):
            if self._round[s % ring] == s:
                heard = self._counts[s % ring] @ reach
                if s < 0:
                    self.initial_doubles += heard
                else:
                    values += heard
                # a packet's metadata is its indices plus the two tags
                self.metadata_doubles += heard + tags
                arrivals[reach.T] = s
        self.value_doubles += values
        np.maximum(self.max_round_values, values, out=self.max_round_values)
        return arrivals

    def received_doubles(self) -> np.ndarray:
        """Per-node cumulative 64-bit values received: the initial-state
        flood plus the delta payloads."""
        return self.value_doubles + self.initial_doubles


def traffic_summary(net: Network) -> dict:
    """Per-node doubles a sparse run received, by kind (delta payloads, the
    initial-state flood, packet metadata), and the largest delta payload
    any node received in one round."""
    return {
        "payload_values": net.value_doubles.tolist(),
        "metadata": net.metadata_doubles.tolist(),
        "initial_state": net.initial_doubles.tolist(),
        "max_round_payload": int(net.max_round_values.max()),
    }


class ObserverMemory:
    """Every observer's delivered-round watermark, kept once for the whole
    network. `heard[o, m]` is the last round observer o heard from origin m
    with no gap before it: -1 once it has m's initial state (its own from the
    start), `NO_PACKET` before. At round t, row o of the mixing product Wt Z^t
    reads origin m's packets up to round t - lag[o, m], with lag[o, m] =
    max(dist(o, m), 1). The product itself is the live round's: this class
    holds no state of the network's round and only checks that each row
    reads what its observer has heard."""

    def __init__(self, mix: MixingMatrix):
        # at least 1, since the newest deltas are round t - 1's
        self.lag = np.maximum(mix.distances, 1)
        self.heard = np.full((mix.n, mix.n), NO_PACKET, dtype=np.int64)
        np.fill_diagonal(self.heard, -1)

    def absorb(self, arrivals: np.ndarray) -> None:
        """Advance the watermark by one round of arrivals (see
        `Network.deliver`); each must be the next round from its origin."""
        got = arrivals != NO_PACKET
        bad = got & (arrivals != self.heard + 1)
        if bad.any():
            o, m = np.argwhere(bad)[0]
            raise ProtocolError(f"observer {o} heard delta (origin={m}, "
                                f"round={arrivals[o, m]}) after round {self.heard[o, m]}")
        self.heard[got] = arrivals[got]

    def advance(self, t: int) -> None:
        """Check that every observer may read its row of round t's mixing
        product Wt Z^t, row o = sum_m wt_{o,m} z_m^t. In exact arithmetic
        row o reads round t - k (-1 the flood) only from origins within k
        hops of o, and since `heard` only grows, one comparison at `lag`
        checks that observer o has heard all of those."""
        late = self.heard < t - self.lag
        if late.any():
            o, m = np.argwhere(late)[0]
            raise ProtocolError(f"observer {o} missing delta "
                                f"(origin={m}, round={self.heard[o, m] + 1})")

    def finish_round(self, t: int) -> None:
        """Close round t: every origin has its own round-t delta."""
        np.fill_diagonal(self.heard, t)


def run_sparse(table: BatchedTable, mix: MixingMatrix, Z0: np.ndarray, rounds: int,
               *, alpha: float, lam: float, variant: str = "dsba",
               on_round=None, net: Network | None = None) -> tuple[np.ndarray, Network]:
    """Execute `rounds` synchronous rounds under the sparse protocol.

    Every node starts at its row of `Z0`, where `table` (fresh, anchored at
    `Z0`) has its entries. All nodes step in one array round,
    `BatchedTable.step`, the dense batched engine's round, on the mixing
    product Wt Z, so a sparse run is the dense batched run bitwise. What
    the protocol adds is its traffic and its receive rule. At round -1 each
    node floods its initial state, its row of `Z0` and its table mean
    (2 dim values); every round from 0 on it sends only its delta, whose
    packet carries the delta's nonzeros: the sample row's, plus two tail
    values for auc. Before every round `ObserverMemory` checks that each
    node has heard every packet its row of Wt Z reads.

    `on_round(t, Z, table)` is called after every round with the stacked
    iterate matrix and the table; a true result stops the run. `net` is a
    fresh network on `mix`'s graph, passed in by callers that read its
    traffic inside `on_round`; by default one is built here. Returns the
    final iterate matrix and the network (for communication accounting).
    """
    if variant not in ("dsba", "dsa"):
        raise ProtocolError(f"sparse protocol supports dsba/dsa, not {variant!r}")
    if net is None:
        net = Network(mix.distances)
    Z = np.array(Z0, dtype=np.float64)
    payload = np.diff(table.samples.X.indptr) + (2 if table.auc else 0)
    memory = ObserverMemory(mix)
    net.broadcast(-1, np.full(mix.n, 2 * Z.shape[1]))
    for t in range(rounds):
        memory.absorb(net.deliver(t))
        memory.advance(t)
        Z, r = table.step(Z, mix.Wt @ Z, alpha, lam, variant)
        net.broadcast(t, payload[r])
        memory.finish_round(t)
        if on_round is not None and on_round(t, Z, table):
            break
    return Z, net
