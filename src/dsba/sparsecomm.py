"""Sparse-communication execution of the decentralized updates.

After a short dense warm-up, nodes stop broadcasting full iterates and
exchange only the per-round sparse table corrections (delta packets), relayed
hop-by-hop along shortest paths. The relay is two things: the traffic
accounting (`Network`), which counts every value and tag each node receives,
and the receive rule (`ObserverMemory`), which checks before every round that
each node has heard every delta its mixing input reads. The round itself is
the dense batched engine's, `BatchedTable.step` on Wt Z^t: every node is an
*observer* that could rebuild its row of that product from the deltas it has
heard, and the simulation takes the row from the live product instead, so a
sparse run equals the dense batched run bitwise, at every round.

Observer o may read origin m's corrections only up to the delivered-round
watermark heard[o, m], the last round it heard from m with no gap; needing
more, or hearing a gap or a repeat, raises `ProtocolError`. In exact
arithmetic row o of Wt Z^t depends on origin m's round t - k only if
dist(o, m) <= k, and that round has reached o by round t, so the relay
needs no traffic beyond the deltas; since `heard` only grows, one comparison
at lag max(dist(o, m), 1) checks every such round. The guarantee is an
exact-arithmetic one: the round runs on whole arrays, and the dual's
node-mean subtraction sums every row, so in float64 row o carries rounding,
at the level of the last bit, from origins o has not heard yet.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .algorithms import BatchedTable
# the per-node step is the reference the batched round is tested against;
# perfbench/spans.py traces it under this module's name as well
from .algorithms import dsba_node_step  # noqa: F401
from .topology import MixingMatrix


class ProtocolError(RuntimeError):
    pass


class Network:
    """Synchronous lossless packet fabric with per-node receive accounting.
    Packet (origin o, round s) reaches node u exactly once, at round
    s + dist(o, u), so the hop-distance matrix fixes which origins each
    destination hears from at each delay, and a round is delivered and
    accounted by array operations."""

    def __init__(self, distances: np.ndarray):
        self.n = len(distances)
        # reach[k][o, u]: o's packets reach u after k + 1 rounds (one empty
        # delay on a single node, so that sent rounds still retire)
        self._reach = [distances == k for k in range(1, max(distances.max(), 1) + 1)]
        # origin and round tags each destination receives per round and delay
        self._tags = [2 * reach.sum(axis=0) for reach in self._reach]
        # round -> each send's per-origin value counts (more than one send
        # of a round is a protocol error, raised when it is delivered)
        self._sent: defaultdict[int, list[np.ndarray]] = defaultdict(list)
        # round -> per-origin value counts of its packets still relayed
        self._in_flight: dict[int, np.ndarray] = {}
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.broadcast_doubles = np.zeros(self.n, dtype=np.int64)
        # payload values delivered per round, for per-round bound checks
        self.round_values: dict[int, np.ndarray] = {}

    def broadcast(self, t: int, nnz: np.ndarray) -> None:
        """Send round t's packets, one per origin: origin m's carries nnz[m]
        values and as many indices, plus its origin and round tags."""
        self._sent[t].append(np.asarray(nnz, dtype=np.int64))

    def account_dense_round(self, degrees: np.ndarray, d: int) -> None:
        self.broadcast_doubles += degrees.astype(np.int64) * d

    def deliver(self, t: int) -> np.ndarray:
        """Arrivals at the start of round t: entry [u, o] is the round s of
        the packet from origin o that reaches u now (s + dist(o, u) = t), or
        -1 for none. Round t - 1's packets set off now."""
        sends = self._sent.pop(t - 1, [])
        if len(sends) > 1:
            raise ProtocolError(f"duplicate delivery of round {t - 1}")
        if sends:
            self._in_flight[t - 1] = sends[0]
        arrivals = np.full((self.n, self.n), -1, dtype=np.int64)
        values = np.zeros(self.n, dtype=np.int64)
        for delay, (reach, tags) in enumerate(zip(self._reach, self._tags), 1):
            if (nnz := self._in_flight.get(t - delay)) is not None:
                heard = nnz @ reach
                values += heard
                # a packet's metadata is its indices plus the two tags
                self.metadata_doubles += heard + tags
                arrivals[reach.T] = t - delay
        self._in_flight.pop(t - len(self._reach), None)
        self.round_values[t] = values
        self.value_doubles += values
        return arrivals

    def received_doubles(self) -> np.ndarray:
        """Per-node cumulative 64-bit values received (payload + dense rounds)."""
        return self.value_doubles + self.broadcast_doubles


class ObserverMemory:
    """Every observer's delivered-round watermark, kept once for the whole
    network. `heard[o, m]` is the last round observer o heard from origin m
    with no gap before it. At round t, row o of the mixing product Wt Z^t
    reads origin m's deltas up to round t - lag[o, m], with lag[o, m] =
    max(dist(o, m), 1). The product itself is the live round's: this class
    holds no state of the network's round and only checks that each row
    reads what its observer has heard."""

    def __init__(self, mix: MixingMatrix):
        # at least 1, since the newest deltas are round t - 1's
        self.lag = np.maximum(mix.distances, 1)
        self.heard = np.full((mix.n, mix.n), -1, dtype=np.int64)

    def absorb(self, arrivals: np.ndarray) -> None:
        """Advance the watermark by one round of arrivals (see
        `Network.deliver`); each must be the next round from its origin."""
        got = arrivals >= 0
        bad = got & (arrivals != self.heard + 1)
        if bad.any():
            o, m = np.argwhere(bad)[0]
            raise ProtocolError(f"observer {o} heard delta (origin={m}, "
                                f"round={arrivals[o, m]}) after round {self.heard[o, m]}")
        self.heard[got] = arrivals[got]

    def advance(self, t: int) -> None:
        """Check that every observer may read its row of round t's mixing
        product Wt Z^t, row o = sum_m wt_{o,m} z_m^t. In exact arithmetic
        row o reads round t - k only from origins within k hops of o, and
        since `heard` only grows, one comparison at `lag` checks that
        observer o has heard all of those."""
        late = self.heard < t - self.lag
        if late.any():
            o, m = np.argwhere(late)[0]
            raise ProtocolError(f"observer {o} missing delta "
                                f"(origin={m}, round={self.heard[o, m] + 1})")

    def finish_round(self, t: int) -> None:
        """Close round t: every origin has its own round-t delta."""
        np.fill_diagonal(self.heard, t)


def bootstrap_rounds(mix: MixingMatrix) -> int:
    """Dense warm-up length, the graph's largest eccentricity plus three
    rounds. The relay keeps no history of the warm-up, so the length sets
    only how many rounds are sent dense, and with it a run's traffic."""
    return int(mix.eccentricities.max()) + 3


def run_sparse(table: BatchedTable, mix: MixingMatrix, Z0: np.ndarray, rounds: int,
               *, alpha: float, lam: float, variant: str = "dsba",
               on_round=None, net: Network | None = None) -> tuple[np.ndarray, Network]:
    """Execute `rounds` synchronous rounds under the sparse protocol.

    Every node starts at its row of `Z0`, where `table` (fresh, anchored at
    `Z0`) has its entries. All nodes step in one array round,
    `BatchedTable.step`, the dense batched engine's round, on the mixing
    product Wt Z, so a sparse run is the dense batched run bitwise. What
    the protocol adds is its traffic and its receive rule: after the
    warm-up, nodes send only their deltas, and before every round
    `ObserverMemory` checks that each node has heard every delta its row of
    Wt Z reads. A node's packet carries its delta's nonzeros: the sample
    row's, plus two tail values for auc.

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
    dim = Z.shape[1]
    payload = np.diff(table.samples.X.indptr) + (2 if table.auc else 0)
    memory = ObserverMemory(mix)
    degrees = mix.adjacency.sum(axis=1)
    t_boot = min(bootstrap_rounds(mix), rounds)
    for t in range(rounds):
        if t < t_boot:
            net.account_dense_round(degrees, dim)
        else:
            if t > t_boot:
                memory.absorb(net.deliver(t))
            memory.advance(t)
        Z, r = table.step(Z, mix.Wt @ Z, alpha, lam, variant)
        net.broadcast(t, payload[r])
        memory.finish_round(t)
        if on_round is not None and on_round(t, Z, table):
            break
        if t + 1 == t_boot:
            # packets relayed during warm-up are delivered on their normal timetable
            for s in range(1, t_boot + 1):
                memory.absorb(net.deliver(s))
    return Z, net
