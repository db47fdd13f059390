"""Sparse-communication execution of the decentralized updates.

After a short dense warm-up, nodes stop broadcasting full iterates and
exchange only the per-round sparse table corrections (delta packets), relayed
hop-by-hop along shortest paths. Every node acts as an *observer* of the
whole network that rebuilds its own mixing input from the delta stream. The
observers' state is kept once for the whole network (`ObserverMemory`): the
network's primal-dual state at the head round and its mixing product, plus
the delta blocks not replayed yet.

Each round the observers replay the newest delta block once through
`primal_dual_round`, the update every node takes in `BatchedTable.step`, and
so rebuild every node's mixing product Wt Z^t with one product. There is one
recurrence: a node's round and an observer's replay of it are the same
operations on the same arrays, so a sparse run equals the dense batched run
bitwise, at every round.

Each delta is written once, by its origin, into the round's N x dim block.
Observer o reads origin m's corrections only below the delivered-round
watermark heard[o, m], the last round it heard from m with no gap; reading
past it, or hearing a gap or a repeat, raises `ProtocolError`. In exact
arithmetic row o of Wt Z^t depends on origin m's round t - k only if
dist(o, m) <= k, and that round has reached o by round t, so the replay
needs no extra traffic; since `heard` only grows, one comparison at lag
max(dist(o, m), 1) checks every such round. The guarantee is an
exact-arithmetic one: the replay runs on whole blocks, and the dual's
node-mean subtraction sums every row, so in float64 row o carries rounding,
at the level of the last bit, from origins o has not heard yet.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .algorithms import BatchedTable, primal_dual_round
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
    """Every observer's view of the network, kept once at the head round.

    The head is the network's primal-dual state, Z^t, the dual S^{t-1} and
    the table mean phibar^t, with its mixing product Wt Z^t, plus the delta
    blocks of the rounds not replayed yet; row m of round s's block is node
    m's table correction. `advance` replays each block once through
    `primal_dual_round`, the update every node takes, which moves the head
    one round and gives every node's mixing product.

    The head starts at the run's initial state: Z^0, S = 0 and the table
    mean anchored at Z^0, phibar^0. That holds nothing the dense warm-up
    does not give observers: Z^0 is where every node starts, and phibar^0
    follows from Z^0, the warm-up iterate Z^1 and the relayed round-0 deltas
    through round 0's update. The first relay round replays the warm-up
    rounds."""

    def __init__(self, mix: MixingMatrix, qs: np.ndarray, Z0: np.ndarray,
                 phibar: np.ndarray, alpha: float, lam: float, variant: str):
        if variant not in ("dsba", "dsa"):
            raise ProtocolError(f"sparse protocol supports dsba/dsa, not {variant!r}")
        self.Wt = mix.Wt
        self.inv_q = 1.0 / np.asarray(qs)[:, None]
        self.alpha, self.lam, self.variant = alpha, lam, variant
        # lag[o, m]: observer o reads origin m's rounds up to t - lag[o, m] at
        # round t; at least 1, since the newest deltas are round t - 1's
        self.lag = np.maximum(mix.distances, 1)
        self.round = 0  # the head's round
        self.Z = np.array(Z0, dtype=np.float64)
        self.WZ = self.Wt @ self.Z
        self.dual = np.zeros(self.Z.shape)
        self.phibar = np.array(phibar, dtype=np.float64)
        self.blocks: dict[int, np.ndarray] = {}  # round s >= self.round -> delta block
        # delivered-round watermark: heard[o, m] is the last round observer o
        # heard from origin m with no gap before it
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

    def advance(self, t: int) -> np.ndarray:
        """Every node's mixing product Wt Z^t, row n = sum_m wt_{n,m} z_m^t:
        the head replays the blocks of its rounds up to t - 1, each once. In
        exact arithmetic row o reads round t - k only from origins within k
        hops of o, and one comparison at `lag` checks that observer o has
        heard those. The product returned is the head's own array, not a
        copy: callers must not write to it, and `primal_dual_round` does not."""
        late = self.heard < t - self.lag
        if late.any():
            o, m = np.argwhere(late)[0]
            raise ProtocolError(f"observer {o} missing delta "
                                f"(origin={m}, round={self.heard[o, m] + 1})")
        while self.round < t:
            block = self.blocks.pop(self.round)
            self.Z, _ = primal_dual_round(self.Z, self.WZ, self.dual, self.phibar, self.inv_q,
                                          self.alpha, self.lam, self.variant,
                                          lambda u, c: block)
            self.WZ = self.Wt @ self.Z
            self.round += 1
        return self.WZ

    def finish_round(self, t: int, block: np.ndarray) -> None:
        """Close round t on its delta block, row m written by origin m."""
        np.fill_diagonal(self.heard, t)
        self.blocks[t] = block


def bootstrap_rounds(mix: MixingMatrix) -> int:
    """Dense warm-up length, the graph's largest eccentricity plus three
    rounds. The observers' head starts at the run's initial state, so
    the relay needs no warm-up history; the length sets only how many
    rounds are sent dense, and with it a run's traffic."""
    return int(mix.eccentricities.max()) + 3


def run_sparse(table: BatchedTable, mix: MixingMatrix, Z0: np.ndarray, rounds: int,
               *, alpha: float, lam: float, variant: str = "dsba",
               on_round=None, net: Network | None = None) -> tuple[np.ndarray, Network]:
    """Execute `rounds` synchronous rounds under the sparse protocol.

    Every node starts at its row of `Z0`, where `table` (fresh, anchored at
    `Z0`) has its entries. All nodes step in one array round,
    `BatchedTable.step`, the dense batched engine's primal-dual round: on the
    dense mixing product Wt Z during the warm-up, and on the observers'
    rebuild of it from the relayed deltas after, which replays the same
    rounds and so gives the dense run's product bitwise. A node's packet
    carries its delta's nonzeros: the sample row's, plus two tail values for
    auc.

    `on_round(t, Z, table)` is called after every round with the stacked
    iterate matrix and the table; a true result stops the run. `net` is a
    fresh network on `mix`'s graph, passed in by callers that read its
    traffic inside `on_round`; by default one is built here. Returns the
    final iterate matrix and the network (for communication accounting).
    """
    if net is None:
        net = Network(mix.distances)
    Z = np.array(Z0, dtype=np.float64)
    dim = Z.shape[1]
    payload = np.diff(table.samples.X.indptr) + (2 if table.auc else 0)
    memory = ObserverMemory(mix, table.sizes, Z, table.phibar, alpha, lam, variant)
    degrees = mix.adjacency.sum(axis=1)
    t_boot = min(bootstrap_rounds(mix), rounds)
    for t in range(rounds):
        if t < t_boot:
            WZ = mix.Wt @ Z
            net.account_dense_round(degrees, dim)
        else:
            if t > t_boot:
                memory.absorb(net.deliver(t))
            WZ = memory.advance(t)
        Z, delta, r = table.step(Z, WZ, alpha, lam, variant)
        net.broadcast(t, payload[r])
        memory.finish_round(t, delta)
        if on_round is not None and on_round(t, Z, table):
            break
        if t + 1 == t_boot:
            # packets relayed during warm-up are delivered on their normal timetable
            for s in range(1, t_boot + 1):
                memory.absorb(net.deliver(s))
    return Z, net
