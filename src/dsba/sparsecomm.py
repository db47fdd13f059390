"""Sparse-communication execution of the decentralized updates.

At round -1 every node floods its initial state, z_m^0 and its table mean
phibar_m^0; from round 0 on nodes exchange only the per-round sparse table
corrections (delta packets). Packets are relayed hop-by-hop along shortest
paths. The relay is two things: the traffic accounting (`Network`), a ledger
of the rounds' payloads that counts every value and tag each node receives
from the hop-distance matrix, settled once per span of rounds, and the
receive rule (`ObserverMemory`), which checks, once per span and ahead of
it, that each node will have heard every packet its mixing input reads. The
round itself is the dense batched engine's, `BatchedTable.step` on Wt Z^t:
every node is an *observer* that could rebuild its row of that product from
the packets it has heard
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

from .algorithms import DRAW_BLOCK, BatchedTable
# the per-node step is the reference the batched round is tested against;
# perfbench/spans.py traces it under this module's name as well
from .algorithms import dsba_node_step  # noqa: F401
from .topology import MixingMatrix


class ProtocolError(RuntimeError):
    pass


# an arrival entry for "no packet"; round -1 is the flood's
NO_PACKET = -2


class Network:
    """Synchronous lossless packet fabric with per-node receive accounting.
    Packet (origin o, round s) reaches node u exactly once, at round
    s + dist(o, u), so the hop-distance matrix fixes all traffic, and the
    state is the graph's, not the run's. Round -1 is the initial-state flood;
    rounds are sent in order from it.

    The fabric is a ledger: `broadcast` only writes a round's per-origin
    value counts into a buffer of D + `DRAW_BLOCK` rows (D the largest
    distance), and `settle` counts, in one pass, every packet that has
    arrived by the last round sent, with one (T, N) @ (N, N) product per
    delay on the payload rows shifted by that delay. It runs when the buffer fills, when
    `received_doubles` is read, and at the end of a run; the D newest rows
    stay for the next span. Every packet carries its values, as many
    indices, and an origin and a round tag; so the flood's indices
    over-count its metadata, which is not part of a node's received doubles.
    """

    def __init__(self, distances: np.ndarray):
        self.n = len(distances)
        self._dist = np.asarray(distances, dtype=np.int64)
        # reach[k - 1][o, u]: o's packets reach u k rounds after they are sent;
        # float64, so the ledger's products are BLAS's, exact on these counts
        reach = [self._dist == k for k in range(1, int(self._dist.max()) + 1)]
        self._reach = [r.astype(np.float64) for r in reach]
        # origin and round tags each destination receives per round and delay
        self._tags = [2 * r.sum(axis=0) for r in reach]
        self._flood = np.zeros(self.n, dtype=np.int64)
        # row i holds round _base + i; rounds before 0 hold no deltas
        self._ledger = np.zeros((len(reach) + DRAW_BLOCK, self.n))
        self._base = -len(reach)
        self._sent = -2          # last round sent
        self._settled = -1       # last round whose arrivals are counted
        self._fault: str | None = None
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.initial_doubles = np.zeros(self.n, dtype=np.int64)
        # each node's largest delta payload received in one round
        self.max_round_values = np.zeros(self.n, dtype=np.int64)

    def broadcast(self, t: int, nnz: np.ndarray) -> None:
        """Send round t's packets, one per origin: origin m's carries nnz[m]
        values and as many indices, plus its origin and round tags. A round
        sent out of order (twice, or after a gap) is not sent; it is a
        protocol error, raised at the next `deliver`."""
        if t != self._sent + 1:
            if self._fault is None:
                self._fault = (f"duplicate delivery of round {t}" if t <= self._sent
                               else f"round {t} sent after round {self._sent}")
            return
        if t == -1:
            self._flood[:] = nnz
        else:
            i = t - self._base
            if i == len(self._ledger):
                self.settle()
                D = len(self._reach)
                self._ledger[:D] = self._ledger[i - D:]
                self._base += i - D
                i = D
            self._ledger[i] = nnz
        self._sent = t

    def deliver(self, t: int, end: int) -> np.ndarray:
        """The arrivals of rounds t..end-1 in a run that sends every round:
        entry [0][u, o] is the first round of origin o's that reaches u in
        them, [1][u, o] the last (round s arrives at s + dist(o, u)), both
        `NO_PACKET` if none. Raises the fault of a round sent out of order."""
        if self._fault is not None:
            raise ProtocolError(self._fault)
        first = np.maximum(t - self._dist, -1)
        last = end - 1 - self._dist
        none = last < -1
        np.fill_diagonal(none, True)
        first[none] = last[none] = NO_PACKET
        return np.stack([first, last])

    def settle(self) -> None:
        """Count every packet that arrives from the last round settled up to
        the last round sent: flood values to `initial_doubles`, deltas' to
        `value_doubles` and their per-round maximum, indices and tags to
        `metadata_doubles`."""
        a, b = self._settled + 1, self._sent
        if b < a:
            return
        values = np.zeros((b - a + 1, self.n))
        initial = np.zeros(self.n, dtype=np.int64)
        tags = np.zeros(self.n, dtype=np.int64)
        for k, (reach, tag) in enumerate(zip(self._reach, self._tags), start=1):
            lo = a - k - self._base
            values += self._ledger[lo:lo + len(values)] @ reach
            if a <= k - 1 <= b:  # the flood arrives k - 1 rounds after round -1
                initial += (self._flood @ reach).astype(np.int64)
            # rounds t in [a, b] whose round t - k was sent, t - k >= -1
            tags += max(0, b - max(a, k - 1) + 1) * tag
        delivered = values.sum(axis=0).astype(np.int64)
        self.value_doubles += delivered
        self.initial_doubles += initial
        # a packet's metadata is its indices plus the two tags
        self.metadata_doubles += delivered + initial + tags
        np.maximum(self.max_round_values, values.max(axis=0).astype(np.int64),
                   out=self.max_round_values)
        self._settled = b

    def received_doubles(self) -> np.ndarray:
        """Per-node cumulative 64-bit values received by the last round
        sent: the initial-state flood plus the delta payloads."""
        self.settle()
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
    reads what its observer has heard. It works a span of rounds at a time,
    on arrivals given ahead (`Network.deliver`)."""

    def __init__(self, mix: MixingMatrix):
        # at least 1, since the newest deltas are round t - 1's
        self.lag = np.maximum(mix.distances, 1)
        self.heard = np.full((mix.n, mix.n), NO_PACKET, dtype=np.int64)
        np.fill_diagonal(self.heard, -1)

    def absorb(self, arrivals: np.ndarray) -> None:
        """Advance the watermark by a span's arrivals (see `Network.deliver`):
        each origin's first round in the span must be the next one."""
        first, last = arrivals
        got = last != NO_PACKET
        bad = got & (first != self.heard + 1)
        if bad.any():
            o, m = np.argwhere(bad)[0]
            raise ProtocolError(f"observer {o} heard delta (origin={m}, "
                                f"round={first[o, m]}) after round {self.heard[o, m]}")
        self.heard[got] = last[got]

    def advance(self, t: int, end: int) -> tuple[int, ProtocolError | None]:
        """Check that every observer may read its row of the mixing product
        Wt Z^s, row o = sum_m wt_{o,m} z_m^s, at every round s of t..end-1,
        once the span's arrivals are absorbed. In exact arithmetic row o
        reads round s - k (-1 the flood) only from origins within k hops of
        o, and since `heard` only grows, one comparison at `lag` checks that
        o has heard all of those. The span's packets arrive on time, so the
        margin heard - (s - lag) of a pair only shrinks once its watermark
        stops, and the first failing round is the least heard + lag + 1.
        Returns that round and its error, or (end, None)."""
        due = self.heard + self.lag
        np.fill_diagonal(due, end)  # an origin holds its own deltas
        stop = min(int(due.min()) + 1, end)
        if stop == end:
            return end, None
        o, m = np.argwhere(due < stop)[0]
        return stop, ProtocolError(f"observer {o} missing delta "
                                   f"(origin={m}, round={self.heard[o, m] + 1})")

    def finish_round(self, t: int) -> None:
        """Close a span at round t: every origin has its own deltas up to
        round t."""
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
    values for auc. dsa's round-0 deltas are zero in exact arithmetic (its
    table is anchored at Z0, where round 0 evaluates it) but are sent and
    counted as full packets all the same, so the traffic is that of every
    earlier version of the protocol. The rounds run in spans of
    `DRAW_BLOCK`: before each, `ObserverMemory` checks that each node will
    have heard every packet its row of Wt Z reads, and the run stops with
    `ProtocolError` at the first round where one would not, after the
    rounds before it. Within a span a round is `table.step` and one
    `Network.broadcast`, like the dense batched loop; traffic is settled
    when read and at the end.

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
    for start in range(0, rounds, DRAW_BLOCK):
        end = min(rounds, start + DRAW_BLOCK)
        memory.absorb(net.deliver(start, end))
        stop, late = memory.advance(start, end)
        for t in range(start, stop):
            Z, r = table.step(Z, mix.Wt @ Z, alpha, lam, variant)
            net.broadcast(t, payload[r])
            if on_round is not None and on_round(t, Z, table):
                break
        else:
            memory.finish_round(stop - 1)
            if late is None:
                continue
            net.settle()
            raise late
        break
    net.settle()
    return Z, net
