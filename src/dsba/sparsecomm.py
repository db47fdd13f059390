"""Sparse-communication execution of the decentralized updates.

After a short dense warm-up, nodes stop broadcasting full iterates and
exchange only the per-round sparse table corrections (delta packets), relayed
hop-by-hop along shortest paths. Every node acts as an *observer* of the
whole network that rebuilds its own mixing input from the delta stream. All
observers run at one depth D, the graph's largest eccentricity, so their
state is kept once for the whole network (`ObserverMemory`):

* a delayed copy of the global iterate matrix, Z^{t-D-1} and Z^{t-D-2},
* the projections g_t[k] = Wt^k Z^{t-k+1} for k = 1..D+1, all rows at once,

which is exactly enough to rebuild every node's mixing product Wt Z^t each
round. The recursion that rolls these forward is derived from the per-node
update rule in primal form. Only the source of the mixing product differs
from a dense run: every node takes the dense batched engine's primal-dual
step (`BatchedTable.step`) on it, so sparse and dense trajectories agree
bitwise through the warm-up and to numerical precision after; equivalence
is pinned by tests rather than by any closed-form unfolding.

Each delta is written once, by its origin, into the round's N x d block.
Observer o reads origin m's corrections only below the delivered-round
watermark heard[o, m], the last round it heard from m with no gap; reading
past it, or hearing a gap or a repeat, raises `ProtocolError`. An observer
with eccentricity E <= D reads rounds at lag D or more only from origins it
has already heard, so the shared depth needs no extra traffic.
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
    """Delayed global state of every observer, at the common depth D.

    Closing round s forms G_s = diag((q-1)/q) D_{s-1} - D_s from the
    round's delta blocks; row m is node m's table correction in round s.
    Observers read back at most D + 1 rounds, so only that many are kept."""

    def __init__(self, mix: MixingMatrix, qs: np.ndarray, dim: int,
                 alpha: float, lam: float, variant: str):
        if variant not in ("dsba", "dsa"):
            raise ProtocolError(f"sparse protocol supports dsba/dsa, not {variant!r}")
        self.variant = variant
        self.alpha = alpha
        self.lam = lam
        self.depth = D = int(mix.eccentricities.max())
        # Wt^k for k = 0..D+1, and the origins each observer's row reads
        self.powers = np.stack([np.linalg.matrix_power(mix.Wt, k) for k in range(D + 2)])
        self.support = self.powers != 0.0
        self.carry = ((qs - 1.0) / qs)[:, None]
        self.D_prev = np.zeros((mix.n, dim))
        self.G: dict[int, np.ndarray] = {}
        self.zA: np.ndarray | None = None  # Z^{t-D-1}
        self.zB: np.ndarray | None = None  # Z^{t-D-2}
        # round s -> (D+2, N, dim) stack of g_s[k]; slot 0 is never read
        self.gens: dict[int, np.ndarray] = {}
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

    def _block(self, s: int, support=True) -> np.ndarray:
        """G_s, once every observer has heard every origin of `support`
        (observer x origin mask) up to round s."""
        late = support & (self.heard < s)
        if late.any():
            o, m = np.argwhere(late)[0]
            raise ProtocolError(f"observer {o} missing delta "
                                f"(origin={m}, round={self.heard[o, m] + 1})")
        return self.G[s]

    def seed(self, z_hist: list[np.ndarray], t0: int) -> None:
        """Fill memory from the dense warm-up history, ready for round t0."""
        D = self.depth
        self.zA = z_hist[t0 - D - 1]
        self.zB = z_hist[t0 - D - 2]
        for s in (t0 - 1, t0 - 2):
            g = np.empty((D + 2,) + self.zA.shape)
            for k in range(1, D + 2):
                g[k] = self.powers[k] @ z_hist[s - k + 1]
            self.gens[s] = g

    def _reconstruct(self, t: int) -> np.ndarray:
        """Z^{t-D} from the explicit form of the round-(t-D-1) update."""
        alpha, lam = self.alpha, self.lam
        G = self._block(t - self.depth - 1)
        if self.variant == "dsba":
            return (self.powers[1] @ (2.0 * self.zA - self.zB)
                    + (alpha * lam) * self.zA + alpha * G) / (1.0 + alpha * lam)
        return (self.powers[1] @ (2.0 * self.zA - self.zB)
                - (alpha * lam) * (self.zA - self.zB) + alpha * G)

    def advance(self, t: int) -> np.ndarray:
        """Roll the projections one round forward; returns every node's
        mixing product g_t[1] = Wt Z^t, row n = sum_m wt_{n,m} z_m^t."""
        D, alpha, lam = self.depth, self.alpha, self.lam
        z_rec = self._reconstruct(t)
        g_prev = self.gens[t - 1]
        gt = np.empty_like(g_prev)
        gt[D + 1] = self.powers[D + 1] @ z_rec
        c1 = 1.0 / (1.0 + alpha * lam)
        for k in range(D, 0, -1):
            # Wt^k times the round-(t-k) table corrections
            corr = self.powers[k] @ self._block(t - k, self.support[k])
            if self.variant == "dsba":
                acc = 2.0 * gt[k + 1] - g_prev[k + 1] + (alpha * lam) * g_prev[k]
                gt[k] = c1 * (acc + alpha * corr)
            else:
                acc = (2.0 * gt[k + 1] - g_prev[k + 1]
                       - (alpha * lam) * (g_prev[k] - self.gens[t - 2][k]))
                gt[k] = acc + alpha * corr
        self.zB = self.zA
        self.zA = z_rec
        self.gens[t] = gt
        return gt[1]

    def finish_round(self, t: int, block: np.ndarray) -> None:
        """Close round t on its delta block, row m written by origin m."""
        np.fill_diagonal(self.heard, t)
        self.G[t] = self.carry * self.D_prev - block
        self.G.pop(t - self.depth - 1, None)
        self.D_prev = block
        self.gens.pop(t - 2 if self.variant == "dsba" else t - 3, None)


def bootstrap_rounds(mix: MixingMatrix) -> int:
    """Dense warm-up length: enough rounds that the observers' seed only
    references post-initialization history and already-relayed packets."""
    return int(mix.eccentricities.max()) + 3


def run_sparse(table: BatchedTable, mix: MixingMatrix, Z0: np.ndarray, rounds: int,
               *, alpha: float, lam: float, variant: str = "dsba",
               on_round=None, net: Network | None = None) -> tuple[np.ndarray, Network]:
    """Execute `rounds` synchronous rounds under the sparse protocol.

    Every node starts at its row of `Z0`, where `table` (fresh, anchored at
    `Z0`) has its entries. All nodes step in one array round,
    `BatchedTable.step`, the dense batched engine's primal-dual round: on the
    dense mixing product Wt Z during the warm-up, so the warm-up equals the
    dense run bitwise, and on the observers' rebuild of it from the relayed
    deltas after. A node's packet carries its delta's nonzeros: the sample
    row's, plus two tail values for auc.

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
    memory = ObserverMemory(mix, table.sizes, dim, alpha, lam, variant)
    degrees = mix.adjacency.sum(axis=1)
    t_boot = min(bootstrap_rounds(mix), rounds)
    z_hist = [Z]
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
        if t < t_boot:
            z_hist.append(Z)
        if t + 1 == t_boot:
            # packets relayed during warm-up are delivered on their normal timetable
            for s in range(1, t_boot + 1):
                memory.absorb(net.deliver(s))
            if t_boot == bootstrap_rounds(mix):
                memory.seed(z_hist, t_boot)
    return Z, net
