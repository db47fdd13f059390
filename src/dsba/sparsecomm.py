"""Sparse-communication execution of the decentralized updates.

After a short dense warm-up, nodes stop broadcasting full iterates and
exchange only the per-round sparse table corrections (delta packets), relayed
hop-by-hop along shortest paths. Every node acts as an *observer* of the
whole network that rebuilds its own mixing input from the delta stream. All
observers run at one depth D, the graph's largest eccentricity, so their
state is kept once for the whole network (`ObserverMemory`):

* a delayed copy of the global iterate matrix, Z^{t-D-1} and Z^{t-D-2},
* the projections g_t[k] = Wt^k Z^{t-k+1} for k = 1..D+1, all rows at once,

which is exactly enough to rebuild every node's resolvent argument each
round. The recursion that rolls these forward is derived from the dense
update rule (the same code path as the dense engine computes the local
step), so sparse and dense trajectories agree to numerical precision;
equivalence is pinned by tests rather than by any closed-form unfolding.

Each delta is written once, by its origin, into the round's N x d block.
Observer o reads origin m's corrections only below the delivered-round
watermark heard[o, m], the last round it heard from m with no gap; reading
past it, or hearing a gap or a repeat, raises `ProtocolError`. An observer
with eccentricity E <= D reads rounds at lag D or more only from origins it
has already heard, so the shared depth needs no extra traffic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .algorithms import NodeState, dsa_node_step, dsba_node_step
from .sparse import SparseVec
from .topology import MixingMatrix


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeltaPacket:
    origin: int
    round: int
    payload: SparseVec

    @property
    def value_doubles(self) -> int:
        return self.payload.nnz

    @property
    def metadata_doubles(self) -> int:
        # indices, plus origin and round tags
        return self.payload.nnz + 2


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
        self._sent: defaultdict[int, list[DeltaPacket]] = defaultdict(list)
        # round -> (origins that sent, their value doubles, metadata doubles)
        self._in_flight: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.broadcast_doubles = np.zeros(self.n, dtype=np.int64)
        # payload values delivered per round, for per-round bound checks
        self.round_values: dict[int, np.ndarray] = {}

    def broadcast(self, packet: DeltaPacket) -> None:
        self._sent[packet.round].append(packet)

    def account_dense_round(self, degrees: np.ndarray, d: int) -> None:
        self.broadcast_doubles += degrees.astype(np.int64) * d

    def deliver(self, t: int) -> np.ndarray:
        """Arrivals at the start of round t: entry [u, o] is the round s of
        the packet from origin o that reaches u now (s + dist(o, u) = t), or
        -1 for none. Round t - 1's packets set off now."""
        sent = np.zeros(self.n, dtype=bool)
        nnz = np.zeros(self.n, dtype=np.int64)
        metadata = np.zeros(self.n, dtype=np.int64)
        for p in self._sent.pop(t - 1, ()):
            if sent[p.origin]:
                raise ProtocolError(f"duplicate delivery {(p.origin, p.round)}")
            sent[p.origin] = True
            nnz[p.origin], metadata[p.origin] = p.value_doubles, p.metadata_doubles
        self._in_flight[t - 1] = (sent, nnz, metadata)
        arrivals = np.full((self.n, self.n), -1, dtype=np.int64)
        values = np.zeros(self.n, dtype=np.int64)
        for delay, reach in enumerate(self._reach, 1):
            if (flight := self._in_flight.get(t - delay)) is not None:
                sent, nnz, metadata = flight
                values += nnz @ reach
                self.metadata_doubles += metadata @ reach
                arrivals[reach.T & sent] = t - delay
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
        bad = np.argwhere(got & (arrivals != self.heard + 1))
        if len(bad):
            o, m = bad[0]
            raise ProtocolError(f"observer {o} heard delta (origin={m}, "
                                f"round={arrivals[o, m]}) after round {self.heard[o, m]}")
        self.heard[got] = arrivals[got]

    def _block(self, s: int, support=True) -> np.ndarray:
        """G_s, once every observer has heard every origin of `support`
        (observer x origin mask) up to round s."""
        late = np.argwhere(support & (self.heard < s))
        if len(late):
            o, m = late[0]
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
        mixing input, row n = sum_m wt_{n,m} (2 z_m^t - z_m^{t-1})."""
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
        return 2.0 * gt[1] - g_prev[1]

    def finish_round(self, t: int, deltas: list[SparseVec]) -> None:
        """Write the round's deltas, each by its origin, and close round t."""
        block = np.zeros_like(self.D_prev)
        rows = np.repeat(np.arange(len(deltas)), [v.nnz for v in deltas])
        block[rows, np.concatenate([v.idx for v in deltas])] = \
            np.concatenate([v.val for v in deltas])
        np.fill_diagonal(self.heard, t)
        self.G[t] = self.carry * self.D_prev - block
        self.G.pop(t - self.depth - 1, None)
        self.D_prev = block
        self.gens.pop(t - 2 if self.variant == "dsba" else t - 3, None)


def bootstrap_rounds(mix: MixingMatrix) -> int:
    """Dense warm-up length: enough rounds that the observers' seed only
    references post-initialization history and already-relayed packets."""
    return int(mix.eccentricities.max()) + 3


def run_sparse(states: list[NodeState], mix: MixingMatrix, rounds: int,
               variant: str = "dsba", on_round=None,
               net: Network | None = None) -> tuple[np.ndarray, Network]:
    """Execute `rounds` synchronous rounds under the sparse protocol.

    `states` must be freshly initialized (t = 0). `on_round(t, Z)` is called
    after every round with the stacked iterate matrix. `net` is a fresh
    network on `mix`'s graph, passed in by callers that read its traffic
    inside `on_round`; by default one is built here. Returns the final
    iterate matrix and the network (for communication accounting).
    """
    d = states[0].table.dim
    step = dsba_node_step if variant == "dsba" else dsa_node_step
    if net is None:
        net = Network(mix.distances)
    memory = ObserverMemory(mix, np.array([s.q for s in states]), d,
                            states[0].alpha, states[0].lam, variant)
    t_boot = min(bootstrap_rounds(mix), rounds)
    Z = Zp = np.stack([s.z for s in states])
    z_hist = [Z]
    for t in range(rounds):
        if t < t_boot:
            mixed_all = mix.W @ Z if t == 0 else mix.Wt @ (2.0 * Z - Zp)
            net.account_dense_round(mix.adjacency.sum(axis=1), d)
        else:
            if t > t_boot:
                memory.absorb(net.deliver(t))
            mixed_all = memory.advance(t)
        Znew = np.empty_like(Z)
        deltas = []
        for n, state in enumerate(states):
            Znew[n], delta, _ = step(state, mixed_all[n])
            net.broadcast(DeltaPacket(n, t, delta))
            deltas.append(delta)
        memory.finish_round(t, deltas)
        Zp, Z = Z, Znew
        if on_round is not None and on_round(t, Z):
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
