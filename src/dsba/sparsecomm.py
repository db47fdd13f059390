"""Sparse-communication execution of the decentralized updates.

After a short dense warm-up, nodes stop broadcasting full iterates and
exchange only the per-round sparse table corrections (delta packets), relayed
hop-by-hop along shortest paths. Each node acts as an *observer* of the whole
network: from the delta stream it maintains

* a delayed copy of the global iterate matrix, Z^{t-E-1} and Z^{t-E-2}
  (E = the observer's eccentricity),
* the projected quantities g_t[k] = [Wt^k]_o Z^{t-k+1} for k = 0..E+1,

which is exactly enough to rebuild its own resolvent argument each round.
The recursion that rolls these forward is derived from the dense update rule
(the same code path as the dense engine computes the local step), so sparse
and dense trajectories agree to numerical precision; equivalence is pinned by
tests rather than by any closed-form unfolding.

Each delta is written once, by its origin, into the round's N x d block
shared by all observers (`DeltaBlocks`). An observer reads only deltas below
its delivered-round watermark, the last round heard from each origin with no
gap; reading past it, or hearing a gap or a repeat, raises `ProtocolError`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .algorithms import NodeState, dsa_node_step, dsba_node_step
from .sparse import SparseVec
from .topology import MixingMatrix, TopologyError, bfs_distances


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


class RelaySchedule:
    """Static shortest-path forwarding: packet (origin o, round s) reaches
    node u exactly once, at round s + dist(o, u)."""

    def __init__(self, adjacency: np.ndarray):
        self.adjacency = adjacency
        self.dist = bfs_distances(adjacency)
        if (self.dist < 0).any():
            raise TopologyError("graph must be connected")
        self.n = len(adjacency)

    def delay(self, origin: int, dest: int) -> int:
        return int(self.dist[origin, dest])


class Network:
    """Synchronous lossless packet fabric with per-node receive accounting.
    The distance matrix fixes which origins each destination hears from at
    each delay, so a round is delivered and accounted by array operations."""

    def __init__(self, schedule: RelaySchedule):
        self.schedule = schedule
        self.n = schedule.n
        dist = schedule.dist
        # reach[k][o, u] = 1 when o's packets reach u after k + 1 rounds (one
        # empty delay on a single node, so that sent rounds still retire)
        self._reach = [(dist == k).astype(np.int64) for k in range(1, max(dist.max(), 1) + 1)]
        self._sources = [[np.flatnonzero(r[:, u]).tolist() for u in range(self.n)]
                         for r in self._reach]
        self._sent: defaultdict[int, list[DeltaPacket]] = defaultdict(list)
        # round -> (packets by origin, their value doubles, metadata doubles)
        self._in_flight: dict[int, tuple[list, np.ndarray, np.ndarray]] = {}
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.broadcast_doubles = np.zeros(self.n, dtype=np.int64)
        # payload values delivered per round, for per-round bound checks
        self.round_values: dict[int, np.ndarray] = {}

    def broadcast(self, packet: DeltaPacket) -> None:
        self._sent[packet.round].append(packet)

    def account_dense_round(self, degrees: np.ndarray, d: int) -> None:
        self.broadcast_doubles += degrees.astype(np.int64) * d

    def deliver(self, t: int) -> list[list[DeltaPacket]]:
        """Inboxes at the start of round t: packet (o, s) reaches u when
        s + dist(o, u) = t. Round t - 1's packets set off now."""
        packets = [None] * self.n
        for p in self._sent.pop(t - 1, ()):
            if packets[p.origin] is not None:
                raise ProtocolError(f"duplicate delivery {(p.origin, p.round)}")
            packets[p.origin] = p
        self._in_flight[t - 1] = (
            packets, np.array([p.value_doubles if p else 0 for p in packets]),
            np.array([p.metadata_doubles if p else 0 for p in packets]))
        inboxes = [[] for _ in range(self.n)]
        values = np.zeros(self.n, dtype=np.int64)
        for delay, (reach, sources) in enumerate(zip(self._reach, self._sources), 1):
            if (sent := self._in_flight.get(t - delay)) is not None:
                packets, nnz, metadata = sent
                values += nnz @ reach
                self.metadata_doubles += metadata @ reach
                for box, origins in zip(inboxes, sources):
                    box += [packets[o] for o in origins if packets[o]]
        self._in_flight.pop(t - len(self._reach), None)
        self.round_values[t] = values
        self.value_doubles += values
        return inboxes

    def received_doubles(self) -> np.ndarray:
        """Per-node cumulative 64-bit values received (payload + dense rounds)."""
        return self.value_doubles + self.broadcast_doubles


class DeltaBlocks:
    """The round's deltas as one dense N x d block D shared by all observers.
    Closing round s forms G_s = diag((q-1)/q) D_{s-1} - D_s, whose row m is
    node m's table correction in round s; observers read back at most
    `depth` = max eccentricity + 1 rounds, so only that many are kept."""

    def __init__(self, qs: np.ndarray, dim: int, depth: int):
        self.carry = ((qs - 1.0) / qs)[:, None]
        self.depth = depth
        self.D_prev = np.zeros((len(qs), dim))
        self.D = np.zeros_like(self.D_prev)
        self.G: dict[int, np.ndarray] = {}

    def close(self, s: int) -> None:
        self.G[s] = self.carry * self.D_prev - self.D
        self.G.pop(s - self.depth, None)
        self.D_prev, self.D = self.D, np.zeros_like(self.D)


class ObserverMemory:
    """Delayed global state one node keeps about the rest of the network."""

    def __init__(self, observer: int, mix: MixingMatrix, blocks: DeltaBlocks,
                 alpha: float, lam: float, variant: str):
        if variant not in ("dsba", "dsa"):
            raise ProtocolError(f"sparse protocol supports dsba/dsa, not {variant!r}")
        self.o = observer
        self.variant = variant
        self.alpha = alpha
        self.lam = lam
        self.blocks = blocks
        self.ecc = int(mix.distances[observer].max())
        # static rows of Wt^k for k = 0..E+1, and the origins each one reads
        self.rows = [np.linalg.matrix_power(mix.Wt, k)[observer]
                     for k in range(self.ecc + 2)]
        self.support = [np.flatnonzero(row).tolist() for row in self.rows]
        self.Wt = mix.Wt
        self.zA: np.ndarray | None = None  # Z^{t-E-1}
        self.zB: np.ndarray | None = None  # Z^{t-E-2}
        self.gens: dict[int, list[np.ndarray]] = {}  # round -> [g[k]]_k
        # delivered-round watermark: the last round heard from each origin
        # with no gap before it
        self.heard = [-1] * mix.n

    def _hear(self, origin: int, rnd: int) -> None:
        if rnd != self.heard[origin] + 1:
            raise ProtocolError(f"observer {self.o} heard delta (origin={origin}, "
                                f"round={rnd}) after round {self.heard[origin]}")
        self.heard[origin] = rnd

    def log_delta(self, rnd: int, payload: SparseVec) -> None:
        """Write this node's own round-`rnd` delta into the shared block."""
        payload.add_into(self.blocks.D[self.o])
        self._hear(self.o, rnd)

    def absorb(self, inbox: list[DeltaPacket]) -> None:
        for p in inbox:
            self._hear(p.origin, p.round)

    def _block(self, s: int, origins) -> np.ndarray:
        """G_s, once every delta of `origins` up to round s has arrived."""
        late = [m for m in origins if self.heard[m] < s]
        if late:
            raise ProtocolError(f"observer {self.o} missing delta "
                                f"(origin={late[0]}, round={self.heard[late[0]] + 1})")
        return self.blocks.G[s]

    def seed(self, z_hist: list[np.ndarray], t0: int) -> None:
        """Fill memory from the dense warm-up history, ready for round t0."""
        E = self.ecc
        self.zA = z_hist[t0 - E - 1].copy()
        self.zB = z_hist[t0 - E - 2].copy()
        self.gens = {
            s: [self.rows[k] @ z_hist[s - k + 1] for k in range(E + 2)]
            for s in (t0 - 1, t0 - 2)
        }

    def _reconstruct(self, t: int) -> np.ndarray:
        """Z^{t-E} from the explicit form of the round-(t-E-1) update."""
        alpha, lam = self.alpha, self.lam
        G = self._block(t - self.ecc - 1, range(len(self.heard)))
        if self.variant == "dsba":
            return (self.Wt @ (2.0 * self.zA - self.zB)
                    + (alpha * lam) * self.zA + alpha * G) / (1.0 + alpha * lam)
        return (self.Wt @ (2.0 * self.zA - self.zB)
                - (alpha * lam) * (self.zA - self.zB) + alpha * G)

    def advance(self, t: int) -> np.ndarray:
        """Roll the projections one round forward; returns the observer's
        mixing input sum_m wt_{o,m} (2 z_m^t - z_m^{t-1})."""
        E, alpha, lam = self.ecc, self.alpha, self.lam
        z_rec = self._reconstruct(t)
        g_prev = self.gens[t - 1]
        gt = [None] * (E + 2)
        gt[E + 1] = self.rows[E + 1] @ z_rec
        c1 = 1.0 / (1.0 + alpha * lam)
        for k in range(E, 0, -1):
            # row k of the round-(t-k) table corrections, from its support
            corr = self.rows[k] @ self._block(t - k, self.support[k])
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

    def finish_round(self, t: int, z_next: np.ndarray) -> None:
        self.gens[t][0] = z_next
        self.gens.pop(t - 2 if self.variant == "dsba" else t - 3, None)


def bootstrap_rounds(mix: MixingMatrix) -> int:
    """Dense warm-up length: enough rounds that every observer's seed only
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
        net = Network(RelaySchedule(mix.adjacency))
    blocks = DeltaBlocks(np.array([s.q for s in states]), d,
                         depth=int(mix.eccentricities.max()) + 1)
    observers = [ObserverMemory(n, mix, blocks, states[0].alpha, states[0].lam, variant)
                 for n in range(len(states))]
    t_boot = min(bootstrap_rounds(mix), rounds)
    Z = Zp = np.stack([s.z for s in states])
    z_hist = [Z]
    for t in range(rounds):
        if t < t_boot:
            mixed_all = mix.W @ Z if t == 0 else mix.Wt @ (2.0 * Z - Zp)
            net.account_dense_round(mix.adjacency.sum(axis=1), d)
        else:
            if t > t_boot:
                for obs, inbox in zip(observers, net.deliver(t)):
                    obs.absorb(inbox)
            mixed_all = [obs.advance(t) for obs in observers]
        Znew = np.empty_like(Z)
        for n, state in enumerate(states):
            z_next, delta, _ = step(state, mixed_all[n])
            Znew[n] = z_next
            net.broadcast(DeltaPacket(n, t, delta))
            observers[n].log_delta(t, delta)
            if t >= t_boot:
                observers[n].finish_round(t, z_next)
        blocks.close(t)
        Zp, Z = Z, Znew
        if on_round is not None and on_round(t, Z):
            break
        if t < t_boot:
            z_hist.append(Z)
        if t + 1 == t_boot:
            # packets relayed during warm-up are delivered on their normal timetable
            for s in range(1, t_boot + 1):
                for obs, inbox in zip(observers, net.deliver(s)):
                    obs.absorb(inbox)
            if t_boot == bootstrap_rounds(mix):
                for obs in observers:
                    obs.seed(z_hist, t_boot)
    return Z, net
