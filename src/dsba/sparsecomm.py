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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import NodeState, dsa_node_step, dsba_node_step
from .sparse import SparseVec
from .topology import MixingMatrix, bfs_distances, relay_parents


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
    node u exactly once, at round s + dist(o, u), sent by the minimum-index
    neighbor of u that is closer to o."""

    def __init__(self, adjacency: np.ndarray):
        self.adjacency = adjacency
        self.dist = bfs_distances(adjacency)
        self.parents = relay_parents(adjacency)
        self.n = len(adjacency)

    def sender(self, origin: int, dest: int) -> int:
        return int(self.parents[origin, dest])

    def delay(self, origin: int, dest: int) -> int:
        return int(self.dist[origin, dest])


@dataclass
class Delivery:
    round: int
    origin: int
    sender: int
    dest: int
    nnz: int


class Network:
    """Synchronous lossless packet fabric with per-node receive accounting."""

    def __init__(self, schedule: RelaySchedule, trace: bool = False):
        self.schedule = schedule
        self.n = schedule.n
        # inbox[t][dest] -> list of packets arriving at the start of round t
        self._pending: dict[int, list[list[DeltaPacket]]] = {}
        self.value_doubles = np.zeros(self.n, dtype=np.int64)
        self.metadata_doubles = np.zeros(self.n, dtype=np.int64)
        self.broadcast_doubles = np.zeros(self.n, dtype=np.int64)
        # payload values delivered per round, for per-round bound checks
        self.round_values: dict[int, np.ndarray] = {}
        self.trace: list[Delivery] | None = [] if trace else None

    def broadcast(self, packet: DeltaPacket) -> None:
        sch = self.schedule
        for dest in range(self.n):
            if dest == packet.origin:
                continue
            t_arr = packet.round + sch.delay(packet.origin, dest)
            slot = self._pending.setdefault(t_arr, [[] for _ in range(self.n)])
            slot[dest].append(packet)

    def account_dense_round(self, degrees: np.ndarray, d: int) -> None:
        self.broadcast_doubles += degrees.astype(np.int64) * d

    def deliver(self, t: int) -> list[list[DeltaPacket]]:
        inboxes = self._pending.pop(t, [[] for _ in range(self.n)])
        per_round = self.round_values.setdefault(t, np.zeros(self.n, dtype=np.int64))
        for dest, packets in enumerate(inboxes):
            seen = set()
            for p in packets:
                key = (p.origin, p.round)
                if key in seen:
                    raise ProtocolError(f"duplicate delivery {key} at node {dest}")
                seen.add(key)
                self.value_doubles[dest] += p.value_doubles
                per_round[dest] += p.value_doubles
                self.metadata_doubles[dest] += p.metadata_doubles
                if self.trace is not None:
                    self.trace.append(Delivery(
                        t, p.origin, self.schedule.sender(p.origin, dest), dest, p.payload.nnz))
        return inboxes

    def received_doubles(self) -> np.ndarray:
        """Per-node cumulative 64-bit values received (payload + dense rounds)."""
        return self.value_doubles + self.broadcast_doubles


class ObserverMemory:
    """Delayed global state one node keeps about the rest of the network."""

    def __init__(self, observer: int, mix: MixingMatrix, qs: np.ndarray,
                 alpha: float, lam: float, variant: str):
        if variant not in ("dsba", "dsa"):
            raise ProtocolError(f"sparse protocol supports dsba/dsa, not {variant!r}")
        self.o = observer
        self.variant = variant
        self.alpha = alpha
        self.lam = lam
        self.qs = np.asarray(qs, dtype=np.float64)
        self.ecc = int(mix.distances[observer].max())
        # static rows of Wt^k for k = 0..E+1
        self.rows = [np.linalg.matrix_power(mix.Wt, k)[observer]
                     for k in range(self.ecc + 2)]
        self.Wt = mix.Wt
        self.zA: np.ndarray | None = None  # Z^{t-E-1}
        self.zB: np.ndarray | None = None  # Z^{t-E-2}
        self.gens: dict[int, list[np.ndarray]] = {}  # round -> [g[k]]_k
        self.dlog: dict[tuple[int, int], SparseVec] = {}  # (origin, round) -> delta

    def log_delta(self, origin: int, rnd: int, payload: SparseVec) -> None:
        self.dlog[(origin, rnd)] = payload

    def absorb(self, inbox: list[DeltaPacket]) -> None:
        for p in inbox:
            self.log_delta(p.origin, p.round, p.payload)

    def _delta(self, origin: int, rnd: int) -> SparseVec:
        try:
            return self.dlog[(origin, rnd)]
        except KeyError:
            raise ProtocolError(
                f"observer {self.o} missing delta (origin={origin}, round={rnd})")

    def _g_correction(self, row: np.ndarray, s: int, out: np.ndarray) -> None:
        """out += row @ G_s where G_s rows are (q-1)/q delta^{s-1} - delta^s."""
        for m in np.flatnonzero(row):
            w = row[m]
            q = self.qs[m]
            self._delta(m, s - 1).add_into(out, w * (q - 1.0) / q)
            self._delta(m, s).add_into(out, -w)

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
        E, alpha, lam = self.ecc, self.alpha, self.lam
        s = t - E - 1
        N, d = self.zA.shape
        G = np.zeros((N, d))
        for m in range(N):
            q = self.qs[m]
            self._delta(m, s - 1).add_into(G[m], (q - 1.0) / q)
            self._delta(m, s).add_into(G[m], -1.0)
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
        if self.variant == "dsba":
            c1 = 1.0 / (1.0 + alpha * lam)
            for k in range(E, 0, -1):
                acc = 2.0 * gt[k + 1] - g_prev[k + 1] + (alpha * lam) * g_prev[k]
                corr = np.zeros_like(acc)
                self._g_correction(self.rows[k], t - k, corr)
                gt[k] = c1 * (acc + alpha * corr)
        else:
            g_prev2 = self.gens[t - 2]
            for k in range(E, 0, -1):
                acc = (2.0 * gt[k + 1] - g_prev[k + 1]
                       - (alpha * lam) * (g_prev[k] - g_prev2[k]))
                corr = np.zeros_like(acc)
                self._g_correction(self.rows[k], t - k, corr)
                gt[k] = acc + alpha * corr
        self.zB = self.zA
        self.zA = z_rec
        self.gens[t] = gt
        mixed = 2.0 * gt[1] - g_prev[1]
        return mixed

    def finish_round(self, t: int, z_next: np.ndarray) -> None:
        self.gens[t][0] = z_next
        self.gens.pop(t - 2 if self.variant == "dsba" else t - 3, None)
        horizon = t - self.ecc - 2
        stale = [key for key in self.dlog if key[1] < horizon]
        for key in stale:
            del self.dlog[key]


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
    N = len(states)
    d = states[0].table.dim
    step = dsba_node_step if variant == "dsba" else dsa_node_step
    if net is None:
        net = Network(RelaySchedule(mix.adjacency))
    degrees = mix.adjacency.sum(axis=1)
    qs = np.array([s.q for s in states])
    observers = [ObserverMemory(n, mix, qs, states[0].alpha, states[0].lam, variant)
                 for n in range(N)]
    t_boot = min(bootstrap_rounds(mix), rounds)

    Z = np.stack([s.z for s in states])
    z_hist = [Z.copy()]
    for t in range(t_boot):
        mixed_all = mix.W @ Z if t == 0 else mix.Wt @ (2.0 * Z - Zp)
        net.account_dense_round(degrees, d)
        Znew = np.empty_like(Z)
        for n, state in enumerate(states):
            z_next, delta, _ = step(state, mixed_all[n])
            Znew[n] = z_next
            packet = DeltaPacket(n, t, delta)
            net.broadcast(packet)
            observers[n].log_delta(n, t, delta)
        Zp, Z = Z, Znew
        z_hist.append(Z.copy())
        if on_round is not None and on_round(t, Z):
            return Z, net

    # packets relayed during warm-up are delivered on their normal timetable
    for t in range(1, t_boot + 1):
        inboxes = net.deliver(t)
        for n in range(N):
            observers[n].absorb(inboxes[n])
    if t_boot == bootstrap_rounds(mix):
        for obs in observers:
            obs.seed(z_hist, t_boot)
    del z_hist

    for t in range(t_boot, rounds):
        if t > t_boot:
            inboxes = net.deliver(t)
            for n in range(N):
                observers[n].absorb(inboxes[n])
        Znew = np.empty_like(Z)
        for n, state in enumerate(states):
            mixed = observers[n].advance(t)
            z_next, delta, _ = step(state, mixed)
            Znew[n] = z_next
            net.broadcast(DeltaPacket(n, t, delta))
            observers[n].log_delta(n, t, delta)
            observers[n].finish_round(t, z_next)
        Z = Znew
        if on_round is not None and on_round(t, Z):
            break
    return Z, net
