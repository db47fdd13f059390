"""Per-node update rules.

Implements the implicit (resolvent-based) variance-reduced update, its
explicit counterpart and the full-activation baseline round (EXTRA). On a
single node (self-loop mixing, W = Wt = 1) the implicit update is Point-SAGA.
Every production loop runs the primal-dual recurrence on `dual_step`:
`BatchedTable.step` takes every node's dsba, dsa or Point-SAGA round at once,
for the dense batched engine and the sparse relay alike, and `extra_round`
takes EXTRA's. The per-node steps keep the float64 mixing form Wt(2Z - Z^-);
they are the reference oracle, which only engine = generic runs.

Conventions shared by every method:

* Each node holds q single-sample operators B_{n,i} plus an l2 level lam.
  The table stores the *unregularized* outputs phi_i = B_{n,i}(anchor), so
  that per-round corrections delta keep the sample's sparsity pattern; the
  lam*z part is handled analytically.
* The variance-reduced estimate of the local mean operator at z is
  B_i(z) - phi_i + phibar + lam*z, which is unbiased over i.
* Implicit update, round t >= 1:
      psi   = sum_m wt_{n,m} (2 z_m - z_m^-) + alpha*((q-1)/q delta^- + phi_i)
              + alpha*lam*z_n
      z^+   = J_{alpha (B_i + lam I)}(psi)
      delta = B_i(z^+) - phi_i
  and round 0 uses psi = sum_m w_{n,m} z_m + alpha*(phi_i - phibar) with the
  same resolvent. Back-substituting delta gives the equivalent explicit form
      z^+ = mixed + alpha*((q-1)/q delta^- - delta) + alpha*lam*(z_n - z^+),
  whose last term vanishes when lam = 0.
* Explicit update (same table, delta evaluated at z^t instead of z^{t+1}):
      z^+ = mixed + alpha*((q-1)/q delta^- - delta) - alpha*lam*(z_n - z_n^-)
  and round 0 uses z^+ = sum_m w_{n,m} z_m - alpha*(phibar + lam*z_n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (COUNTERS, OperatorSpec, SampleMatrix, eval_component,
                        kernel_auc, resolve_margins, resolve_regularized)
from .sparse import SparseVec

# samples each node draws from its stream at once; `rng.integers(q, size=k)`
# gives the same values as k single draws
DRAW_BLOCK = 1024


class AlgorithmError(ValueError):
    pass


class PhiTable:
    """Per-sample operator-output memory with a running mean.

    Entries keep the fixed support of their sample's operator output, so an
    update produces a same-support sparse correction.
    """

    def __init__(self, ops: list[OperatorSpec], z0: np.ndarray):
        if not ops:
            raise AlgorithmError("need at least one operator")
        self.dim = ops[0].dim
        self.q = len(ops)
        comps = [eval_component(op, z0) for op in ops]
        self.idx = [c.idx for c in comps]
        self.val = [c.val.copy() for c in comps]
        self.phibar = np.zeros(self.dim)
        for c in comps:
            c.add_into(self.phibar, 1.0 / self.q)

    def lookup(self, i: int) -> SparseVec:
        return SparseVec(self.idx[i], self.val[i], self.dim)

    def update(self, i: int, new: SparseVec) -> SparseVec:
        """Replace entry i, fold the change into the mean, return the change."""
        if new.idx.shape != self.idx[i].shape or not np.array_equal(new.idx, self.idx[i]):
            raise AlgorithmError("table update must keep the entry's support")
        dval = new.val - self.val[i]
        self.phibar[self.idx[i]] += dval / self.q
        self.val[i] = new.val.copy()
        return SparseVec(self.idx[i], dval, self.dim)

    def distance_to(self, targets: list[SparseVec]) -> float:
        """sum_i ||phi_i - target_i||^2 over same-support targets."""
        total = 0.0
        for i, tgt in enumerate(targets):
            diff = self.val[i] - tgt.val
            total += float(diff @ diff)
        return total


@dataclass
class NodeState:
    """Everything one node carries between rounds."""

    node: int
    ops: list[OperatorSpec]
    table: PhiTable
    alpha: float
    lam: float
    rng: np.random.Generator
    z: np.ndarray
    z_prev: np.ndarray = field(init=False)
    delta_prev: SparseVec = field(init=False)
    t: int = field(default=0, init=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.z_prev = self.z.copy()
        self.delta_prev = SparseVec.zero(self.table.dim)

    @property
    def q(self) -> int:
        return self.table.q

    def draw(self) -> int:
        return int(self.rng.integers(self.q))


def make_node(node: int, ops: list[OperatorSpec], alpha: float, lam: float,
              z0: np.ndarray, seed: int) -> NodeState:
    rng = np.random.default_rng([seed, node])
    return NodeState(node, ops, PhiTable(ops, z0), alpha, lam, rng,
                     np.array(z0, dtype=np.float64))


def compute_psi(state: NodeState, mixed: np.ndarray, i: int) -> np.ndarray:
    """Resolvent argument for the implicit update.

    `mixed` is sum_m wt_{n,m}(2 z_m - z_m^-) for t >= 1 and sum_m w_{n,m} z_m
    at t = 0.
    """
    table, alpha = state.table, state.alpha
    if state.t == 0:
        psi = mixed - alpha * table.phibar
        table.lookup(i).add_into(psi, alpha)
    else:
        psi = mixed + (alpha * state.lam) * state.z
        state.delta_prev.add_into(psi, alpha * (table.q - 1) / table.q)
        table.lookup(i).add_into(psi, alpha)
    return psi


def _advance(state: NodeState, z_next: np.ndarray, delta: SparseVec) -> None:
    state.z_prev = state.z
    state.z = z_next
    state.delta_prev = delta
    state.t += 1


def dsba_node_step(state: NodeState, mixed: np.ndarray):
    """One implicit round: returns (z_next, delta, i)."""
    i = state.draw()
    psi = compute_psi(state, mixed, i)
    z_next = resolve_regularized(state.ops[i], state.alpha, psi)
    delta = state.table.update(i, eval_component(state.ops[i], z_next))
    _advance(state, z_next, delta)
    return z_next, delta, i


def dsa_node_step(state: NodeState, mixed: np.ndarray):
    """One explicit round: returns (z_next, delta, i)."""
    i = state.draw()
    alpha, lam, q = state.alpha, state.lam, state.q
    if state.t == 0:
        # table was anchored at z^0, so the round-0 correction is exactly zero
        delta = state.table.update(i, eval_component(state.ops[i], state.z))
        z_next = mixed - alpha * (state.table.phibar + lam * state.z)
    else:
        delta = state.table.update(i, eval_component(state.ops[i], state.z))
        z_next = mixed - (alpha * lam) * (state.z - state.z_prev)
        state.delta_prev.add_into(z_next, alpha * (q - 1) / q)
        delta.add_into(z_next, -alpha)
    _advance(state, z_next, delta)
    return z_next, delta, i


def local_mean_operator(samples: SampleMatrix, Z: np.ndarray, lam: float) -> np.ndarray:
    """Every node's local mean operator at its own iterate, dense (N, dim):
    row n is (1/q_n) sum_i B_{n,i}(Z_n) + lam*Z_n.

    One product with the block-diagonal sample matrix gives all margins and
    one with its transpose sums the weighted rows per node; auc's tail
    outputs are summed over each node's rows.
    """
    Z = np.asarray(Z, dtype=np.float64)
    d = samples.d
    tail = Z[samples.row_node, d:] if samples.family == "auc" else None
    coef, tails = samples.row_terms(samples.Xb @ Z[:, :d].ravel(), tail)
    return lam * Z + node_means(samples, coef, tails)


def node_means(samples: SampleMatrix, coef: np.ndarray,
               tails: np.ndarray | None) -> np.ndarray:
    """Per-node means (N, dim) of the rows c_i x_i, with auc's tail block
    in the last three columns."""
    means = (samples.XbT @ (samples.weight * coef)).reshape(len(samples.starts), samples.d)
    if tails is None:
        return means
    return np.hstack([means, np.add.reduceat(samples.weight[:, None] * tails,
                                             samples.starts, axis=0)])


def dual_step(Z: np.ndarray, WZ: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The dual update of every production loop: advances the dual S =
    S^{t-1} in place to S^t = S^{t-1} + (Z^t - Wt Z^t), WZ = Wt Z^t, and
    returns WZ - S^t. Summed over rounds this is the mixing term Wt(2Z - Z-),
    and from S^{-1} = 0 round 0 gives W Z = (2 Wt - I) Z. S's node mean is
    zero in exact arithmetic, since 1'(I - Wt) = 0 for any Z, so it is
    subtracted each round: rounding then cannot pile up along the consensus
    direction, where the float64 mixing form drifts linearly in the round
    count."""
    S += Z - WZ
    S -= S.sum(axis=0) / len(S)
    return WZ - S


class BatchedTable:
    """Every node's table, sample stream, single-sample kernels and dual as
    arrays, for the engines that step all N nodes in one array round
    (`step`).

    A table entry phi_i is a coefficient times the sample row (plus three
    tail values for auc), so the table is one coefficient per sample and a
    Q x 3 tail block. Node n draws from `default_rng([seed, n])` like its
    `NodeState`, and the operator counters advance as the per-node steps
    would advance them."""

    def __init__(self, samples: SampleMatrix, Z0: np.ndarray, seed: int):
        self.samples = samples
        self.d = d = samples.d
        self.auc = samples.family == "auc"
        self.X = samples.X.toarray()
        # einsum, not `lipschitz_bound`'s per-row dots: they differ in the last
        # bit on about half of unit rows, so a switch moves every trajectory
        self.na2 = np.einsum("ij,ij->i", self.X, self.X)
        self.sizes = np.bincount(samples.row_node)
        self.inv_q = 1.0 / self.sizes[:, None]
        self.nodes = np.arange(len(self.sizes))
        self.coef, self.tails = samples.row_terms(
            samples.Xb @ Z0[:, :d].ravel(), Z0[samples.row_node, d:] if self.auc else None)
        self.phibar = node_means(samples, self.coef, self.tails)
        self.dual = np.zeros(Z0.shape)  # S of `step`, S^{-1} = 0
        self._rngs = [np.random.default_rng([seed, n]) for n in range(len(self.sizes))]
        self._draws = np.empty((0, len(self.sizes)), dtype=np.int64)
        self._next = 0

    def step(self, Z: np.ndarray, WZ: np.ndarray, alpha: float, lam: float,
             variant: str) -> tuple[np.ndarray, np.ndarray]:
        """One dsba or dsa round of every node from Z = Z^t and its mixing
        product WZ = Wt Z^t: returns Z^{t+1} and the drawn rows r, both
        fresh arrays, and advances the table, its mean phibar and the dual
        S = S^{t-1} in place.

        This is the per-node recurrence Z+ = Wt(2Z - Z-) - alpha(V - V-) (V
        the variance-reduced estimate, W Z at round 0), summed over rounds:
        `dual_step` advances S and gives Wt Z - S. Then, with the round's
        N x dim table correction block delta,
          dsba: u = rho (Wt Z - S - alpha phibar), rho = 1/(1 + lam alpha),
                Z+ = u - rho alpha delta, the row-wise resolvent of
                alpha (B_i + lam I) at Wt Z - S + alpha (phi_i - phibar);
          dsa:  u = Wt Z - S - alpha (phibar + lam Z), Z+ = u - alpha delta;
        and phibar += delta / q.

        The dsba resolvent is J_{rho alpha B_i}(rho psi). With the old
        entry c_old a, rho psi = u + rho alpha c_old a, so its margin is
        a'u + rho alpha c_old ||a||^2, and for the kernel's output
        coefficient e the output is u + rho alpha (c_old - e) a = u - rho
        alpha delta: one rank-1 correction per row. That e is B_i(Z+)'s
        coefficient (auc: with the kernel's s, o_out and theta_out), so it
        is the new entry and nothing is evaluated again at Z+. For auc,
        psi's tail is u's plus rho alpha times the old tail entry, and u -
        rho alpha delta on the tail equals the kernel's o_out and theta_out
        in exact arithmetic."""
        r = self.draw()
        s, d, n = self.samples, self.d, len(r)
        c_old, A = self.coef.take(r), self.X.take(r, axis=0)
        tails_old = self.tails.take(r, axis=0) if self.auc else None
        u = dual_step(Z, WZ, self.dual)
        if variant == "dsba":
            rho = 1.0 / (1.0 + lam * alpha)
            u -= alpha * self.phibar
            u *= rho
            ra = rho * alpha
            na2, y = self.na2.take(r), s.y.take(r)
            m = np.einsum("nd,nd->n", u[:, :d], A) + ra * c_old * na2
            if self.auc:
                tail = u[:, d:] + ra * tails_old  # psi's tail
                c, slot = s.auc_c.take(r), s.auc_slot.take(r)
                e, sm, o_out, theta_out = kernel_auc(m, na2, y, ra, c,
                                                     tail[self.nodes, slot], tail[:, 2], s.p)
                new_tails = np.zeros((n, 3))
                new_tails[self.nodes, slot] = -c * (sm - o_out)
                new_tails[:, 2] = 2.0 * s.p * (1 - s.p) * theta_out + y * c * sm
            else:
                e, _ = resolve_margins(s.family, m, na2, y, ra)
            COUNTERS["resolves"] += n
            COUNTERS["component_evals"] += n
        else:
            u -= alpha * (self.phibar + lam * Z)
            ra = alpha
            e, new_tails = s.row_terms(np.einsum("nd,nd->n", Z[:, :d], A),
                                       Z[:, d:] if self.auc else None, rows=r)
        if self.auc:
            delta = np.empty(Z.shape)
            np.multiply((e - c_old)[:, None], A, out=delta[:, :d])
            delta[:, d:] = new_tails - tails_old
            self.tails[r] = new_tails
        else:
            delta = (e - c_old)[:, None] * A
        self.coef[r] = e
        self.phibar += delta * self.inv_q
        u -= ra * delta
        return u, r

    def draw(self) -> np.ndarray:
        """Each node's sample for the next round, as global row indices."""
        if self._next == len(self._draws):
            self._draws = self.samples.starts + np.stack(
                [rng.integers(q, size=DRAW_BLOCK) for rng, q in zip(self._rngs, self.sizes)],
                axis=1)
            self._next = 0
        r = self._draws[self._next]
        self._next += 1
        return r

    def distance_to(self, coef: np.ndarray, tails: np.ndarray | None) -> float:
        """sum_n (2/q_n) sum_i ||phi_i - target_i||^2 against targets given
        in the same form, one coefficient per row plus the auc tail block."""
        sq = (self.coef - coef) ** 2 * self.na2
        if self.auc:
            sq += np.sum((self.tails - tails) ** 2, axis=1)
        return 2.0 * float(self.samples.weight @ sq)


def extra_round(Z: np.ndarray, S: np.ndarray, G: np.ndarray, Wt: np.ndarray,
                alpha: float) -> np.ndarray:
    """EXTRA's round on `dual_step`: from Z = Z^t, the dual S = S^{t-1}
    (advanced in place) and G = G^t, the rows of `local_mean_operator` at
    Z, returns Z^{t+1} = Wt Z - S^t - alpha G. Differencing two rounds gives
    EXTRA's mixing form Wt(2Z - Z-) - alpha (G - G-); from S^{-1} = 0 round
    0 is W Z - alpha G."""
    Z_next = dual_step(Z, Wt @ Z, S)
    Z_next -= alpha * G
    return Z_next


def step_size_bound(L: float) -> float:
    """Largest step size covered by the convergence guarantee, 1/(24 L)."""
    if L <= 0:
        raise AlgorithmError("L must be positive")
    return 1.0 / (24.0 * L)

