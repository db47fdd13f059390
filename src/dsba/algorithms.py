"""Per-node update rules.

Implements the implicit (resolvent-based) variance-reduced update, its
explicit counterpart and the full-activation baseline round. On a single
node (self-loop mixing, W = Wt = 1) the implicit update is Point-SAGA.

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

from .operators import OperatorSpec, SampleMatrix, eval_component, resolve_regularized
from .sparse import SparseVec


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

    def estimator(self, i: int, z: np.ndarray, lam: float) -> np.ndarray:
        """Variance-reduced estimate B_i(z) - phi_i + phibar + lam*z (dense)."""
        out = self.phibar + lam * np.asarray(z, dtype=np.float64)
        self.lookup(i).add_into(out, -1.0)
        return out

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
    N, d = len(samples.starts), samples.d
    out = np.zeros((N, d if tails is None else d + 3))
    out[:, :d] = (samples.XbT @ (samples.weight * coef)).reshape(N, d)
    if tails is not None:
        out[:, d:] = np.add.reduceat(samples.weight[:, None] * tails,
                                     samples.starts, axis=0)
    return out


def extra_round(Z: np.ndarray, Z_prev: np.ndarray, G: np.ndarray, G_prev: np.ndarray,
                W: np.ndarray, Wt: np.ndarray, alpha: float, t: int) -> np.ndarray:
    """Full-activation primal-dual baseline round.

    G rows hold the full regularized local operator at Z; round 0 uses the
    plain gossip matrix, later rounds the averaged one.
    """
    if t == 0:
        return W @ Z - alpha * G
    return Wt @ (2.0 * Z - Z_prev) - alpha * (G - G_prev)


def step_size_bound(L: float) -> float:
    """Largest step size covered by the convergence guarantee, 1/(24 L)."""
    if L <= 0:
        raise AlgorithmError("L must be positive")
    return 1.0 / (24.0 * L)


def contraction_rate(gamma: float, mu: float, L: float, q: int) -> float:
    """Guaranteed per-round contraction factor of the Lyapunov function."""
    return 1.0 - min(gamma / 12.0, mu / (48.0 * L), 1.0 / (3.0 * q), 0.25)
