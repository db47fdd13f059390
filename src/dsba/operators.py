"""Single-sample monotone operators and their resolvents.

Three families are supported, each binding one data sample:

* ridge      — B(z) = (a'z - y) a                     (closed-form resolvent)
* logistic   — B(z) = -y a / (1 + exp(y a'z))         (1-D Newton resolvent)
* auc        — convex-concave pairwise-ranking operator on z = [w; a; b; theta],
               dimension d+3                           (closed-form resolvent)

Every resolvent reduces to one scalar equation in the output margin a'z_out;
the kernels below solve it for a batch of rows at once, and the per-sample
`resolvent` is their one-row case.

The l2 level `lam` is never baked into the family resolvents; it is applied
through the rescaling identity J_{alpha(B+lam I)}(z) = J_{rho alpha B}(rho z)
with rho = 1/(1 + lam*alpha), so the closed forms above stay exact.

`SampleMatrix` holds all samples of a problem in one CSR matrix and
evaluates every component at once; the per-sample `eval_component` is the
reference it is tested against and the path of the stochastic per-round
updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .dataset import Sample
from .sparse import SparseVec

FAMILIES = ("ridge", "logistic", "auc")


class OperatorError(ValueError):
    pass


# cost-model counters (component evaluations and resolvents), shared by the
# process: simulator.run() resets them when it starts and reports them in the
# manifest's "counters"; a batched evaluation counts one per sample row
COUNTERS = {"component_evals": 0, "resolves": 0}

# most Newton steps of the logistic resolvent before it falls back to bisection
NEWTON_ITERS = 20


def reset_counters() -> dict:
    snapshot = dict(COUNTERS)
    COUNTERS["component_evals"] = 0
    COUNTERS["resolves"] = 0
    return snapshot


@dataclass
class OperatorSpec:
    family: str
    sample: Sample
    lam: float
    dim: int
    p: float | None = None  # positive-class ratio, auc only
    na2: float = field(init=False, repr=False)  # squared sample norm

    def __post_init__(self):
        self.na2 = float(self.sample.values @ self.sample.values)
        if self.family not in FAMILIES:
            raise OperatorError(f"unknown family {self.family!r}")
        if self.family == "auc":
            if self.p is None or not (0.0 < self.p < 1.0):
                raise OperatorError("auc requires positive ratio p in (0, 1)")
            if self.sample.label not in (-1.0, 1.0):
                raise OperatorError("auc requires labels in {-1, +1}")

    @property
    def d_features(self) -> int:
        return self.dim - 3 if self.family == "auc" else self.dim


def make_operator(family: str, sample: Sample, lam: float, d: int, p=None) -> OperatorSpec:
    dim = d + 3 if family == "auc" else d
    return OperatorSpec(family, sample, lam, dim, p)


def _check_dim(op: OperatorSpec, z: np.ndarray) -> None:
    if len(z) != op.dim:
        raise OperatorError(f"dimension mismatch: got {len(z)}, operator wants {op.dim}")


def eval_component(op: OperatorSpec, z: np.ndarray) -> SparseVec:
    """Unregularized operator output as a sparse vector.

    Support is the sample support, plus for auc the three trailing
    coordinates relevant to the sample's sign.
    """
    _check_dim(op, z)
    COUNTERS["component_evals"] += 1
    s = op.sample
    if op.family == "ridge":
        coef = s.values @ z[s.indices] - s.label
        return SparseVec(s.indices, coef * s.values, op.dim)
    if op.family == "logistic":
        margin = s.label * (s.values @ z[s.indices])
        coef = -s.label * expit(-margin)
        return SparseVec(s.indices, coef * s.values, op.dim)
    # auc
    d = op.d_features
    p = op.p
    sw = s.values @ z[s.indices]
    a_off, b_off, theta = z[d], z[d + 1], z[d + 2]
    if s.label > 0:
        coef = 2.0 * (1 - p) * ((sw - a_off) - (1 + theta))
        tail_idx = np.array([d, d + 2], dtype=np.int64)
        tail_val = np.array(
            [-2.0 * (1 - p) * (sw - a_off), 2.0 * p * (1 - p) * theta + 2.0 * (1 - p) * sw]
        )
    else:
        coef = 2.0 * p * ((sw - b_off) + (1 + theta))
        tail_idx = np.array([d + 1, d + 2], dtype=np.int64)
        tail_val = np.array(
            [-2.0 * p * (sw - b_off), 2.0 * p * (1 - p) * theta - 2.0 * p * sw]
        )
    idx = np.concatenate([s.indices, tail_idx])
    val = np.concatenate([coef * s.values, tail_val])
    return SparseVec(idx, val, op.dim)


@dataclass(frozen=True)
class SampleMatrix:
    """Every sample of a problem in one CSR matrix, rows in node order.

    `X` (Q x d) stacks the rows and serves a consensus point z. `Xb`
    (Q x N*d) holds the same values with row i moved into the column block
    of its node, so `Xb @ Z[:, :d].ravel()` gives x_i . z_{node(i)} for
    every row in one product. Each row carries its label, its node and the
    weight 1/q_n of its node's mean.
    """

    family: str
    X: sp.csr_array
    Xb: sp.csr_array
    # Xb transposed and stored: building the transpose for every product
    # costs about as much as the product itself
    XbT: sp.csr_array
    y: np.ndarray
    row_node: np.ndarray
    weight: np.ndarray
    starts: np.ndarray       # first row of each node
    p: float | None = None   # positive-class ratio, auc only

    @classmethod
    def from_shards(cls, family: str, per_node: list[list[Sample]], d: int,
                    p: float | None = None) -> "SampleMatrix":
        rows = [s for shard in per_node for s in shard]
        sizes = np.array([len(shard) for shard in per_node])
        nnz = np.array([s.nnz for s in rows])
        indptr = np.concatenate([[0], np.cumsum(nnz)])
        indices = np.concatenate([s.indices for s in rows]).astype(np.int64)
        data = np.concatenate([s.values for s in rows]).astype(np.float64)
        row_node = np.repeat(np.arange(len(per_node)), sizes)
        Q, N = len(rows), len(per_node)
        X = sp.csr_array((data, indices, indptr), shape=(Q, d))
        Xb = sp.csr_array((data, indices + d * np.repeat(row_node, nnz), indptr),
                          shape=(Q, N * d))
        return cls(family, X, Xb, Xb.T.tocsr(), np.array([s.label for s in rows], dtype=np.float64),
                   row_node, 1.0 / sizes[row_node],
                   np.cumsum(sizes) - sizes, p)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def row_terms(self, m: np.ndarray, tail: np.ndarray | None, rows=None):
        """Every row's component output at its margin m_i = x_i . w, or
        only the given `rows`' (m and tail then follow `rows`).

        B_i = c_i x_i, plus for auc three outputs at coordinates d..d+2
        that read (a, b, theta) from `tail`, given per row (Q x 3) or shared
        (3,). Returns c and the auc tail block (Q x 3), else None. Counts
        one component evaluation per row.
        """
        COUNTERS["component_evals"] += len(m)
        y = self.y if rows is None else self.y[rows]
        if self.family == "ridge":
            return m - y, None
        if self.family == "logistic":
            return -y * expit(-(y * m)), None
        p = self.p
        a, b, theta = tail[..., 0], tail[..., 1], tail[..., 2]
        pos = y > 0
        cp, cn = 2.0 * (1 - p), 2.0 * p
        coef = np.where(pos, cp * ((m - a) - (1 + theta)), cn * ((m - b) + (1 + theta)))
        tails = np.zeros((len(m), 3))
        tails[:, 0] = np.where(pos, -cp * (m - a), 0.0)
        tails[:, 1] = np.where(pos, 0.0, -cn * (m - b))
        tails[:, 2] = 2.0 * p * (1 - p) * theta + np.where(pos, cp * m, -cn * m)
        return coef, tails


def eval_operator(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """Regularized operator B(z) + lam*z, dense."""
    out = op.lam * np.asarray(z, dtype=np.float64)
    eval_component(op, z).add_into(out)
    return out


def kernel_ridge(m, na2, y, alpha):
    """Ridge resolvent in margin form: s = a'z_out solves
    s + alpha*||a||^2 (s - y) = m, and the output coefficient is s - y."""
    return (m + alpha * na2 * y) / (1.0 + alpha * na2) - y


def kernel_logistic(m, na2, y, alpha):
    """Logistic resolvent in margin form: t = a'z_out solves
    g(t) = t + c*e(t) - m = 0 with c = alpha*||a||^2 and
    e(t) = -y / (1 + exp(y t)), the output coefficient.

    Newton from t = 0, at most `NEWTON_ITERS` steps, until every step is
    below 1e-14; g' >= 1, so the steps stay finite. A row left with a
    residual above 1e-9 is bisected instead (g is strictly increasing)."""
    m, na2, y = np.broadcast_arrays(m, na2, y)
    c = alpha * na2
    cy = c * y
    t = np.zeros(m.shape)
    for _ in range(NEWTON_ITERS):
        sg = expit(-y * t)
        t2 = t - (t - m - cy * sg) / (1.0 + c * sg * (1.0 - sg))
        small = np.abs(t2 - t) < 1e-14
        t = t2
        if small.all():
            break
    bad = ~(np.abs(t - m - cy * expit(-y * t)) <= 1e-9)
    if bad.any():
        lo, hi = m - np.abs(c) - 1.0, m + np.abs(c) + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = mid - m - cy * expit(-y * mid) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        t = np.where(bad, 0.5 * (lo + hi), t)
    return -y * expit(-y * t)


def kernel_auc(m, na2, y, alpha, tail, p):
    """AUC resolvent in margin form, z = [w; a; b; theta].

    With s = a'w_out, c = 2(1-p) (y = +1) or 2p (y = -1), g = c*alpha,
    h = 2p(1-p)*alpha and o the sample's offset (a for y = +1, b for
    y = -1), the fixed point gives o_out = (o + g s)/(1+g),
    theta_out = (theta - y g s)/(1+h), the other offset unchanged, and one
    scalar equation s K = m + g||a||^2 (o/(1+g) + y (1 + theta/(1+h)))
    with K = 1 + g||a||^2/(1+g) + g^2||a||^2/(1+h) >= 1. Returns the
    output coefficient c((s - o_out) - y(1 + theta_out)) and the output
    tail (rows x 3)."""
    pos = np.asarray(y) > 0
    c = np.where(pos, 2.0 * (1 - p), 2.0 * p)
    g, h = c * alpha, 2.0 * p * (1 - p) * alpha
    tail = np.asarray(tail, dtype=np.float64)
    o = np.where(pos, tail[..., 0], tail[..., 1])
    theta = tail[..., 2]
    gn = g * na2
    K = 1.0 + gn / (1.0 + g) + g * gn / (1.0 + h)
    s = (m + gn * (o / (1.0 + g) + y * (1.0 + theta / (1.0 + h)))) / K
    o_out = (o + g * s) / (1.0 + g)
    theta_out = (theta - y * g * s) / (1.0 + h)
    out = tail.copy()
    out[..., 0] = np.where(pos, o_out, tail[..., 0])
    out[..., 1] = np.where(pos, tail[..., 1], o_out)
    out[..., 2] = theta_out
    return c * ((s - o_out) - y * (1.0 + theta_out)), out


def resolve_margins(family: str, m, na2, y, alpha: float, tail=None,
                    p: float | None = None):
    """J_{alpha B}(psi) for single-sample operators, one per row, from the
    margins m = a'psi, the squared row norms and the labels (auc also
    reads psi's tail). The output is psi - alpha*e*a on the features and,
    for auc, the returned tail on the last three coordinates.

    Returns (e, tail or None). The batched engine calls this on a whole
    round; `resolvent` is its one-row case."""
    if family == "ridge":
        return kernel_ridge(m, na2, y, alpha), None
    if family == "logistic":
        return kernel_logistic(m, na2, y, alpha), None
    return kernel_auc(m, na2, y, alpha, tail, p)


def resolvent(op: OperatorSpec, alpha: float, psi: np.ndarray) -> np.ndarray:
    """Resolvent of the unregularized family operator, J_{alpha B}(psi)."""
    if alpha <= 0:
        raise OperatorError("alpha must be positive")
    _check_dim(op, psi)
    COUNTERS["resolves"] += 1
    s, d = op.sample, op.d_features
    e, tail = resolve_margins(op.family, float(s.values @ psi[s.indices]), op.na2,
                              s.label, alpha, psi[d:], op.p)
    out = psi.copy()
    out[s.indices] -= alpha * e * s.values
    if tail is not None:
        out[d:] = tail
    return out


def wrap_l2_resolvent(resolvent_of_b, lam: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """Resolvent of B + lam*I from the resolvent of B:
    J_{alpha(B+lam I)}(z) = J_{rho alpha B}(rho z), rho = 1/(1 + lam*alpha)."""
    if lam < 0:
        raise OperatorError("lam must be nonnegative")
    rho = 1.0 - lam * alpha / (1.0 + lam * alpha)
    return resolvent_of_b(rho * alpha, rho * np.asarray(z, dtype=np.float64))


def resolve_regularized(op: OperatorSpec, alpha: float, psi: np.ndarray) -> np.ndarray:
    """J_{alpha (B + lam I)}(psi) for the spec's own lam."""
    return wrap_l2_resolvent(lambda a, z: resolvent(op, a, z), op.lam, alpha, psi)


def lipschitz_bound(op: OperatorSpec) -> float:
    """Lipschitz constant of the regularized operator, ||B'||_2 + lam.

    Closed forms for ridge/logistic. The auc operator is affine and its
    linear part acts only on span{a/||a||, the sample's offset, theta}, so
    its norm is the spectral norm of a 3x3 matrix in that basis.
    """
    s, na2 = op.sample, op.na2
    if op.family == "ridge":
        return na2 + op.lam
    if op.family == "logistic":
        return 0.25 * na2 + op.lam
    p, r, y = op.p, np.sqrt(na2), s.label
    c = 2.0 * (1 - p) if y > 0 else 2.0 * p
    M = np.array([[c * na2, -c * r, -y * c * r],
                  [-c * r, c, 0.0],
                  [y * c * r, 0.0, 2.0 * p * (1 - p)]])
    return float(np.linalg.norm(M, 2) + op.lam)


def strong_monotonicity_estimate(op: OperatorSpec, trials: int, seed: int,
                                 scale: float = 1.0) -> float:
    """Empirical lower bound on the strong-monotonicity modulus of the
    regularized operator: min over random pairs of
    <B(x)-B(y), x-y> / ||x-y||^2."""
    if trials < 1:
        raise OperatorError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(trials):
        x = scale * rng.normal(size=op.dim)
        y = scale * rng.normal(size=op.dim)
        gap = x - y
        diff = eval_operator(op, x) - eval_operator(op, y)
        best = min(best, float(diff @ gap) / float(gap @ gap))
    return best
