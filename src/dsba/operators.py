"""Single-sample monotone operators and their resolvents.

Three families are supported, each binding one data sample:

* ridge      — B(z) = (a'z - y) a                     (closed-form resolvent)
* logistic   — B(z) = -y a / (1 + exp(y a'z))         (1-D Newton resolvent)
* auc        — convex-concave pairwise-ranking operator on z = [w; a; b; theta],
               dimension d+3                           (4x4 closed-form resolvent)

The l2 level `lam` is never baked into the family resolvents; it is applied
through the rescaling identity J_{alpha(B+lam I)}(z) = J_{rho alpha B}(rho z)
with rho = 1/(1 + lam*alpha), so the closed forms above stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import Sample
from .sparse import SparseVec

FAMILIES = ("ridge", "logistic", "auc")


class OperatorError(ValueError):
    pass


# cheap instrumentation so the cost model (component evals per node per round)
# can be asserted by tests and reported in run manifests
COUNTERS = {"component_evals": 0, "resolves": 0}


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

    def __post_init__(self):
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


def eval_operator(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """Regularized operator B(z) + lam*z, dense."""
    out = op.lam * np.asarray(z, dtype=np.float64)
    eval_component(op, z).add_into(out)
    return out


def resolvent_ridge(op: OperatorSpec, alpha: float, psi: np.ndarray) -> np.ndarray:
    _check_dim(op, psi)
    s = op.sample
    na2 = float(s.values @ s.values)
    sc = (s.values @ psi[s.indices] + alpha * na2 * s.label) / (1.0 + alpha * na2)
    out = psi.copy()
    out[s.indices] -= alpha * (sc - s.label) * s.values
    return out


def resolvent_logistic(op: OperatorSpec, alpha: float, psi: np.ndarray,
                       newton_iters: int = 20) -> np.ndarray:
    """Resolvent via the scalar equation t + alpha*||a||^2*e(t) = a'psi,
    e(t) = -y / (1 + exp(y t)), solved by Newton from t=0."""
    _check_dim(op, psi)
    if newton_iters < 1:
        raise OperatorError("newton_iters must be >= 1")
    s = op.sample
    y = s.label
    na2 = float(s.values @ s.values)
    b = float(s.values @ psi[s.indices])
    c = alpha * na2
    t = 0.0
    ok = False
    for _ in range(newton_iters):
        e = -y * expit(-y * t)
        denom = 1.0 - c * (y * e + e * e)
        step = (c * e + t - b) / denom
        t2 = t - step
        if not np.isfinite(t2):
            ok = False
            break
        done = abs(t2 - t) < 1e-14
        t = t2
        if done:
            ok = True
            break
    if not np.isfinite(t) or (not ok and abs(c * (-y * expit(-y * t)) + t - b) > 1e-9):
        # g(t) = t + c*e(t) - b is strictly increasing; bisection always works
        lo, hi = b - abs(c) - 1.0, b + abs(c) + 1.0
        for _ in range(60):
            t = 0.5 * (lo + hi)
            if t + c * (-y * expit(-y * t)) - b < 0.0:
                lo = t
            else:
                hi = t
        t = 0.5 * (lo + hi)
    e = -y * expit(-y * t)
    out = psi.copy()
    out[s.indices] -= alpha * e * s.values
    return out


def _solve4(A, b):
    """Gaussian elimination with partial pivoting on a 4x4 system."""
    A = A.copy()
    b = b.copy()
    n = 4
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) < 1e-300:
            raise OperatorError("singular 4x4 resolvent system")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def resolvent_auc(op: OperatorSpec, alpha: float, psi: np.ndarray) -> np.ndarray:
    """Closed-form resolvent: the fixed point reduces to a 4x4 linear system
    in (a'w_out, a_out, b_out, theta_out)."""
    _check_dim(op, psi)
    s = op.sample
    d = op.d_features
    p = op.p
    na2 = float(s.values @ s.values)
    sw = float(s.values @ psi[s.indices])
    a_off, b_off, theta = psi[d], psi[d + 1], psi[d + 2]
    if s.label > 0:
        g = 2.0 * (1 - p) * alpha
        A = np.array([
            [1 + g * na2, -g * na2, 0.0, -g * na2],
            [-g, 1 + g, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [g, 0.0, 0.0, 1 + 2 * p * (1 - p) * alpha],
        ])
        rhs = np.array([sw + g * na2, a_off, b_off, theta])
        sc, ar, br, tr = _solve4(A, rhs)
        coef = 2.0 * (1 - p) * ((sc - ar) - (1 + tr))
    else:
        g = 2.0 * p * alpha
        A = np.array([
            [1 + g * na2, 0.0, -g * na2, g * na2],
            [0.0, 1.0, 0.0, 0.0],
            [-g, 0.0, 1 + g, 0.0],
            [-g, 0.0, 0.0, 1 + 2 * p * (1 - p) * alpha],
        ])
        rhs = np.array([sw - g * na2, a_off, b_off, theta])
        sc, ar, br, tr = _solve4(A, rhs)
        coef = 2.0 * p * ((sc - br) + (1 + tr))
    out = psi.copy()
    out[s.indices] -= alpha * coef * s.values
    out[d], out[d + 1], out[d + 2] = ar, br, tr
    return out


def resolvent(op: OperatorSpec, alpha: float, psi: np.ndarray,
              newton_iters: int = 20) -> np.ndarray:
    """Resolvent of the unregularized family operator, J_{alpha B}(psi)."""
    if alpha <= 0:
        raise OperatorError("alpha must be positive")
    COUNTERS["resolves"] += 1
    if op.family == "ridge":
        return resolvent_ridge(op, alpha, psi)
    if op.family == "logistic":
        return resolvent_logistic(op, alpha, psi, newton_iters)
    return resolvent_auc(op, alpha, psi)


def wrap_l2_resolvent(resolvent_of_b, lam: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """Resolvent of B + lam*I from the resolvent of B:
    J_{alpha(B+lam I)}(z) = J_{rho alpha B}(rho z), rho = 1/(1 + lam*alpha)."""
    if lam < 0:
        raise OperatorError("lam must be nonnegative")
    rho = 1.0 - lam * alpha / (1.0 + lam * alpha)
    return resolvent_of_b(rho * alpha, rho * np.asarray(z, dtype=np.float64))


def resolve_regularized(op: OperatorSpec, alpha: float, psi: np.ndarray,
                        newton_iters: int = 20) -> np.ndarray:
    """J_{alpha (B + lam I)}(psi) for the spec's own lam."""
    return wrap_l2_resolvent(
        lambda a, z: resolvent(op, a, z, newton_iters), op.lam, alpha, psi
    )


def lipschitz_bound(op: OperatorSpec) -> float:
    """Lipschitz constant of the regularized operator, ||B'||_2 + lam.

    Closed forms for ridge/logistic. The auc operator is affine and its
    linear part acts only on span{a/||a||, the sample's offset, theta}, so
    its norm is the spectral norm of a 3x3 matrix in that basis.
    """
    s = op.sample
    na2 = float(s.values @ s.values)
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
