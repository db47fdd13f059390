"""Run orchestration: problems, engines, reference solutions and metrics.

A run is fully determined by a RunConfig: dataset (synthetic or LIBSVM file),
graph, operator family, method variant, communication mode and seeds. Every
engine draws exactly one sample index per node per round from per-node
`default_rng([seed, node])` streams, so dense, sparse and vectorized
executions of the same configuration follow the same sample path.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import dataset as ds
from .algorithms import (NodeState, dsa_node_step, dsba_node_step, extra_round,
                         local_mean_operator, make_node, node_means,
                         step_size_bound)
from .operators import (COUNTERS, OperatorSpec, SampleMatrix, eval_component,
                        lipschitz_bound, make_operator, reset_counters,
                        resolve_margins)
from .sparsecomm import Network, bootstrap_rounds, run_sparse
from .topology import MixingMatrix, build_mixing, laplacian, make_adjacency

VARIANTS = ("dsba", "dsa", "extra", "pointsaga")


class ConfigError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# problem assembly


@dataclass(frozen=True)
class SyntheticSpec:
    """Self-contained data generator: planted linear model, optionally
    sparsified rows, unit-normalized."""

    kind: str = "ridge"          # ridge (real labels) | classification (+-1)
    d: int = 50
    n_samples: int = 200
    nnz: int | None = None       # nonzeros per sample; None = dense rows
    noise: float = 0.1
    margin: float = 0.0          # classification: reject |cos(a, w*)| < margin
    seed: int = 0


def synthetic_samples(spec: SyntheticSpec) -> list[ds.Sample]:
    if spec.kind not in ("ridge", "classification"):
        raise ConfigError(f"unknown synthetic kind {spec.kind!r}")
    nnz = spec.nnz or spec.d
    if not (1 <= nnz <= spec.d):
        raise ConfigError("nnz must be in [1, d]")
    rng = np.random.default_rng(spec.seed)
    w = rng.normal(size=spec.d)
    w /= np.linalg.norm(w)
    samples: list[ds.Sample] = []
    while len(samples) < spec.n_samples:
        if nnz < spec.d:
            idx = np.sort(rng.choice(spec.d, size=nnz, replace=False)).astype(np.int64)
        else:
            idx = np.arange(spec.d, dtype=np.int64)
        val = rng.normal(size=nnz)
        val /= np.linalg.norm(val)
        score = float(val @ w[idx])
        if spec.kind == "ridge":
            y = score + spec.noise * rng.normal()
        else:
            if abs(score) < spec.margin:
                continue
            y = 1.0 if score > 0 else -1.0
        samples.append(ds.Sample(idx, val, float(y), len(samples)))
    return samples


@dataclass
class Problem:
    family: str
    shards: ds.Shards
    lam: float
    ops: list[list[OperatorSpec]]   # per node
    dim: int
    samples: SampleMatrix

    @property
    def n_nodes(self) -> int:
        return len(self.ops)


def build_problem(shards: ds.Shards, family: str, lam: float) -> Problem:
    if family in ("logistic", "auc"):
        for shard in shards.per_node:
            for s in shard:
                if s.label not in (-1.0, 1.0):
                    raise ConfigError(f"{family} needs labels in {{-1,+1}} "
                                      f"(line {s.line_no})")
    p = shards.p if family == "auc" else None
    if family == "auc" and not (0.0 < shards.p < 1.0):
        raise ConfigError("auc needs both classes present")
    ops = [[make_operator(family, s, lam, shards.d, p) for s in shard]
           for shard in shards.per_node]
    dim = shards.d + 3 if family == "auc" else shards.d
    samples = SampleMatrix.from_shards(family, shards.per_node, shards.d, p)
    return Problem(family, shards, lam, ops, dim, samples)


def global_operator(problem: Problem):
    """The root-finding target: sum_n (1/q_n) sum_i B_{n,i}(z) + N*lam*z.

    Evaluated on the stacked sample matrix, each row weighted by its node's
    1/q_n."""
    S, N = problem.samples, problem.n_nodes

    def apply(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        coef, tails = S.row_terms(S.X @ z[:S.d], z[S.d:])
        out = (N * problem.lam) * z
        out[:S.d] += S.X.T @ (S.weight * coef)
        if tails is not None:
            out[S.d:] += S.weight @ tails
        return out

    return apply


def reference_solution(problem: Problem, tol: float = 1e-12,
                       max_iters: int = 100) -> tuple[np.ndarray, float]:
    """High-accuracy root of the global operator plus residual certificate.

    Ridge and auc operators are affine, so the exact root comes from column
    probing and a single linear solve; logistic uses damped Newton with the
    Jacobian X' diag(w sigma(1 - sigma)) X + N lam I.
    """
    dim = problem.dim
    F = global_operator(problem)
    if problem.family in ("ridge", "auc"):
        F0 = F(np.zeros(dim))
        M = np.empty((dim, dim))
        e = np.zeros(dim)
        for j in range(dim):
            e[j] = 1.0
            M[:, j] = F(e) - F0
            e[j] = 0.0
        z = np.linalg.solve(M, -F0)
    else:
        N, S = problem.n_nodes, problem.samples
        z = np.zeros(dim)
        r = F(z)
        for _ in range(max_iters):
            rn = np.linalg.norm(r)
            if rn <= tol:
                break
            m = S.y * (S.X @ z)
            curv = sp.diags_array(S.weight * expit(m) * expit(-m))
            J = (S.X.T @ (curv @ S.X)).toarray() + (N * problem.lam) * np.eye(dim)
            step = np.linalg.solve(J, r)
            damp = 1.0
            while damp > 1e-6:
                r_try = F(z - damp * step)
                if np.linalg.norm(r_try) < rn:
                    break
                damp *= 0.5
            z = z - damp * step
            r = F(z)
    return z, float(np.linalg.norm(F(z)))


def objective(problem: Problem, z: np.ndarray) -> float:
    """Global objective value (ridge/logistic); auc problems report AUC
    through auc_score instead."""
    if problem.family == "auc":
        raise ConfigError("objective undefined for auc; use auc_score")
    S = problem.samples
    m = S.X @ z
    if problem.family == "ridge":
        loss = 0.5 * (m - S.y) ** 2
    else:
        loss = np.logaddexp(0.0, -S.y * m)
    reg = 0.5 * problem.n_nodes * problem.lam * float(z @ z)
    return float(S.weight @ loss) + reg


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each group of tied values given the mean of the
    ranks it spans."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_score(w: np.ndarray, X, labels: np.ndarray) -> float:
    """Pairwise ranking score of the linear scorer w on the rows of X
    (dense or sparse) with labels +-1, ties counted 1/2.

    Computed by rank statistics in O(Q log Q); NaN when a score is NaN."""
    scores = X @ w
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels > 0))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigError("auc_score needs both classes")
    if np.isnan(scores).any():
        return float("nan")
    ranks = average_ranks(scores)
    pos_rank_sum = float(ranks[labels > 0].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def max_lipschitz(problem: Problem) -> float:
    return max(lipschitz_bound(op) for ops_n in problem.ops for op in ops_n)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    family: str = "ridge"
    variant: str = "dsba"
    comm: str = "dense"             # dense | sparse
    engine: str = "auto"            # auto | generic
    n_nodes: int = 10
    topology: str = "random"
    edge_prob: float = 0.4
    graph_seed: int = 0
    tau_scale: float = 1.0          # multiplies lambda_max(L)
    synthetic: SyntheticSpec | None = None
    dataset_path: str | None = None
    alpha: float | None = None      # None -> 1/(24 L)
    lam: float | None = None        # None -> 1/(10 Q)
    rounds: int = 1000
    seed: int = 0
    metric_every: int | None = None  # None -> one effective pass (q_min)
    stop_subopt: float | None = None
    track_lyapunov: bool = False
    lyapunov_every: int = 10
    record_trajectory: bool = False
    compute_score: bool = True   # objective/AUC column is skippable work

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.family not in ("ridge", "logistic", "auc"):
            raise ConfigError("family must be ridge|logistic|auc")
        if self.comm not in ("dense", "sparse"):
            raise ConfigError("comm must be dense|sparse")
        if self.engine not in ("auto", "generic"):
            raise ConfigError("engine must be auto|generic")
        if (self.synthetic is None) == (self.dataset_path is None):
            raise ConfigError("exactly one of synthetic or dataset_path is required")
        if self.alpha is not None and not 0.0 < self.alpha < np.inf:
            raise ConfigError("alpha must be positive and finite")
        if self.lam is not None and not 0.0 <= self.lam < np.inf:
            raise ConfigError("lambda must be nonnegative and finite")
        if self.metric_every is not None and self.metric_every < 1:
            raise ConfigError("metric_every must be >= 1")
        if self.lyapunov_every < 1:
            raise ConfigError("lyapunov_every must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be positive")
        if self.variant == "pointsaga" and self.n_nodes != 1:
            raise ConfigError("pointsaga requires n_nodes = 1")
        if self.comm == "sparse" and self.variant not in ("dsba", "dsa"):
            raise ConfigError("sparse communication supports dsba and dsa only")
        if self.tau_scale < 1.0:
            raise ConfigError("tau_scale below 1 violates the mixing spectrum bound")
        if self.track_lyapunov and self.variant == "extra":
            raise ConfigError("lyapunov tracking needs per-sample tables "
                              "(dsba/dsa/pointsaga)")


@dataclass
class MetricsRow:
    round: int
    effective_passes: float
    subopt: float
    score: float
    c_max: int
    wall_time: float


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    CSV_HEADER = "round,effective_passes,subopt,score,c_max,wall_time"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.round},{r.effective_passes:.10g},{r.subopt:.10g},"
                         f"{r.score:.10g},{r.c_max},{r.wall_time:.6f}")
        return "\n".join(lines) + "\n"

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]

    def passes_to(self, subopt: float) -> float | None:
        for r in self.rows:
            if r.subopt <= subopt:
                return r.effective_passes
        return None


@dataclass
class RunResult:
    config: RunConfig
    metrics: MetricsLog
    z_final: np.ndarray             # (N, dim)
    z_star: np.ndarray
    z_star_residual: float
    alpha: float
    lam: float
    mix: MixingMatrix
    problem: Problem
    manifest: dict
    lyapunov: list[tuple[int, float]] | None = None
    trajectory: list[np.ndarray] | None = None
    comm_per_round: dict[int, np.ndarray] | None = None
    received_doubles: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Lyapunov diagnostic


class LyapunovTracker:
    """H^t of the convergence analysis:
    ||Z^t - Z*||^2_Wt + ||Q^t - Q*||^2 + c * D^t, with Q^t the running sum of
    U Z^k, U = (I-W)^{1/2}, Q* = -alpha U^+ B(Z*), c = q/(96 L^2), and D^t
    the table-vs-optimum discrepancy sum_n (2/q_n) sum_i |phi - B_{n,i}(z*)|^2.
    """

    def __init__(self, mix: MixingMatrix, problem: Problem, z_star: np.ndarray,
                 alpha: float, L: float, every: int = 10):
        self.Wt = mix.Wt
        self.every = every
        evals, vecs = np.linalg.eigh(np.eye(mix.n) - mix.W)
        evals = np.clip(evals, 0.0, None)
        self.U = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
        inv = np.where(evals > 1e-12, 1.0 / np.sqrt(np.where(evals > 1e-12, evals, 1.0)), 0.0)
        U_pinv = vecs @ np.diag(inv) @ vecs.T
        B_star = local_mean_operator(problem.samples,
                                     np.tile(z_star, (problem.n_nodes, 1)), problem.lam)
        self.Q_star = -alpha * (U_pinv @ B_star)
        self.z_star = z_star
        self.targets = [[eval_component(op, z_star) for op in ops_n]
                        for ops_n in problem.ops]
        q = problem.shards.q_min
        self.c = q / (96.0 * L * L)
        self.sum_Z: np.ndarray | None = None
        self.history: list[tuple[int, float]] = []

    def update(self, t: int, Z: np.ndarray, states: list[NodeState]) -> None:
        self.sum_Z = Z.copy() if self.sum_Z is None else self.sum_Z + Z
        if t % self.every:
            return
        dZ = Z - self.z_star
        term_z = float(np.sum(dZ * (self.Wt @ dZ)))
        dQ = self.U @ self.sum_Z - self.Q_star
        term_q = float(np.sum(dQ * dQ))
        D = sum((2.0 / st.q) * st.table.distance_to(tg)
                for st, tg in zip(states, self.targets))
        self.history.append((t, term_z + term_q + self.c * D))


# ---------------------------------------------------------------------------
# engines


def _make_states(problem: Problem, alpha: float, seed: int,
                 z0: np.ndarray) -> list[NodeState]:
    return [make_node(n, ops_n, alpha, problem.lam, z0, seed)
            for n, ops_n in enumerate(problem.ops)]


def _run_dense_generic(states: list[NodeState], mix: MixingMatrix, rounds: int,
                       variant: str, on_round) -> np.ndarray:
    """Per-node engine for dsba, dsa and pointsaga. Point-SAGA is the N = 1
    case: there W = Wt = [[1.0]], so the mixing input is exactly z^0 at
    round 0 and 2 z^t - z^{t-1} afterwards."""
    step = dsa_node_step if variant == "dsa" else dsba_node_step
    Z = np.stack([s.z for s in states])
    Zp = Z.copy()
    for t in range(rounds):
        mixed_all = mix.W @ Z if t == 0 else mix.Wt @ (2.0 * Z - Zp)
        Znew = np.empty_like(Z)
        for n, state in enumerate(states):
            Znew[n], _, _ = step(state, mixed_all[n])
        Zp, Z = Z, Znew
        if on_round(t, Z):
            break
    return Z


def _run_extra(problem: Problem, mix: MixingMatrix, rounds: int, alpha: float,
               z0: np.ndarray, on_round) -> np.ndarray:
    S, lam = problem.samples, problem.lam
    Z = np.tile(z0, (problem.n_nodes, 1))
    G = local_mean_operator(S, Z, lam)
    Zp, Gp = Z, G
    for t in range(rounds):
        Znew = extra_round(Z, Zp, G, Gp, mix.W, mix.Wt, alpha, t)
        Zp, Z = Z, Znew
        Gp, G = G, local_mean_operator(S, Z, lam)
        if on_round(t, Z):
            break
    return Z


def _run_batched(problem: Problem, mix: MixingMatrix, rounds: int, alpha: float,
                 seed: int, z0: np.ndarray, variant: str, on_round) -> np.ndarray:
    """Vectorized dense engine for dsba and dsa on every family: one float64
    numpy round over all nodes.

    It runs the generic engine's recurrence Z+ = Wt(2Z - Z-) - alpha(V - V-)
    (V the variance-reduced estimate, W Z at round 0) in primal-dual form.
    Each round computes Wt Z once and the dual S^t = S^{t-1} + (Z - Wt Z),
    S^{-1} = 0; then
      dsba: psi = Wt Z - S + alpha (phi_i - phibar),
            Z+ = J_{alpha (B_i + lam I)}(psi) row-wise;
      dsa:  Z+ = Wt Z - S - alpha V, V = B_i(Z) - phi_i + phibar + lam Z.
    Summing the recurrence over rounds gives exactly this form. The node
    mean of S is zero in exact arithmetic, so it is subtracted after each
    update: rounding then cannot pile up along the consensus direction,
    where the float64 mixing form drifts linearly with the round count.

    A table entry phi_i is a coefficient times the sample row (plus three
    tail values for auc), so the table is one coefficient per sample. The
    engine follows the generic engine's per-node rng streams, and advances
    the operator counters as it would."""
    samples, family = problem.samples, problem.family
    N, d, lam = problem.n_nodes, samples.d, problem.lam
    X = samples.X.toarray()
    na2 = np.einsum("ij,ij->i", X, X)
    sizes = np.bincount(samples.row_node)
    Z = np.tile(z0, (N, 1))
    auc = family == "auc"
    coef, tails = samples.row_terms(samples.Xb @ Z[:, :d].ravel(),
                                    Z[samples.row_node, d:] if auc else None)
    phibar = node_means(samples, coef, tails)
    S = np.zeros_like(Z)
    # J_{alpha (B + lam I)}(psi) = J_{rho alpha B}(rho psi)
    rho = 1.0 / (1.0 + lam * alpha)
    rngs = [np.random.default_rng([seed, n]) for n in range(N)]
    qs = sizes.tolist()
    for t in range(rounds):
        r = samples.starts + np.array([rng.integers(q) for rng, q in zip(rngs, qs)])
        A = X[r]
        WZ = mix.Wt @ Z
        S += Z - WZ
        S -= S.sum(axis=0) / N
        if variant == "dsba":
            psi = WZ - S - alpha * phibar
            psi[:, :d] += (alpha * coef[r])[:, None] * A
            if auc:
                psi[:, d:] += alpha * tails[r]
            psi *= rho
            e, tail = resolve_margins(family, np.einsum("nd,nd->n", psi[:, :d], A),
                                      na2[r], samples.y[r], rho * alpha,
                                      psi[:, d:], samples.p)
            psi[:, :d] -= (rho * alpha * e)[:, None] * A
            if auc:
                psi[:, d:] = tail
            COUNTERS["resolves"] += N
            Znew = at = psi
        else:
            at = Z
        new_coef, new_tails = samples.row_terms(np.einsum("nd,nd->n", at[:, :d], A),
                                                at[:, d:] if auc else None, rows=r)
        delta = np.zeros_like(Z)
        delta[:, :d] = (new_coef - coef[r])[:, None] * A
        if auc:
            delta[:, d:] = new_tails - tails[r]
            tails[r] = new_tails
        if variant == "dsa":
            Znew = WZ - S - alpha * (delta + phibar + lam * Z)
        phibar += delta / sizes[:, None]
        coef[r] = new_coef
        Z = Znew
        if on_round(t, Z):
            break
    return Z


# ---------------------------------------------------------------------------
# run


def _load_shards(config: RunConfig) -> ds.Shards:
    if config.dataset_path is not None:
        samples, d = ds.read_libsvm(config.dataset_path)
        samples = ds.normalize_rows(samples)
        return ds.partition(samples, config.n_nodes, config.seed, d=d)
    samples = synthetic_samples(config.synthetic)
    return ds.partition(samples, config.n_nodes, config.seed, d=config.synthetic.d)


def _pick_engine(config: RunConfig) -> str:
    """The engine label: "fast", the batched engine, for dense dsba and dsa
    under engine = auto; else "generic", the per-node loop that Point-SAGA,
    sparse runs and Lyapunov tracking (it reads the per-node tables) use,
    and the label EXTRA's own full-activation loop reports."""
    fast_ok = (config.engine == "auto" and config.comm == "dense"
               and config.variant in ("dsba", "dsa") and not config.track_lyapunov)
    return "fast" if fast_ok else "generic"


def run(config: RunConfig) -> RunResult:
    config.validate()
    reset_counters()
    t_start = time.perf_counter()
    shards = _load_shards(config)
    lam = config.lam if config.lam is not None else ds.default_lambda(shards)
    problem = build_problem(shards, config.family, lam)
    adjacency = make_adjacency(config.topology, config.n_nodes,
                               p=config.edge_prob, seed=config.graph_seed)
    tau = None
    if config.tau_scale != 1.0:
        tau = config.tau_scale * float(np.linalg.eigvalsh(laplacian(adjacency))[-1])
    mix = build_mixing(adjacency, tau)
    L = max_lipschitz(problem)
    alpha = config.alpha if config.alpha is not None else step_size_bound(L)
    z_star, z_resid = reference_solution(problem)
    z0 = np.zeros(problem.dim)

    Z_star_tile = np.tile(z_star, (config.n_nodes, 1))
    Z0 = np.tile(z0, (config.n_nodes, 1))
    denom = max(float(np.linalg.norm(Z0 - Z_star_tile)), 1e-300)
    metric_every = config.metric_every or shards.q_min
    metrics = MetricsLog()
    trajectory: list[np.ndarray] | None = None
    if config.record_trajectory:
        trajectory = [Z0.copy()]
    net = Network(mix.distances) if config.comm == "sparse" else None

    def c_max_at(t: int) -> int:
        if net is not None:
            return int(net.received_doubles().max())
        degrees = adjacency.sum(axis=1)
        if config.n_nodes == 1:
            return 0
        return int(degrees.max() * problem.dim * (t + 1))

    def passes(t: int) -> float:
        if config.variant == "extra":
            return float(t + 1)
        return (t + 1) / shards.q_min

    def record(t: int, Z: np.ndarray) -> None:
        subopt = float(np.linalg.norm(Z - Z_star_tile)) / denom
        if not config.compute_score:
            score = float("nan")
        elif problem.family == "auc":
            w_mean = Z.mean(axis=0)[: shards.d]
            try:
                score = auc_score(w_mean, problem.samples.X, problem.samples.y)
            except ConfigError:
                score = float("nan")
        else:
            score = objective(problem, Z.mean(axis=0))
        metrics.rows.append(MetricsRow(t + 1, passes(t), subopt, score,
                                       c_max_at(t), time.perf_counter() - t_start))

    # initialization row (round 0)
    init_score = float("nan")
    if config.compute_score and problem.family != "auc":
        init_score = objective(problem, z0)
    metrics.rows.append(MetricsRow(
        0, 0.0, 1.0 if denom > 1e-299 else 0.0, init_score,
        0, time.perf_counter() - t_start))

    states: list[NodeState] = []
    tracker: LyapunovTracker | None = None
    if config.track_lyapunov:
        tracker = LyapunovTracker(mix, problem, z_star, alpha, L,
                                  every=config.lyapunov_every)

    stop = config.stop_subopt

    def on_round(t: int, Z: np.ndarray) -> bool:
        if trajectory is not None:
            trajectory.append(Z.copy())
        if tracker is not None:
            tracker.update(t + 1, Z, states)
        last = t + 1 == config.rounds
        if (t + 1) % metric_every == 0 or last:
            record(t, Z)
            if stop is not None and metrics.rows[-1].subopt <= stop:
                return True
        return False

    engine = _pick_engine(config)

    def start_states() -> list[NodeState]:
        nonlocal states
        states = _make_states(problem, alpha, config.seed, z0)
        if tracker is not None:
            tracker.update(0, Z0, states)
        return states

    if config.rounds == 0:
        Z_final = Z0
    elif net is not None:
        Z_final, _ = run_sparse(start_states(), mix, config.rounds,
                                variant=config.variant, on_round=on_round, net=net)
    elif config.variant == "extra":
        Z_final = _run_extra(problem, mix, config.rounds, alpha, z0, on_round)
    elif engine == "fast":
        Z_final = _run_batched(problem, mix, config.rounds, alpha, config.seed,
                               z0, config.variant, on_round)
    else:
        Z_final = _run_dense_generic(start_states(), mix, config.rounds,
                                     config.variant, on_round)

    gamma = mix.gamma
    manifest = {
        "config": asdict(config),
        "engine": engine,
        "alpha": alpha,
        "lambda": lam,
        "lipschitz": L,
        "gamma": gamma,
        "graph_edges": int(adjacency.sum() // 2),
        "q_min": shards.q_min,
        "Q": shards.Q,
        "p_positive": shards.p,
        "rho": shards.rho,
        "z_star_residual": z_resid,
        "shards": ds.shard_manifest(shards),
        "counters": dict(COUNTERS),
        "numpy": np.__version__,
    }
    if net is not None:
        manifest["traffic"] = traffic_summary(net, bootstrap_rounds(mix))
    return RunResult(
        config=config, metrics=metrics, z_final=Z_final, z_star=z_star,
        z_star_residual=z_resid, alpha=alpha, lam=lam, mix=mix, problem=problem,
        manifest=manifest,
        lyapunov=tracker.history if tracker else None,
        trajectory=trajectory,
        comm_per_round=net.round_values if net is not None else None,
        received_doubles=net.received_doubles() if net is not None else None,
    )


def traffic_summary(net: Network, warmup: int) -> dict:
    """Per-node doubles a sparse run received, by kind, and the largest
    payload any node received in one round after the dense warm-up."""
    return {
        "payload_values": net.value_doubles.tolist(),
        "metadata": net.metadata_doubles.tolist(),
        "dense_warmup": net.broadcast_doubles.tolist(),
        "max_round_payload": max((int(v.max()) for t, v in net.round_values.items()
                                  if t > warmup), default=0),
    }


def manifest_json(result: RunResult) -> str:
    return json.dumps(result.manifest, indent=2, sort_keys=True)
