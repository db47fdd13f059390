"""Run orchestration: problems, engines, reference solutions and metrics.

A run is fully determined by a RunConfig: dataset (synthetic or LIBSVM file),
graph, operator family, method variant, communication mode and seeds. Every
engine draws exactly one sample index per node per round from per-node
`default_rng([seed, node])` streams, so dense, sparse and vectorized
executions of the same configuration follow the same sample path.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import dataset as ds
from .algorithms import (BatchedTable, NodeState, dsa_node_step, dsba_node_step,
                         extra_round, local_mean_operator, make_node,
                         step_size_bound)
from .operators import (COUNTERS, FAMILIES, OperatorSpec, SampleMatrix, eval_component,
                        lipschitz_bound, make_operator, reset_counters)
from .sparse import SparseVec
from .sparsecomm import Network, run_sparse, traffic_summary
from .topology import MixingMatrix, build_mixing, laplacian, make_adjacency

VARIANTS = ("dsba", "dsa", "extra", "pointsaga")


class ConfigError(ValueError):
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

    def __post_init__(self):
        if self.kind not in ("ridge", "classification"):
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if not 1 <= (self.nnz or self.d) <= self.d:
            raise ConfigError("nnz must be in [1, d]")
        # rows and w* are unit vectors, so |cos| <= 1 and margin >= 1 rejects every row
        if not 0.0 <= self.margin < 1.0:
            raise ConfigError("margin must be in [0, 1)")


def synthetic_samples(spec: SyntheticSpec) -> ds.Rows:
    """Rows drawn, normalised and scored as blocks, in the rng order of one
    row at a time: a row's indices (sparse rows), its normals, then its
    noise (ridge). Classification draws blocks until `n_samples` rows pass
    the margin; a rejected row consumes its draws and no line number."""
    nnz = spec.nnz or spec.d
    ridge = spec.kind == "ridge"
    rng = np.random.default_rng(spec.seed)
    w = rng.normal(size=spec.d)
    w /= np.linalg.norm(w)
    blocks, need = [], spec.n_samples
    while need:
        if nnz < spec.d:
            IDX = np.empty((need, nnz), dtype=np.int64)
            B = np.empty((need, nnz + ridge))
            for r in range(need):
                IDX[r] = np.sort(rng.choice(spec.d, size=nnz, replace=False))
                B[r] = rng.normal(size=nnz + ridge)
        else:
            IDX = np.broadcast_to(np.arange(spec.d, dtype=np.int64), (need, spec.d))
            B = rng.normal(size=(need, nnz + ridge))
        V = B[:, :nnz]
        V = V / np.sqrt(ds.row_dots(V, V))[:, None]
        score = ds.row_dots(V, w[IDX])
        if ridge:
            y = score + spec.noise * B[:, nnz]
        else:
            keep = np.flatnonzero(np.abs(score) >= spec.margin)
            IDX, V, y = IDX[keep], V[keep], np.where(score[keep] > 0, 1.0, -1.0)
        blocks.append((IDX, V, y))
        need -= len(y)
    IDX, V, y = (np.concatenate(b) for b in zip(*blocks))
    X = sp.csr_array((V.ravel(), IDX.ravel(), np.arange(0, V.size + 1, nnz)),
                     shape=(spec.n_samples, spec.d))
    return ds.Rows(X, y, np.arange(spec.n_samples))


@dataclass
class Problem:
    """The shards and the sample matrix that wraps their rows. The per-sample
    operators `ops`, on one-row views, are built on first read, which only
    the per-node reference oracle (engine = generic) makes."""

    family: str
    shards: ds.Shards
    lam: float
    dim: int
    samples: SampleMatrix

    @functools.cached_property
    def ops(self) -> list[list[OperatorSpec]]:
        S, ptr = self.samples, self.samples.X.indptr
        ops = [make_operator(self.family, ds.Sample(S.X.indices[a:b], S.X.data[a:b], y),
                             self.lam, S.d, S.p) for a, b, y in zip(ptr, ptr[1:], S.y.tolist())]
        return [ops[a:a + q] for a, q in zip(S.starts, self.shards.sizes)]

    @property
    def n_nodes(self) -> int:
        return self.shards.n_nodes


def build_problem(shards: ds.Shards, family: str, lam: float) -> Problem:
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    p = shards.p if family == "auc" else None
    samples = SampleMatrix.from_shards(family, shards, p)
    if family in ("logistic", "auc"):
        bad = np.flatnonzero(np.abs(samples.y) != 1.0)
        if len(bad):
            raise ConfigError(f"{family} needs labels in {{-1,+1}} "
                              f"(line {shards.line_no[bad[0]]})")
    if family == "auc" and not (0.0 < shards.p < 1.0):
        raise ConfigError("auc needs both classes present")
    dim = shards.d + 3 if family == "auc" else shards.d
    return Problem(family, shards, lam, dim, samples)


def global_operator(problem: Problem):
    """The root-finding target: sum_n (1/q_n) sum_i B_{n,i}(z) + N*lam*z.

    Evaluated on the stacked sample matrix, each row weighted by its node's
    1/q_n. A (dim, k) block z gives F at each of its k columns, with one
    product by X and one by its transpose for the whole block."""
    S, N = problem.samples, problem.n_nodes

    def apply(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        # row_terms takes one row of margins and one auc tail per column
        coef, tails = S.row_terms((S.X @ z[:S.d]).T, z[S.d:].T[..., None, :])
        out = (N * problem.lam) * z
        out[:S.d] += S.XT @ (S.weight * coef).T
        if tails is not None:
            out[S.d:] += (S.weight @ tails).T
        return out

    return apply


def reference_solution(problem: Problem, tol: float = 1e-12,
                       max_iters: int = 100) -> tuple[np.ndarray, float]:
    """High-accuracy root of the global operator plus residual certificate.

    Ridge and auc operators are affine, so the exact root comes from
    probing F at 0 and at every unit vector, all as one block [0 | I], and
    a single linear solve; logistic uses damped Newton with the Jacobian
    X' diag(w sigma(1 - sigma)) X + N lam I.
    """
    dim = problem.dim
    F = global_operator(problem)
    if problem.family in ("ridge", "auc"):
        FE = F(np.eye(dim, dim + 1, 1))
        z = np.linalg.solve(FE[:, 1:] - FE[:, :1], -FE[:, 0])
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
            J = (S.XT @ (curv @ S.X)).toarray() + (N * problem.lam) * np.eye(dim)
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
        if self.family not in FAMILIES:
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
    comm_per_round: list[int] | None = None  # each node's largest one-round payload
    received_doubles: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Lyapunov diagnostic


class LyapunovTracker:
    """H^t of the convergence analysis:
    ||Z^t - Z*||^2_Wt + ||Q^t - Q*||^2 + c * D^t, with Q^t the running sum of
    U Z^k, U = (I-W)^{1/2}, Q* = -alpha U^+ B(Z*), c = q/(96 L^2), and D^t
    the table-vs-optimum discrepancy sum_n (2/q_n) sum_i |phi - B_{n,i}(z*)|^2.

    The engine hands over its table after each round: the per-node tables
    (a list of `NodeState`) or the `BatchedTable` of the batched steps.
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
        self.problem = problem
        q = problem.shards.q_min
        self.c = q / (96.0 * L * L)
        self.sum_Z: np.ndarray | None = None
        self.history: list[tuple[int, float]] = []

    @functools.cached_property
    def node_targets(self) -> list[list[SparseVec]]:
        """B_{n,i}(z*) per node and sample, in the per-node tables' form."""
        return [[eval_component(op, self.z_star) for op in ops_n]
                for ops_n in self.problem.ops]

    @functools.cached_property
    def row_targets(self) -> tuple[np.ndarray, np.ndarray | None]:
        """B_i(z*) per sample row, in the batched table's form."""
        S = self.problem.samples
        z = self.z_star
        return S.row_terms(S.X @ z[:S.d], z[S.d:] if S.family == "auc" else None)

    def table_term(self, table: list[NodeState] | BatchedTable) -> float:
        """D^t of the engine's table."""
        if isinstance(table, BatchedTable):
            return table.distance_to(*self.row_targets)
        return sum((2.0 / st.q) * st.table.distance_to(tg)
                   for st, tg in zip(table, self.node_targets))

    def update(self, t: int, Z: np.ndarray, table: list[NodeState] | BatchedTable) -> None:
        self.sum_Z = Z.copy() if self.sum_Z is None else self.sum_Z + Z
        if t % self.every:
            return
        dZ = Z - self.z_star
        term_z = float(np.sum(dZ * (self.Wt @ dZ)))
        dQ = self.U @ self.sum_Z - self.Q_star
        term_q = float(np.sum(dQ * dQ))
        self.history.append((t, term_z + term_q + self.c * self.table_term(table)))


# ---------------------------------------------------------------------------
# engines


def _run_dense_generic(states: list[NodeState], mix: MixingMatrix, rounds: int,
                       variant: str, on_round) -> np.ndarray:
    """The per-node reference oracle for dsba, dsa and pointsaga, run only
    under engine = generic, on the float64 mixing form: W Z at round 0, then
    Wt(2 Z^t - Z^{t-1}). Point-SAGA is the N = 1 case, W = Wt = [[1.0]]."""
    step = dsa_node_step if variant == "dsa" else dsba_node_step
    Z = np.stack([s.z for s in states])
    Zp = Z.copy()
    for t in range(rounds):
        mixed_all = mix.W @ Z if t == 0 else mix.Wt @ (2.0 * Z - Zp)
        Znew = np.empty_like(Z)
        for n, state in enumerate(states):
            Znew[n], _, _ = step(state, mixed_all[n])
        Zp, Z = Z, Znew
        if on_round(t, Z, states):
            break
    return Z


def _run_extra(problem: Problem, mix: MixingMatrix, rounds: int, alpha: float,
               z0: np.ndarray, on_round) -> np.ndarray:
    samples, lam = problem.samples, problem.lam
    Z = np.tile(z0, (problem.n_nodes, 1))
    S = np.zeros(Z.shape)
    for t in range(rounds):
        Z = extra_round(Z, S, local_mean_operator(samples, Z, lam), mix.Wt, alpha)
        if on_round(t, Z):
            break
    return Z


def _run_batched(table: BatchedTable, mix: MixingMatrix, Z0: np.ndarray, rounds: int,
                 alpha: float, lam: float, variant: str, on_round) -> np.ndarray:
    """Dense engine for dsba, dsa and Point-SAGA on every family: all nodes
    take one float64 array round (`BatchedTable.step`) on the product Wt Z."""
    Z = Z0
    for t in range(rounds):
        Z, _ = table.step(Z, mix.Wt @ Z, alpha, lam, variant)
        if on_round(t, Z, table):
            break
    return Z


# ---------------------------------------------------------------------------
# run


def _load_shards(config: RunConfig) -> ds.Shards:
    rows = (synthetic_samples(config.synthetic) if config.dataset_path is None
            else ds.normalize_rows(ds.read_libsvm(config.dataset_path)))
    return ds.partition(rows, config.n_nodes, config.seed)


def _pick_engine(config: RunConfig) -> str:
    """The engine label: "extra", EXTRA's own full-activation loop; "fast",
    the batched round, under engine = auto and for every sparse run;
    "generic", the per-node reference oracle, under engine = generic."""
    if config.variant == "extra":
        return "extra"
    return "fast" if config.comm == "sparse" or config.engine == "auto" else "generic"


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
    L = float(lipschitz_bound(problem.samples, lam).max())
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

    # doubles the busiest node receives per dense round: degree times dim
    dense_round_max = 0.0 if config.n_nodes == 1 else adjacency.sum(axis=1).max() * problem.dim

    def c_max_at(t: int) -> int:
        if net is not None:
            return int(net.received_doubles().max())
        return int(dense_round_max * (t + 1))

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

    tracker: LyapunovTracker | None = None
    if config.track_lyapunov:
        tracker = LyapunovTracker(mix, problem, z_star, alpha, L,
                                  every=config.lyapunov_every)

    stop = config.stop_subopt

    def on_round(t: int, Z: np.ndarray, table=None) -> bool:
        if trajectory is not None:
            trajectory.append(Z.copy())
        if tracker is not None:
            tracker.update(t + 1, Z, table)
        last = t + 1 == config.rounds
        if (t + 1) % metric_every == 0 or last:
            record(t, Z)
            if stop is not None and metrics.rows[-1].subopt <= stop:
                return True
        return False

    engine = _pick_engine(config)

    if engine == "extra":
        Z_final = _run_extra(problem, mix, config.rounds, alpha, z0, on_round)
    else:
        # every engine's table starts anchored at Z0, and gives round 0's entry
        table = ([make_node(n, ops_n, alpha, lam, z0, config.seed)
                  for n, ops_n in enumerate(problem.ops)] if engine == "generic"
                 else BatchedTable(problem.samples, Z0, config.seed))
        if tracker is not None:
            tracker.update(0, Z0, table)
        if engine == "generic":
            Z_final = _run_dense_generic(table, mix, config.rounds, config.variant,
                                         on_round)
        elif net is None:  # Point-SAGA is dsba on one node
            Z_final = _run_batched(table, mix, Z0, config.rounds, alpha, lam,
                                   "dsa" if config.variant == "dsa" else "dsba", on_round)
        else:
            Z_final, _ = run_sparse(table, mix, Z0, config.rounds, alpha=alpha, lam=lam,
                                    variant=config.variant, on_round=on_round, net=net)

    manifest = {
        "config": asdict(config),
        "engine": engine,
        "alpha": alpha,
        "lambda": lam,
        "lipschitz": L,
        "gamma": mix.gamma,
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
        manifest["traffic"] = traffic_summary(net)
    return RunResult(
        config=config, metrics=metrics, z_final=Z_final, z_star=z_star,
        z_star_residual=z_resid, alpha=alpha, lam=lam, mix=mix, problem=problem,
        manifest=manifest,
        lyapunov=tracker.history if tracker else None,
        trajectory=trajectory,
        comm_per_round=net.max_round_values.tolist() if net is not None else None,
        received_doubles=net.received_doubles() if net is not None else None,
    )


def manifest_json(result: RunResult) -> str:
    return json.dumps(result.manifest, indent=2, sort_keys=True)
