"""Acceptance suite: end-to-end behavioral guarantees of the simulator.

Each test pins down one externally observable property at an explicit
tolerance.  Parameters were calibrated so that passing runs have at
least an order of magnitude of margin; failures here indicate a real
regression, not noise.
"""

import json
import time

import numpy as np
import pytest

from dsba import (
    MixingMatrix,
    RunConfig,
    SyntheticSpec,
    auc_score,
    build_mixing,
    build_problem,
    check_mixing_conditions,
    dsba_node_step,
    dsa_node_step,
    make_adjacency,
    make_node,
    make_operator,
    partition,
    reference_solution,
    resolve_regularized,
    resolvent,
    run,
    synthetic_samples,
)
from dsba.operators import eval_component, eval_operator
from dsba.sparse import SparseVec


def _rand_sample_dense(rng, d):
    from dsba.dataset import Sample

    idx = np.arange(d)
    val = rng.standard_normal(d)
    val /= np.linalg.norm(val)
    y = 1.0 if rng.random() < 0.5 else -1.0
    return Sample(indices=idx, values=val, label=y)


# ---------------------------------------------------------------------------
# 1. Mixing matrices satisfy their defining conditions on random graphs.
# ---------------------------------------------------------------------------


def test_mixing_matrix_conditions_random_graphs():
    t0 = time.time()
    count = 0
    seed = 0
    for n in range(3, 13):
        for p in (0.3, 0.4, 0.6):
            for rep in range(2):
                if count >= 50:
                    break
                A = make_adjacency("erdos_renyi", n, p=p, seed=seed)
                seed += 1
                mix = build_mixing(A)
                W, Wt = mix.W, mix.Wt
                # symmetry and rows summing to one, at tight tolerance
                assert np.max(np.abs(W - W.T)) <= 1e-12
                assert np.max(np.abs(Wt - Wt.T)) <= 1e-12
                assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
                assert np.max(np.abs(Wt.sum(axis=1) - 1.0)) <= 1e-12
                # sparsity pattern respects the graph
                off = ~np.eye(n, dtype=bool)
                assert np.all((np.abs(W[off]) > 0) <= (A[off] > 0))
                # spectral conditions
                eigW = np.linalg.eigvalsh(W)
                assert eigW.min() >= -1e-10
                eigWt = np.linalg.eigvalsh(Wt)
                assert eigWt.min() >= 0.5 - 1e-10
                assert np.max(np.abs(Wt - (W + np.eye(n)) / 2.0)) <= 1e-12
                assert mix.gamma > 0
                checks = check_mixing_conditions(mix)
                assert all(checks.values()), checks
                count += 1
    assert count == 50
    assert time.time() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. Resolvents satisfy the defining fixed-point identity for every family.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,tol", [("ridge", 1e-9), ("logistic", 1e-10), ("auc", 1e-9)])
def test_resolvent_fixed_point_identity(family, tol):
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 12))
        dim = d + 3 if family == "auc" else d
        sample = _rand_sample_dense(rng, d)
        lam = float(rng.uniform(0.01, 1.0))
        alpha = float(rng.uniform(0.01, 2.0))
        p = float(rng.uniform(0.2, 0.8)) if family == "auc" else None
        op = make_operator(family, sample, lam, d, p=p)
        z = rng.standard_normal(dim)
        # component resolvent: u + alpha * B_i(u) recovers z
        u = resolvent(op, alpha, z)
        res = u + alpha * eval_component(op, u).to_dense() - z
        worst = max(worst, float(np.max(np.abs(res))))
        # regularized resolvent: u + alpha * (B_i(u) + lam * u) recovers z
        u = resolve_regularized(op, alpha, z)
        res = u + alpha * eval_operator(op, u) - z
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= tol, worst
    assert time.time() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. Algebraic invariants of the node update.
# ---------------------------------------------------------------------------


def test_history_table_summation_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(3, 10))
        q = int(rng.integers(2, 12))
        samples = [_rand_sample_dense(rng, d) for _ in range(q)]
        lam = 0.1
        ops = [make_operator("ridge", s, lam, d) for s in samples]
        node = make_node(0, ops, alpha=0.1, lam=lam, z0=rng.standard_normal(d), seed=int(rng.integers(1 << 30)))
        # mutate the table a few times
        for _ in range(10):
            i = int(rng.integers(q))
            idx = node.table.lookup(i).idx
            new = SparseVec(idx, rng.standard_normal(d)[idx], d)
            node.table.update(i, new)
        total = np.zeros(d)
        for i in range(q):
            node.table.lookup(i).add_into(total, 1.0 / q)
        assert np.max(np.abs(total - node.table.phibar)) <= 1e-10


def test_node_step_back_substitution():
    # With no ridge term in the operator splitting (lam folded into the
    # component operators' own lam=0 case) the update satisfies an exact
    # linear identity relating consecutive iterates and table deltas.
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        d = int(rng.integers(3, 8))
        q = int(rng.integers(2, 8))
        samples = [_rand_sample_dense(rng, d) for _ in range(q)]
        alpha = float(rng.uniform(0.01, 0.5))
        ops = [make_operator("ridge", s, 0.0, d) for s in samples]
        node = make_node(0, ops, alpha=alpha, lam=0.0, z0=rng.standard_normal(d), seed=checked)
        # run a few warm-up steps against a synthetic mixed signal
        for _ in range(int(rng.integers(1, 5))):
            mixed = node.z + 0.1 * rng.standard_normal(d)
            dsba_node_step(node, mixed)
        mixed = node.z + 0.1 * rng.standard_normal(d)
        q_node = node.q
        delta_prev = node.delta_prev.to_dense()
        z_next, delta, _ = dsba_node_step(node, mixed)
        rhs = mixed + alpha * ((q_node - 1) / q_node * delta_prev - delta.to_dense())
        assert np.max(np.abs(z_next - rhs)) <= 1e-9
        checked += 1


def test_node_step_back_substitution_with_ridge():
    # With an explicit ridge weight lam > 0 the identity gains a
    # lam-proportional correction term.
    rng = np.random.default_rng(12)
    for trial in range(50):
        d, q = 5, 6
        samples = [_rand_sample_dense(rng, d) for _ in range(q)]
        alpha, lam = 0.2, 0.3
        ops = [make_operator("ridge", s, lam, d) for s in samples]
        node = make_node(0, ops, alpha=alpha, lam=lam, z0=rng.standard_normal(d), seed=1000 + trial)
        for _ in range(3):
            dsba_node_step(node, node.z + 0.1 * rng.standard_normal(d))
        mixed = node.z + 0.1 * rng.standard_normal(d)
        z_t = node.z.copy()
        delta_prev = node.delta_prev.to_dense()
        q_node = node.q
        z_next, delta, _ = dsba_node_step(node, mixed)
        rhs = mixed + alpha * ((q_node - 1) / q_node * delta_prev - delta.to_dense())
        rhs = rhs + alpha * lam * (z_t - z_next)
        assert np.max(np.abs(z_next - rhs)) <= 1e-9


# ---------------------------------------------------------------------------
# 4. Single-node degeneration: exact variance-reduced proximal point method.
# ---------------------------------------------------------------------------


def test_single_node_matches_pointsaga_bitwise():
    # run(variant="pointsaga", engine="generic") is the implicit update on a
    # self-loop: mixing input z^0 at round 0 and 2 z^t - z^{t-1} afterwards;
    # engine="auto" takes the batched dsba round, which stays within 1e-10
    rounds, seed = 600, 5
    for family in ("ridge", "logistic", "auc"):
        kind = "ridge" if family == "ridge" else "classification"
        spec = SyntheticSpec(kind=kind, d=8, n_samples=15, margin=0.05, seed=3)
        common = dict(family=family, variant="pointsaga", n_nodes=1,
                      topology="complete", synthetic=spec, rounds=rounds,
                      seed=seed, record_trajectory=True, track_lyapunov=True)
        result = run(RunConfig(engine="generic", **common))
        assert result.manifest["engine"] == "generic"
        assert len(result.trajectory) == rounds + 1

        problem = result.problem
        node = make_node(0, problem.ops[0], alpha=result.alpha, lam=result.lam,
                         z0=np.zeros(problem.dim), seed=seed)
        for t in range(rounds):
            if t == 0:
                mixed = 1.0 * node.z
            else:
                mixed = 1.0 * (2.0 * node.z - node.z_prev)
            z_next, _, _ = dsba_node_step(node, mixed)
            assert np.array_equal(result.trajectory[t + 1][0], z_next), (family, t)
        assert np.array_equal(result.z_final[0], node.z)

        fast = run(RunConfig(engine="auto", **common))
        assert fast.manifest["engine"] == "fast"
        gap = np.max(np.abs(np.array(fast.trajectory) - np.array(result.trajectory)))
        assert gap <= 1e-10, (family, gap)


def test_single_node_converges_within_pass_budget():
    q, d = 40, 5
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=q, noise=0.05, seed=9)
    samples = synthetic_samples(spec)
    shards = partition(samples, 1, seed=9)
    problem = build_problem(shards, "ridge", lam=0.1)
    z_star, _ = reference_solution(problem)
    cfg = RunConfig(
        family="ridge",
        variant="pointsaga",
        n_nodes=1,
        topology="complete",
        synthetic=spec,
        lam=0.1,
        rounds=50 * q,
        seed=9,
        metric_every=q,
    )
    result = run(cfg)
    dist = np.linalg.norm(result.z_final[0] - z_star) / max(np.linalg.norm(z_star), 1.0)
    assert dist <= 1e-6, dist
    assert result.metrics.final.effective_passes <= 50.0 + 1e-9


# ---------------------------------------------------------------------------
# 5. Sparse relay protocol reproduces the dense run exactly.
# ---------------------------------------------------------------------------


def _diamond_adjacency():
    A = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        A[i, j] = A[j, i] = 1.0
    return A


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("graph", ["complete3", "path4", "diamond4"])
def test_sparse_protocol_matches_dense(variant, graph):
    t0 = time.time()
    from dsba.algorithms import BatchedTable, local_mean_operator
    from dsba.sparsecomm import run_sparse

    if graph == "complete3":
        A = make_adjacency("complete", 3)
    elif graph == "path4":
        A = make_adjacency("path", 4)
    else:
        A = _diamond_adjacency()
    N = A.shape[0]
    mix = build_mixing(A)

    d, q_per = 50, 20
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=q_per * N, noise=0.1, seed=21)
    samples = synthetic_samples(spec)
    shards = partition(samples, N, seed=21)
    lam = 0.05
    problem = build_problem(shards, "ridge", lam=lam)
    L = max(
        max(float(np.linalg.norm(op.sample.values)) ** 2 + lam for op in ops)
        for ops in problem.ops
    )
    alpha = 1.0 / (24.0 * L)

    rounds = 300
    rng0 = np.random.default_rng(77)
    z0 = rng0.standard_normal((N, problem.dim))

    def fresh_states():
        return [
            make_node(n, problem.ops[n], alpha=alpha, lam=lam, z0=z0[n].copy(), seed=33)
            for n in range(N)
        ]

    # dense reference trajectory
    states = fresh_states()
    Z = np.stack([s.z for s in states])
    hist = [Z.copy()]
    step = {"dsba": dsba_node_step, "dsa": dsa_node_step}[variant]
    for t in range(rounds):
        if t == 0:
            mixed_all = mix.W @ Z
        else:
            Zp = np.stack([s.z_prev for s in states])
            mixed_all = mix.Wt @ (2.0 * Z - Zp)
        for n, s in enumerate(states):
            step(s, mixed_all[n])
        Z = np.stack([s.z for s in states])
        hist.append(Z.copy())

    Z_sparse, net = run_sparse(BatchedTable(problem.samples, z0, 33), mix, z0, rounds,
                               alpha=alpha, lam=lam, variant=variant)
    err = np.max(np.abs(Z_sparse - hist[-1]))
    assert err <= 1e-9, err
    assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 6. Linear convergence on a decentralized ridge problem.
# ---------------------------------------------------------------------------


def test_linear_convergence_ridge():
    t0 = time.time()
    N, d, q_per = 10, 100, 50
    Q = N * q_per
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=Q, noise=0.1, seed=6)
    cfg = RunConfig(
        family="ridge",
        variant="dsba",
        n_nodes=N,
        topology="erdos_renyi",
        edge_prob=0.4,
        graph_seed=6,
        synthetic=spec,
        lam=1.0 / (10.0 * Q),
        rounds=250_000,
        seed=6,
        metric_every=50,
        stop_subopt=1e-8,
        compute_score=False,
    )
    result = run(cfg)
    final = result.metrics.final
    assert final.subopt <= 1e-8, final.subopt
    # log-linear fit over the decaying mid-range
    rows = [r for r in result.metrics.rows if 1e-8 < r.subopt < 1e-1]
    xs = np.array([r.round for r in rows], dtype=float)
    ys = np.log(np.array([r.subopt for r in rows]))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert slope < 0
    assert r2 >= 0.95, r2
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. Pass-efficiency ordering against the non-incremental baselines.
# ---------------------------------------------------------------------------


def test_pass_efficiency_ordering():
    N, d, q_per = 10, 100, 50
    Q = N * q_per
    lam = 1.0 / (10.0 * Q)
    target = 1e-6
    wins = 0
    for seed in range(10):
        spec = SyntheticSpec(kind="ridge", d=d, n_samples=Q, noise=0.1, seed=seed)
        passes = {}
        for variant, rounds in (("dsba", 150_000), ("dsa", 150_000), ("extra", 2500)):
            cfg = RunConfig(
                family="ridge",
                variant=variant,
                n_nodes=N,
                topology="erdos_renyi",
                edge_prob=0.4,
                graph_seed=seed,
                synthetic=spec,
                lam=lam,
                rounds=rounds,
                seed=seed,
                metric_every=10,
                stop_subopt=target,
                compute_score=False,
            )
            result = run(cfg)
            p = result.metrics.passes_to(target)
            passes[variant] = np.inf if p is None else p
        if passes["dsba"] <= passes["dsa"] <= passes["extra"]:
            wins += 1
    assert wins >= 8, wins


# ---------------------------------------------------------------------------
# 8. Communication accounting: dense exactness and sparse savings.
# ---------------------------------------------------------------------------


def test_dense_communication_exact():
    N, d = 6, 30
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=N * 10, noise=0.1, seed=2)
    cfg = RunConfig(
        family="ridge",
        variant="dsba",
        comm="dense",
        engine="generic",
        n_nodes=N,
        topology="erdos_renyi",
        edge_prob=0.5,
        graph_seed=2,
        synthetic=spec,
        rounds=40,
        seed=2,
    )
    result = run(cfg)
    degrees = result.mix.adjacency.sum(axis=1)
    expected = float(degrees.max()) * d * 40
    assert result.metrics.final.c_max == expected


def test_sparse_communication_savings():
    _check_sparse_communication_savings(N=10)


def test_sparse_communication_savings_at_50_nodes():
    _check_sparse_communication_savings(N=50)


def test_sparse_round_payload_at_200_nodes():
    # the scale gate: a node receives at most one delta per other origin in
    # a round, so its largest one-round payload is (N - 1) nnz, not O(N d)
    N, d, nnz = 200, 200, 10
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=N * 20, nnz=nnz, noise=0.1, seed=7)
    res = run(RunConfig(family="ridge", variant="dsba", comm="sparse", n_nodes=N,
                        topology="erdos_renyi", edge_prob=0.05, graph_seed=7,
                        synthetic=spec, rounds=200, seed=7, compute_score=False))
    assert res.metrics.final.round == 200
    assert np.shape(res.comm_per_round) == (N,)
    assert max(res.comm_per_round) <= (N - 1) * nnz, max(res.comm_per_round)


def _check_sparse_communication_savings(N):
    d, nnz = 200, 10
    rho = nnz / d  # 0.05
    spec = SyntheticSpec(kind="ridge", d=d, n_samples=N * 20, nnz=nnz, noise=0.1, seed=7)
    rounds = 200
    results = {}
    for comm in ("dense", "sparse"):
        cfg = RunConfig(
            family="ridge",
            variant="dsba",
            comm=comm,
            engine="generic",
            n_nodes=N,
            topology="erdos_renyi",
            edge_prob=0.4,
            graph_seed=7,
            synthetic=spec,
            rounds=rounds,
            seed=7,
            metric_every=1,
        )
        results[comm] = run(cfg)
    sparse_res = results["sparse"]
    # per-node, per-round payload stays within the sparsity budget N * d * rho
    assert sparse_res.metrics.final.round == rounds
    largest = max(sparse_res.comm_per_round)
    assert largest <= N * d * rho, largest
    ratio = sparse_res.metrics.final.c_max / results["dense"].metrics.final.c_max
    assert ratio < 0.25, ratio


# ---------------------------------------------------------------------------
# 9. Pairwise ranking objective reaches perfect separation on separable data.
# ---------------------------------------------------------------------------


def test_auc_separable_classification():
    N, d, Q = 5, 20, 400
    spec = SyntheticSpec(kind="classification", d=d, n_samples=Q, margin=0.1, seed=17)
    cfg = RunConfig(
        family="auc",
        variant="dsba",
        n_nodes=N,
        topology="erdos_renyi",
        edge_prob=0.5,
        graph_seed=3,
        synthetic=spec,
        rounds=8000,
        seed=17,
        metric_every=100,
    )
    result = run(cfg)
    final = result.metrics.final
    assert final.effective_passes <= 100.0 + 1e-9
    assert final.score >= 0.99, final.score


def test_auc_score_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(3, 8))
        Q = int(rng.integers(10, 51))
        samples = [_rand_sample_dense(rng, d) for _ in range(Q)]
        labels = [s.label for s in samples]
        if all(y > 0 for y in labels) or all(y < 0 for y in labels):
            samples[0] = samples[0].__class__(
                indices=samples[0].indices,
                values=samples[0].values,
                label=-labels[0],
            )
        w = rng.standard_normal(d)
        fast = auc_score(w, np.stack([s.values for s in samples]),
                         np.array([s.label for s in samples]))
        scores = [float(w @ s.values) for s in samples]
        pos = [sc for sc, s in zip(scores, samples) if s.label > 0]
        neg = [sc for sc, s in zip(scores, samples) if s.label < 0]
        total = 0.0
        for a in pos:
            for b in neg:
                total += 1.0 if a > b else (0.5 if a == b else 0.0)
        brute = total / (len(pos) * len(neg))
        assert abs(fast - brute) <= 1e-12


# ---------------------------------------------------------------------------
# 10. Lyapunov energy decreases monotonically in the median over seeds.
# ---------------------------------------------------------------------------


def test_lyapunov_median_monotone():
    N, d, q_per = 10, 100, 50
    Q = N * q_per
    rounds = 400
    traces = []
    for seed in range(20):
        spec = SyntheticSpec(kind="ridge", d=d, n_samples=Q, noise=0.1, seed=seed)
        cfg = RunConfig(
            family="ridge",
            variant="dsba",
            engine="generic",
            n_nodes=N,
            topology="erdos_renyi",
            edge_prob=0.4,
            graph_seed=seed,
            synthetic=spec,
            lam=1.0 / (10.0 * Q),
            rounds=rounds,
            seed=seed,
            metric_every=rounds,
            track_lyapunov=True,
            compute_score=False,
        )
        result = run(cfg)
        ts = [t for t, _ in result.lyapunov]
        hs = [h for _, h in result.lyapunov]
        traces.append(hs)
        assert ts == list(range(0, rounds + 1, 10))
    median = np.median(np.array(traces), axis=0)
    assert np.all(np.diff(median) <= 0.0), median
