import json

import numpy as np
import pytest

from dsba.algorithms import extra_round, local_mean_operator
from dsba.operators import COUNTERS, eval_component, reset_counters
from dsba.simulator import (
    ConfigError,
    MetricsLog,
    MetricsRow,
    RunConfig,
    SyntheticSpec,
    auc_score,
    average_ranks,
    build_problem,
    global_operator,
    manifest_json,
    objective,
    reference_solution,
    run,
    synthetic_samples,
)
from dsba.dataset import partition


def _spec(**kw):
    base = dict(kind="ridge", d=8, n_samples=40, noise=0.1, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_synthetic_ridge_samples():
    samples = synthetic_samples(_spec())
    assert len(samples) == 40
    for s in samples:
        assert np.isclose(np.linalg.norm(s.values), 1.0)


def test_synthetic_classification_margin():
    spec = _spec(kind="classification", margin=0.2, n_samples=30)
    samples = synthetic_samples(spec)
    assert all(s.label in (-1.0, 1.0) for s in samples)


def test_synthetic_sparsity():
    samples = synthetic_samples(_spec(nnz=3))
    assert all(s.nnz == 3 for s in samples)


def test_synthetic_rejects_bad_kind():
    with pytest.raises(ConfigError):
        synthetic_samples(_spec(kind="poisson"))


def test_reference_solution_is_root_of_global_operator():
    for family in ("ridge", "logistic"):
        spec = _spec(kind="ridge" if family == "ridge" else "classification",
                     margin=0.05)
        shards = partition(synthetic_samples(spec), 4, seed=0, d=8)
        problem = build_problem(shards, family, lam=0.1)
        z_star, resid = reference_solution(problem)
        assert resid < 1e-10
        assert np.linalg.norm(global_operator(problem)(z_star)) < 1e-9


def test_objective_minimized_at_reference():
    spec = _spec()
    shards = partition(synthetic_samples(spec), 2, seed=0, d=8)
    problem = build_problem(shards, "ridge", lam=0.1)
    z_star, _ = reference_solution(problem)
    rng = np.random.default_rng(0)
    f_star = objective(problem, z_star)
    for _ in range(10):
        assert objective(problem, z_star + 0.1 * rng.standard_normal(8)) > f_star


def test_auc_score_perfect_and_reversed():
    X = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([1.0, 1.0, -1.0])
    w = np.array([1.0])
    assert auc_score(w, X, y) == 1.0
    assert auc_score(-w, X, y) == 0.0


def test_average_ranks_match_scipy_with_ties():
    from scipy.stats import rankdata

    rng = np.random.default_rng(3)
    for n, levels in [(1, 1), (2, 1), (7, 2), (300, 5), (1000, 40)]:
        x = rng.integers(levels, size=n).astype(np.float64)
        assert np.array_equal(average_ranks(x), rankdata(x))
    x = rng.standard_normal(200)
    assert np.array_equal(average_ranks(x), rankdata(x))


def test_auc_score_ties_count_half_and_nan_propagates():
    X = np.array([[1.0], [1.0], [0.0], [1.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    # positives beat the 0.0 negative and tie the 1.0 one: (2 + 2 * 0.5) / 4
    assert auc_score(np.array([1.0]), X, y) == 0.75
    assert np.isnan(auc_score(np.array([np.nan]), X, y))


def test_build_problem_rejects_bad_labels():
    samples = synthetic_samples(_spec())  # regression labels
    shards = partition(samples, 2, seed=0, d=8)
    with pytest.raises(ConfigError):
        build_problem(shards, "logistic", lam=0.1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(variant="sgd"),
        dict(family="hinge"),
        dict(comm="gossip"),
        dict(engine="gpu"),
        dict(rounds=-1),
        dict(n_nodes=0),
        dict(variant="pointsaga", n_nodes=2),
        dict(comm="sparse", variant="extra"),
        dict(tau_scale=0.5),
        dict(track_lyapunov=True, variant="extra"),
        dict(synthetic=None),
        dict(engine="fast"),
        dict(alpha=-0.1),
        dict(alpha=0.0),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(lam=-0.5),
        dict(lam=float("nan")),
        dict(lam=float("inf")),
        dict(metric_every=0),
        dict(lyapunov_every=0),
    ],
)
def test_config_validation_rejects(kw):
    base = dict(synthetic=_spec(), rounds=10)
    base.update(kw)
    with pytest.raises(ConfigError):
        RunConfig(**base).validate()


def test_zero_rounds_logs_initialization_row():
    cfg = RunConfig(synthetic=_spec(), n_nodes=2, topology="complete",
                    rounds=0, seed=0)
    result = run(cfg)
    assert len(result.metrics.rows) == 1
    assert result.metrics.final.subopt == 1.0
    assert result.metrics.final.round == 0


def test_consensus_start_at_optimum_stays_there():
    # N=1, z0 = z*, table anchored at z*: the iteration is stationary
    spec = _spec(n_samples=20)
    shards = partition(synthetic_samples(spec), 1, seed=0, d=8)
    problem = build_problem(shards, "ridge", lam=0.1)
    z_star, _ = reference_solution(problem)
    from dsba.algorithms import dsba_node_step, make_node

    node = make_node(0, problem.ops[0], alpha=0.05, lam=0.1, z0=z_star, seed=0)
    for t in range(200):
        # self-loop mixing input, W = Wt = [[1]]
        dsba_node_step(node, node.z if t == 0 else 2.0 * node.z - node.z_prev)
    assert np.linalg.norm(node.z - z_star) <= 1e-12


@pytest.mark.parametrize("n_samples", [40, 39], ids=["equal", "unequal"])
@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_fast_engine_matches_generic(family, variant, n_samples):
    # 39 samples on 4 nodes gives shards of 10, 10, 10 and 9
    kind = "ridge" if family == "ridge" else "classification"
    spec = _spec(kind=kind, d=10, n_samples=n_samples, margin=0.05)
    common = dict(family=family, variant=variant, n_nodes=4, topology="ring",
                  synthetic=spec, lam=0.05, rounds=200, seed=3, metric_every=50)
    fast = run(RunConfig(engine="auto", **common))
    generic = run(RunConfig(engine="generic", **common))
    assert (fast.manifest["engine"], generic.manifest["engine"]) == ("fast", "generic")
    assert len({len(ops) for ops in fast.problem.ops}) == (1 if n_samples == 40 else 2)
    assert np.max(np.abs(fast.z_final - generic.z_final)) < 1e-10
    assert fast.manifest["counters"] == generic.manifest["counters"]


@pytest.mark.parametrize("kw,engine", [
    (dict(), "fast"),
    (dict(variant="dsa"), "fast"),
    (dict(family="logistic"), "fast"),
    (dict(family="auc", variant="dsa"), "fast"),
    (dict(n_samples=39), "fast"),
    (dict(engine="generic"), "generic"),
    (dict(comm="sparse"), "generic"),
    (dict(variant="extra"), "generic"),
    (dict(track_lyapunov=True), "generic"),
    (dict(variant="pointsaga", n_nodes=1), "generic"),
])
def test_engine_choice(kw, engine):
    # auto picks the batched engine for dense dsba/dsa on every family and
    # shard layout; the per-node loop keeps everything else
    kw = dict(kw)
    family = kw.setdefault("family", "ridge")
    spec = _spec(kind="ridge" if family == "ridge" else "classification",
                 n_samples=kw.pop("n_samples", 40), margin=0.05)
    cfg = RunConfig(synthetic=spec, **{"n_nodes": 4, "topology": "complete",
                                       "rounds": 3, "seed": 0, **kw})
    assert run(cfg).manifest["engine"] == engine


def test_metrics_csv_roundtrip():
    log = MetricsLog(rows=[MetricsRow(0, 0.0, 1.0, 0.5, 0, 0.0),
                           MetricsRow(10, 1.0, 0.1, 0.4, 120, 0.5)])
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == MetricsLog.CSV_HEADER
    assert len(lines) == 3
    assert log.passes_to(0.5) == 1.0
    assert log.passes_to(1e-9) is None


def test_run_manifest_and_json():
    cfg = RunConfig(synthetic=_spec(), n_nodes=3, topology="ring",
                    rounds=20, seed=1)
    result = run(cfg)
    m = result.manifest
    assert m["q_min"] >= 1
    assert m["alpha"] == result.alpha
    parsed = json.loads(manifest_json(result))
    assert parsed["lambda"] == result.lam


def test_run_trajectory_recording():
    cfg = RunConfig(synthetic=_spec(), n_nodes=2, topology="complete",
                    rounds=15, seed=2, record_trajectory=True)
    result = run(cfg)
    assert result.trajectory is not None
    assert len(result.trajectory) == 16  # includes the initial matrix
    assert result.trajectory[0].shape == (2, 8)


def test_run_subopt_decreases():
    cfg = RunConfig(synthetic=_spec(n_samples=60), n_nodes=3, topology="complete",
                    lam=0.1, rounds=2000, seed=4, metric_every=200)
    result = run(cfg)
    rows = result.metrics.rows
    assert rows[-1].subopt < 1e-3
    assert rows[-1].subopt < rows[0].subopt


def test_sparse_run_matches_dense_end_to_end():
    spec = _spec(d=10, n_samples=30)
    common = dict(family="ridge", variant="dsba", engine="generic", n_nodes=3,
                  topology="ring", synthetic=spec, lam=0.05, rounds=80, seed=5)
    z_dense = run(RunConfig(comm="dense", **common)).z_final
    z_sparse = run(RunConfig(comm="sparse", **common)).z_final
    assert np.max(np.abs(z_dense - z_sparse)) < 1e-10


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("topology,n_nodes", [("star", 6), ("path", 8), ("random", 20)])
def test_sparse_matches_dense_with_mixed_eccentricities(variant, topology, n_nodes):
    # observers of one graph hold memories of different depths
    common = dict(family="ridge", variant=variant, engine="generic", n_nodes=n_nodes,
                  topology=topology, edge_prob=0.2,
                  synthetic=_spec(d=12, n_samples=6 * n_nodes, nnz=4), lam=0.05,
                  rounds=120, seed=9, compute_score=False)
    dense = run(RunConfig(comm="dense", **common))
    sparse = run(RunConfig(comm="sparse", **common))
    assert len(set(sparse.mix.eccentricities.tolist())) > 1
    assert np.max(np.abs(dense.z_final - sparse.z_final)) < 1e-9


def test_sparse_manifest_summarises_traffic():
    from dsba.sparsecomm import bootstrap_rounds

    common = dict(family="ridge", variant="dsba", engine="generic", n_nodes=5,
                  topology="path", synthetic=_spec(d=12, n_samples=30, nnz=3),
                  lam=0.05, rounds=40, seed=1)
    res = run(RunConfig(comm="sparse", **common))
    traffic = res.manifest["traffic"]
    payload = np.array(traffic["payload_values"])
    assert np.array_equal(payload + traffic["dense_warmup"], res.received_doubles)
    assert np.array_equal(payload, sum(res.comm_per_round.values()))
    # every packet carries as many indices as values, plus two tags
    tags = np.array(traffic["metadata"]) - payload
    assert np.all(tags > 0) and np.all(tags % 2 == 0)
    boot = bootstrap_rounds(res.mix)
    assert traffic["max_round_payload"] == max(
        int(v.max()) for t, v in res.comm_per_round.items() if t > boot)
    assert traffic["max_round_payload"] > 0
    assert "traffic" not in run(RunConfig(comm="dense", **common)).manifest
    json.loads(manifest_json(res))


def test_lyapunov_tracked_rounds():
    cfg = RunConfig(synthetic=_spec(n_samples=60), n_nodes=3, topology="complete",
                    engine="generic", lam=0.1, rounds=50, seed=6,
                    track_lyapunov=True, lyapunov_every=10)
    result = run(cfg)
    ts = [t for t, _ in result.lyapunov]
    assert ts == [0, 10, 20, 30, 40, 50]
    hs = [h for _, h in result.lyapunov]
    assert all(h >= 0.0 for h in hs)


def test_stop_subopt_early_exit():
    cfg = RunConfig(synthetic=_spec(n_samples=60), n_nodes=3, topology="complete",
                    lam=0.1, rounds=100000, seed=7, metric_every=50,
                    stop_subopt=1e-4)
    result = run(cfg)
    assert result.metrics.final.subopt <= 1e-4
    assert result.metrics.final.round < 100000


LIBSVM_TINY = """\
0.5 1:0.3 2:-1.2
-0.1 2:0.4 4:1.0
1.2 1:1.0 3:0.5 5:-0.2
0.0 3:2.0
-0.7 1:-0.5 4:0.6
0.3 2:0.8 5:1.1
0.9 1:0.2 3:-0.3 4:0.9
-1.1 5:1.4
0.4 1:1.5 2:0.1
-0.2 3:0.7 7:0.6
"""


def _unequal_problem(family, nnz):
    # 23 samples on 4 nodes: shard sizes 6, 6, 6, 5
    kind = "ridge" if family == "ridge" else "classification"
    spec = _spec(kind=kind, d=9, n_samples=23, nnz=nnz, seed=1)
    shards = partition(synthetic_samples(spec), 4, seed=0, d=9)
    return build_problem(shards, family, lam=0.07)


def _per_sample_mean(ops, z, lam):
    """Oracle: (1/q) sum_i B_i(z) + lam*z from per-sample evaluations."""
    out = lam * z
    for op in ops:
        eval_component(op, z).add_into(out, 1.0 / len(ops))
    return out


@pytest.mark.parametrize("nnz", [None, 3], ids=["dense", "sparse"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_batched_operators_match_per_sample_oracle(family, nnz):
    problem = _unequal_problem(family, nnz)
    lam = problem.lam
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((4, problem.dim))
    reset_counters()
    G = local_mean_operator(problem.samples, Z, lam)
    assert COUNTERS["component_evals"] == 23
    for n, ops in enumerate(problem.ops):
        assert np.max(np.abs(G[n] - _per_sample_mean(ops, Z[n], lam))) <= 1e-12

    z = Z[0]
    expect = sum(_per_sample_mean(ops, z, lam) for ops in problem.ops)
    assert np.max(np.abs(global_operator(problem)(z) - expect)) <= 1e-12
    if family == "auc":
        return
    if family == "ridge":
        def loss(m, y):
            return 0.5 * (m - y) ** 2
    else:
        def loss(m, y):
            return np.logaddexp(0.0, -y * m)
    f = sum(sum(loss(op.sample.values @ z[op.sample.indices], op.sample.label)
                for op in ops) / len(ops) for ops in problem.ops)
    f += 0.5 * 4 * lam * float(z @ z)
    assert abs(objective(problem, z) - f) <= 1e-12 * max(1.0, abs(f))


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_extra_engine_matches_per_sample_loop(family):
    kind = "ridge" if family == "ridge" else "classification"
    spec = _spec(kind=kind, d=9, n_samples=23, nnz=4, seed=2)
    result = run(RunConfig(family=family, variant="extra", n_nodes=4,
                           topology="ring", synthetic=spec, rounds=200, seed=0,
                           compute_score=False))
    problem, mix = result.problem, result.mix

    def G_of(Z):
        return np.stack([_per_sample_mean(ops, Z[n], problem.lam)
                         for n, ops in enumerate(problem.ops)])

    Z = np.zeros((4, problem.dim))
    G = G_of(Z)
    Zp, Gp = Z, G
    for t in range(200):
        Znew = extra_round(Z, Zp, G, Gp, mix.W, mix.Wt, result.alpha, t)
        Zp, Z = Z, Znew
        Gp, G = G, G_of(Z)
    assert np.max(np.abs(result.z_final - Z)) <= 1e-10


@pytest.mark.parametrize("variant", ["dsba", "extra"])
def test_run_on_libsvm_file(tmp_path, variant):
    path = tmp_path / "tiny.libsvm"
    path.write_text(LIBSVM_TINY)
    result = run(RunConfig(family="ridge", variant=variant, dataset_path=str(path),
                           n_nodes=3, topology="ring", rounds=200, seed=0))
    # d comes from the largest index in the file
    assert result.problem.samples.X.shape == (10, 7)
    assert result.z_star_residual <= 1e-10
    assert result.metrics.final.subopt < result.metrics.rows[0].subopt


def test_run_counters_reset_per_run():
    cfg = RunConfig(synthetic=_spec(), n_nodes=3, topology="ring", rounds=30,
                    seed=1)
    first = run(cfg).manifest["counters"]
    assert first["component_evals"] > 0
    assert run(cfg).manifest["counters"] == first


def test_dense_dsba_counts_one_resolve_per_node_round():
    common = dict(synthetic=_spec(), n_nodes=4, topology="ring", rounds=30, seed=1)
    fast = run(RunConfig(engine="auto", **common)).manifest
    generic = run(RunConfig(engine="generic", **common)).manifest
    assert (fast["engine"], generic["engine"]) == ("fast", "generic")
    assert generic["counters"]["resolves"] == 4 * 30
    assert fast["counters"] == generic["counters"]
