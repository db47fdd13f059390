import json

import numpy as np
import pytest

from dsba.dataset import Sample
from dsba.simulator import (
    ConfigError,
    MetricsLog,
    MetricsRow,
    RunConfig,
    SyntheticSpec,
    auc_score,
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
    samples = [
        Sample(np.array([0]), np.array([1.0]), 1.0),
        Sample(np.array([0]), np.array([2.0]), 1.0),
        Sample(np.array([0]), np.array([-1.0]), -1.0),
    ]
    w = np.array([1.0])
    assert auc_score(w, samples) == 1.0
    assert auc_score(-w, samples) == 0.0


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
        dict(newton_iters=0),
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


def test_fast_engine_matches_generic():
    spec = _spec(d=10, n_samples=40)
    common = dict(family="ridge", n_nodes=4, topology="ring", synthetic=spec,
                  lam=0.05, rounds=200, seed=3, metric_every=50)
    for variant in ("dsba", "dsa"):
        fast = run(RunConfig(engine="auto", variant=variant, **common))
        assert fast.manifest["engine"] == "fast"
        z_gen = run(RunConfig(engine="generic", variant=variant, **common)).z_final
        assert np.max(np.abs(fast.z_final - z_gen)) < 1e-10


def test_engine_auto_falls_back_to_generic_for_logistic():
    spec = _spec(kind="classification", margin=0.05)
    cfg = RunConfig(family="logistic", synthetic=spec, n_nodes=2,
                    topology="complete", rounds=5, seed=0)
    result = run(cfg)
    assert result.manifest["engine"] == "generic"


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
