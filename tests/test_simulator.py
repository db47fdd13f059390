import json

import numpy as np
import pytest

from dsba.algorithms import local_mean_operator
from dsba.operators import COUNTERS, eval_component, lipschitz_bound, reset_counters
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
    set_up,
    synthetic_samples,
)
from dsba.dataset import Rows, partition


def _spec(**kw):
    base = dict(kind="ridge", d=8, n_samples=40, noise=0.1, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_synthetic_ridge_samples():
    rows = synthetic_samples(_spec())
    assert rows.Q == 40
    for values in np.split(rows.X.data, rows.X.indptr[1:-1]):
        assert np.isclose(np.linalg.norm(values), 1.0)


def test_synthetic_classification_margin():
    spec = _spec(kind="classification", margin=0.2, n_samples=30)
    rows = synthetic_samples(spec)
    assert all(label in (-1.0, 1.0) for label in rows.y)


def test_synthetic_sparsity():
    rows = synthetic_samples(_spec(nnz=3))
    assert all(np.diff(rows.X.indptr) == 3)


def test_synthetic_rejects_bad_kind():
    with pytest.raises(ConfigError):
        synthetic_samples(_spec(kind="poisson"))


@pytest.mark.parametrize("margin", [1.0, 1.5, -0.1, float("nan")])
def test_synthetic_rejects_margin_outside_unit_interval(margin):
    # unit rows and w* give |cos| <= 1: margin >= 1 would reject every row
    # forever, so the spec itself refuses it and no row is ever drawn
    with pytest.raises(ConfigError, match="margin"):
        SyntheticSpec(kind="classification", d=8, n_samples=5, margin=margin)


@pytest.mark.parametrize("kw", [dict(n_samples=0), dict(n_samples=-2),
                                dict(noise=float("nan")), dict(noise=float("inf")),
                                dict(nnz=0), dict(seed=-1)])
def test_synthetic_rejects_empty_data_and_non_finite_noise(kw):
    # zero rows used to fail deep in set-up, a NaN noise ran to a NaN
    # suboptimality, nnz = 0 gave dense rows and a negative seed failed in
    # numpy's generator
    with pytest.raises(ConfigError, match=next(iter(kw))):
        SyntheticSpec(kind="ridge", d=8, **kw)


def _per_row_samples(spec):
    """The generator one row at a time: the reference for the block draws."""
    nnz = spec.nnz or spec.d
    rng = np.random.default_rng(spec.seed)
    w = rng.normal(size=spec.d)
    w /= np.linalg.norm(w)
    samples = []
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
        samples.append((idx, val, float(y), len(samples)))
    return samples


@pytest.mark.parametrize("margin", [0.0, 0.2])
@pytest.mark.parametrize("nnz", [None, 3])
@pytest.mark.parametrize("kind", ["ridge", "classification"])
def test_block_generator_matches_per_row_draws_bitwise(kind, nnz, margin):
    for seed in range(20):
        spec = _spec(kind=kind, nnz=nnz, margin=margin, seed=seed)
        got = synthetic_samples(spec)
        want = _per_row_samples(spec)
        assert got.Q == len(want) == spec.n_samples
        ptr = got.X.indptr
        for k, (idx, val, label, line_no) in enumerate(want):
            indices = got.X.indices[ptr[k]:ptr[k + 1]]
            assert indices.dtype == np.int64 and np.array_equal(indices, idx)
            assert np.array_equal(got.X.data[ptr[k]:ptr[k + 1]], val)
            assert got.y[k] == label and got.line_no[k] == line_no


def test_reference_solution_is_root_of_global_operator():
    for family in ("ridge", "logistic"):
        spec = _spec(kind="ridge" if family == "ridge" else "classification",
                     margin=0.05)
        shards = partition(synthetic_samples(spec), 4, seed=0)
        problem = build_problem(shards, family, lam=0.1)
        z_star, resid = reference_solution(problem)
        assert resid < 1e-10
        assert np.linalg.norm(global_operator(problem)(z_star)) < 1e-9


def _per_column_probe(problem):
    """F at 0 and M = [F(e_j) - F(0)], one operator call per column: the
    reference for the block probe."""
    F = global_operator(problem)
    F0 = F(np.zeros(problem.dim))
    M = np.empty((problem.dim, problem.dim))
    e = np.zeros(problem.dim)
    for j in range(problem.dim):
        e[j] = 1.0
        M[:, j] = F(e) - F0
        e[j] = 0.0
    return M, F0


@pytest.mark.parametrize("family,nnz", [("ridge", None), ("ridge", 3), ("auc", None),
                                        ("auc", 3)])
def test_block_probe_matches_per_column_probe_bitwise(family, nnz):
    spec = _spec(kind="ridge" if family == "ridge" else "classification", nnz=nnz)
    problem = build_problem(partition(synthetic_samples(spec), 4, seed=0),
                            family, lam=0.1)
    M, F0 = _per_column_probe(problem)
    FE = global_operator(problem)(np.eye(problem.dim, problem.dim + 1, 1))
    assert np.array_equal(FE[:, 0], F0)
    assert np.array_equal(FE[:, 1:] - FE[:, :1], M)
    reset_counters()
    z, _ = reference_solution(problem)
    assert np.array_equal(z, np.linalg.solve(M, -F0))
    # Q per probed column, dim + 1 of them, and Q for the residual
    assert COUNTERS["component_evals"] == spec.n_samples * (problem.dim + 2)


def test_objective_minimized_at_reference():
    spec = _spec()
    shards = partition(synthetic_samples(spec), 2, seed=0)
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
    shards = partition(samples, 2, seed=0)
    with pytest.raises(ConfigError):
        build_problem(shards, "logistic", lam=0.1)
    # the error names the first bad row in node order
    shards = partition(synthetic_samples(_spec(kind="classification")), 4, seed=0)
    starts = np.cumsum(shards.sizes) - shards.sizes
    shards.y[starts[3]] = 2.0
    shards.y[starts[2] + 3] = 0.5
    for family in ("logistic", "auc"):
        with pytest.raises(ConfigError, match=f"line {shards.line_no[starts[2] + 3]}\\)"):
            build_problem(shards, family, lam=0.1)


def test_build_problem_rejects_what_operators_reject():
    # set-up builds no per-sample operator, so build_problem itself rejects
    # an unknown family and auc data with one class
    shards = partition(synthetic_samples(_spec()), 2, seed=0)
    with pytest.raises(ConfigError, match="unknown family"):
        build_problem(shards, "huber", lam=0.1)
    rows = synthetic_samples(_spec(kind="classification", n_samples=60))
    pos = rows.y > 0
    one_class = Rows(rows.X[pos], rows.y[pos], rows.line_no[pos])
    with pytest.raises(ConfigError, match="both classes"):
        build_problem(partition(one_class, 2, seed=0), "auc", lam=0.1)


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
        dict(tau_scale=float("nan")),
        dict(tau_scale=float("inf")),
        dict(stop_subopt=-1e-3),
        dict(stop_subopt=float("nan")),
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
        dict(seed=-2),
        dict(graph_seed=-1),
    ],
)
def test_config_validation_rejects(kw):
    base = dict(synthetic=_spec(), rounds=10)
    base.update(kw)
    with pytest.raises(ConfigError):
        RunConfig(**base).validate()


@pytest.mark.parametrize("comm", ["dense", "sparse"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_zero_rounds_logs_initialization_row(family, comm):
    # row 0 takes the recording path of every other row: the score of Z0
    # (an all-zero scorer ties every pair, so auc reads 1/2), no traffic yet
    kind = "ridge" if family == "ridge" else "classification"
    cfg = RunConfig(family=family, comm=comm, synthetic=_spec(kind=kind, margin=0.05),
                    n_nodes=2, topology="complete", rounds=0, seed=0,
                    track_lyapunov=True, record_trajectory=True)
    result = run(cfg)
    assert len(result.metrics.rows) == 1
    row = result.metrics.final
    assert (row.round, row.effective_passes, row.subopt, row.c_max) == (0, 0.0, 1.0, 0)
    expected = 0.5 if family == "auc" else objective(result.problem, np.zeros(result.problem.dim))
    assert row.score == expected
    assert len(result.trajectory) == 1 and np.array_equal(result.trajectory[0], result.Z0)
    assert [t for t, _ in result.lyapunov] == [0]
    assert np.array_equal(result.z_final, result.Z0)


@pytest.mark.parametrize("family,comm", [("ridge", "dense"), ("auc", "sparse")])
def test_set_up_steps_no_round(family, comm):
    kind = "ridge" if family == "ridge" else "classification"
    cfg = RunConfig(family=family, comm=comm, synthetic=_spec(kind=kind, nnz=4, margin=0.05),
                    n_nodes=3, topology="path", rounds=30, seed=2)
    setup = set_up(cfg)
    assert COUNTERS["resolves"] == 0
    result = run(cfg)
    assert COUNTERS["resolves"] > 0
    assert np.array_equal(setup.z_star, result.z_star)
    assert (setup.alpha, setup.L) == (result.alpha, result.L)
    assert np.array_equal(setup.mix.W, result.mix.W)


def test_consensus_start_at_optimum_stays_there():
    # N=1, z0 = z*, table anchored at z*: the iteration is stationary
    spec = _spec(n_samples=20)
    shards = partition(synthetic_samples(spec), 1, seed=0)
    problem = build_problem(shards, "ridge", lam=0.1)
    z_star, _ = reference_solution(problem)
    from dsba.algorithms import dsba_node_step, make_node

    node = make_node(0, problem.samples, alpha=0.05, lam=0.1, z0=z_star, seed=0)
    for t in range(200):
        # self-loop mixing input, W = Wt = [[1]]
        dsba_node_step(node, node.z if t == 0 else 2.0 * node.z - node.z_prev)
    assert np.linalg.norm(node.z - z_star) <= 1e-12


def _engines_case(family, variant, n_samples):
    # 39 samples on 4 nodes gives shards of 10, 10, 10 and 9
    kind = "ridge" if family == "ridge" else "classification"
    spec = _spec(kind=kind, d=10, n_samples=n_samples, margin=0.05)
    return dict(family=family, variant=variant, n_nodes=4, topology="ring",
                synthetic=spec, lam=0.05, rounds=200, seed=3, metric_every=50)


@pytest.mark.parametrize("n_samples", [40, 39], ids=["equal", "unequal"])
@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_fast_engine_matches_generic(family, variant, n_samples):
    common = _engines_case(family, variant, n_samples)
    fast = run(RunConfig(engine="auto", **common))
    generic = run(RunConfig(engine="generic", **common))
    assert (fast.manifest["engine"], generic.manifest["engine"]) == ("fast", "generic")
    assert len(set(fast.problem.shards.sizes)) == (1 if n_samples == 40 else 2)
    assert np.max(np.abs(fast.z_final - generic.z_final)) < 1e-10
    assert fast.manifest["counters"] == generic.manifest["counters"]


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_fast_engine_departs_from_generic_on_a_wrong_kernel(family, monkeypatch):
    # negative control: both engines resolve through the same margin
    # kernels, yet the oracle evaluates its new table entry at z+ while the
    # batched round takes the kernel's coefficient as the entry, so a kernel
    # that solves at alpha * 1.01 sets the two apart
    from dsba import algorithms, operators

    name = f"kernel_{family}"
    kernel = getattr(operators, name)

    def at_wrong_alpha(m, na2, y, alpha, *rest):
        return kernel(m, na2, y, 1.01 * alpha, *rest)

    # the batched round calls kernel_auc itself, and the others through
    # operators.resolve_margins
    for module in (operators, algorithms) if family == "auc" else (operators,):
        monkeypatch.setattr(module, name, at_wrong_alpha)
    common = _engines_case(family, "dsba", 40)
    fast = run(RunConfig(engine="auto", **common))
    generic = run(RunConfig(engine="generic", **common))
    assert np.max(np.abs(fast.z_final - generic.z_final)) > 1e-6


@pytest.mark.parametrize("kw,engine", [
    (dict(), "fast"),
    (dict(variant="dsa"), "fast"),
    (dict(family="logistic"), "fast"),
    (dict(family="auc", variant="dsa"), "fast"),
    (dict(n_samples=39), "fast"),
    (dict(engine="generic"), "generic"),
    (dict(comm="sparse"), "fast"),
    (dict(variant="extra"), "extra"),
    (dict(track_lyapunov=True), "fast"),
    (dict(variant="pointsaga", n_nodes=1), "fast"),
])
def test_engine_choice(kw, engine):
    # auto picks the batched engine for dsba, dsa and Point-SAGA on every
    # family and shard layout, tracked or not, and sparse runs always step on
    # it; the per-node oracle runs only under engine = generic, and EXTRA
    # runs its own loop, labelled "extra"
    kw = dict(kw)
    family = kw.setdefault("family", "ridge")
    spec = _spec(kind="ridge" if family == "ridge" else "classification",
                 n_samples=kw.pop("n_samples", 40), margin=0.05)
    cfg = RunConfig(synthetic=spec, **{"n_nodes": 4, "topology": "complete",
                                       "rounds": 3, "seed": 0, **kw})
    assert run(cfg).manifest["engine"] == engine


@pytest.mark.parametrize("kw,built", [
    pytest.param(dict(), False, id="batched"),
    pytest.param(dict(family="auc"), False, id="batched-auc"),
    pytest.param(dict(comm="sparse"), False, id="sparse"),
    pytest.param(dict(variant="extra"), False, id="extra"),
    pytest.param(dict(track_lyapunov=True), False, id="batched-lyapunov"),
    pytest.param(dict(engine="generic"), True, id="generic"),
    pytest.param(dict(engine="generic", track_lyapunov=True), True, id="generic-lyapunov"),
    pytest.param(dict(variant="pointsaga", n_nodes=1), False, id="pointsaga"),
])
def test_only_the_per_node_engine_builds_operators(kw, built, monkeypatch):
    # set-up builds the sample matrix alone: the per-node operators, each
    # node's rows as a dense block, are built once per node, only for the
    # per-node reference engine, and the step size's L is the largest of the
    # sample matrix's row bounds
    from dsba import simulator

    made = []
    make_node = simulator.make_node

    def counting(node, *args, **kwargs):
        made.append(node)
        return make_node(node, *args, **kwargs)

    monkeypatch.setattr(simulator, "make_node", counting)
    kw = dict(kw)
    family = kw.setdefault("family", "ridge")
    spec = _spec(kind="ridge" if family == "ridge" else "classification", margin=0.05)
    res = run(RunConfig(synthetic=spec, **{"n_nodes": 4, "topology": "complete",
                                           "rounds": 3, "seed": 0, **kw}))
    assert made == (list(range(res.config.n_nodes)) if built else [])
    assert res.manifest["lipschitz"] == lipschitz_bound(res.problem.samples, res.lam).max()


@pytest.mark.parametrize("kw,built", [
    pytest.param(dict(), False, id="dense"),
    pytest.param(dict(comm="sparse"), False, id="sparse"),
    pytest.param(dict(family="auc"), False, id="dense-auc"),
    pytest.param(dict(comm="sparse", libsvm=True), False, id="sparse-libsvm"),
    pytest.param(dict(engine="generic"), True, id="generic"),
])
def test_set_up_builds_no_sample(kw, built, tmp_path, monkeypatch):
    # the dataset is one CSR form from generation or parse to the manifest:
    # only the per-node oracle evaluates one sample at a time, q_n per node
    # for its tables and one per node-round
    from dsba import algorithms

    made = []
    eval_one = algorithms.eval_component

    def counting(*args, **kwargs):
        made.append(args[0])
        return eval_one(*args, **kwargs)

    monkeypatch.setattr(algorithms, "eval_component", counting)
    kw = dict(kw)
    family = kw.setdefault("family", "ridge")
    data = dict(synthetic=_spec(kind="ridge" if family == "ridge" else "classification",
                                nnz=3, margin=0.05))
    if kw.pop("libsvm", False):
        path = tmp_path / "data.svm"
        path.write_text("".join(f"{(-1) ** k * (k % 5 + 1)} {k % 7 + 1}:1.5 9:{k}.25\n"
                                for k in range(40)))
        data = dict(dataset_path=str(path))
    res = run(RunConfig(**data, **{"n_nodes": 4, "topology": "complete", "rounds": 3,
                                   "seed": 0, **kw}))
    assert res.manifest["Q"] == 40
    assert len(made) == (40 + 4 * 3 if built else 0)


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
    # observers of one graph read their origins at different lags
    common = dict(family="ridge", variant=variant, engine="generic", n_nodes=n_nodes,
                  topology=topology, edge_prob=0.2,
                  synthetic=_spec(d=12, n_samples=6 * n_nodes, nnz=4), lam=0.05,
                  rounds=120, seed=9, compute_score=False)
    dense = run(RunConfig(comm="dense", **common))
    sparse = run(RunConfig(comm="sparse", **common))
    assert len(set(sparse.mix.distances.max(axis=1).tolist())) > 1
    assert np.max(np.abs(dense.z_final - sparse.z_final)) < 1e-9


def _traffic_by_round(res, rounds):
    """Per delivery round t < rounds and node, the payload values, flood
    values and metadata of a sparse run, packet by packet: node n's round -1
    packet carries its initial state (2 dim values), its round-s packet its
    drawn sample's nonzeros (two more for auc's tail), and each reaches every
    u != n at round s + dist(n, u)."""
    cfg, mix = res.config, res.mix
    values, initial, metadata = (np.zeros((rounds, cfg.n_nodes), dtype=np.int64)
                                 for _ in range(3))
    S = res.problem.samples
    nnz = np.diff(S.X.indptr) + (2 if cfg.family == "auc" else 0)
    for n, (start, q) in enumerate(zip(S.starts, res.problem.shards.sizes)):
        rng = np.random.default_rng([cfg.seed, n])
        for s in range(-1, rounds):
            if s == -1:
                payload = 2 * res.problem.dim
            else:
                payload = nnz[start + int(rng.integers(q))]
            for u in range(cfg.n_nodes):
                t = s + mix.distances[n, u]
                if u != n and t < rounds:
                    (initial if s == -1 else values)[t, u] += payload
                    metadata[t, u] += payload + 2
    return values, initial, metadata


def _traffic_oracle(res, last=None):
    """Per-node payload values, metadata and initial-state doubles of a
    sparse run delivered up to round `last`, by default the run's last."""
    last = res.config.rounds - 1 if last is None else last
    values, initial, metadata = _traffic_by_round(res, last + 1)
    return values.sum(axis=0), metadata.sum(axis=0), initial.sum(axis=0)


def test_sparse_traffic_at_every_metric_row():
    # 2,100 rounds: metric rows every 7 rounds settle the traffic off the
    # 1,024-round span, on a path of diameter 4
    common = dict(family="ridge", variant="dsba", n_nodes=5, topology="path",
                  synthetic=_spec(d=12, n_samples=30, nnz=3), lam=0.05, seed=1,
                  comm="sparse", metric_every=7)
    res = run(RunConfig(rounds=2100, **common))
    assert res.mix.distances.max() >= 3
    values, initial, metadata = _traffic_by_round(res, 2100)
    received = np.cumsum(values + initial, axis=0).max(axis=1)
    rows = res.metrics.rows[1:]
    assert [r.round for r in rows] == list(range(7, 2101, 7))
    assert [r.c_max for r in rows] == [int(received[r.round - 1]) for r in rows]
    traffic = res.manifest["traffic"]
    assert traffic["payload_values"] == values.sum(axis=0).tolist()
    assert traffic["initial_state"] == initial.sum(axis=0).tolist()
    assert traffic["metadata"] == metadata.sum(axis=0).tolist()
    assert res.comm_per_round == values.max(axis=0).tolist()

    # an early stop settles the traffic up to its round
    stopped = run(RunConfig(rounds=2100, stop_subopt=res.metrics.rows[150].subopt,
                            **common))
    last = stopped.metrics.final.round - 1
    assert 0 < last < 2099
    values, metadata, initial = _traffic_oracle(stopped, last)
    traffic = stopped.manifest["traffic"]
    assert traffic["payload_values"] == values.tolist()
    assert traffic["metadata"] == metadata.tolist()
    assert traffic["initial_state"] == initial.tolist()
    assert stopped.metrics.final.c_max == int((values + initial).max())


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_sparse_matches_dense_generic(family, variant):
    # 39 samples on 4 nodes gives shards of 10, 10, 10 and 9
    kind = "ridge" if family == "ridge" else "classification"
    common = dict(family=family, variant=variant, n_nodes=4, topology="path",
                  synthetic=_spec(kind=kind, d=10, n_samples=39, nnz=4, margin=0.05),
                  lam=0.05, rounds=200, seed=3, metric_every=50)
    dense = run(RunConfig(comm="dense", engine="generic", **common))
    sparse = run(RunConfig(comm="sparse", **common))
    assert len(set(sparse.problem.shards.sizes)) == 2
    assert np.max(np.abs(dense.z_final - sparse.z_final)) < 1e-9
    assert sparse.manifest["counters"] == dense.manifest["counters"]
    values, metadata, initial = _traffic_oracle(sparse)
    traffic = sparse.manifest["traffic"]
    assert traffic["payload_values"] == values.tolist()
    assert traffic["metadata"] == metadata.tolist()
    assert traffic["initial_state"] == initial.tolist()
    assert np.array_equal(sparse.received_doubles, values + initial)


@pytest.mark.parametrize("comm", ["dense", "sparse"])
@pytest.mark.parametrize("family", ["ridge", "auc"])
def test_sparse_lyapunov_matches_dense_generic(family, comm):
    # the batched table hands over the same table term as the per-node
    # tables, in dense (engine = auto) and sparse runs alike
    kind = "ridge" if family == "ridge" else "classification"
    common = dict(family=family, synthetic=_spec(kind=kind, n_samples=60, margin=0.05),
                  n_nodes=3, topology="path", lam=0.1, rounds=50, seed=6,
                  track_lyapunov=True)
    generic = run(RunConfig(engine="generic", **common))
    batched = run(RunConfig(comm=comm, **common))
    assert batched.manifest["engine"] == "fast"
    assert [t for t, _ in batched.lyapunov] == [t for t, _ in generic.lyapunov] \
        == list(range(0, 51, 10))
    np.testing.assert_allclose([h for _, h in batched.lyapunov],
                               [h for _, h in generic.lyapunov], rtol=1e-9, atol=0)


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_sparse_warmup_is_dense_batched_bitwise(family, variant):
    # a short run that ends soon after the opening rounds, while the initial
    # state flooded at round -1 is still reaching the far nodes, takes the
    # dense batched round at every step, up to the final iterate
    kind = "ridge" if family == "ridge" else "classification"
    common = dict(family=family, variant=variant, n_nodes=6, topology="path",
                  synthetic=_spec(kind=kind, d=10, n_samples=36, nnz=4, margin=0.05),
                  lam=0.05, rounds=12, seed=3, record_trajectory=True)
    dense = run(RunConfig(comm="dense", **common))
    sparse = run(RunConfig(comm="sparse", **common))
    flood = int(sparse.mix.distances.max())
    assert flood < 12
    assert len(sparse.trajectory) == len(dense.trajectory) == 13
    for t in range(13):
        assert np.array_equal(sparse.trajectory[t], dense.trajectory[t]), t
    assert np.array_equal(sparse.z_final, dense.z_final)


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_sparse_relay_rounds_are_dense_batched_bitwise(family, variant):
    # every relay round takes the dense batched round on the same Wt Z, so
    # every iterate, from the flood's rounds on, equals the dense batched run's
    kind = "ridge" if family == "ridge" else "classification"
    common = dict(family=family, variant=variant, n_nodes=6, topology="path",
                  synthetic=_spec(kind=kind, d=10, n_samples=36, nnz=4, margin=0.05),
                  lam=0.05, rounds=80, seed=3, record_trajectory=True)
    dense = run(RunConfig(comm="dense", **common)).trajectory
    sparse = run(RunConfig(comm="sparse", **common)).trajectory
    assert len(sparse) == len(dense) == 81
    for t in range(81):
        assert np.array_equal(sparse[t], dense[t]), t


def test_long_sparse_run_stays_on_dense_run():
    # 100,000 rounds: relay rounds take the dense round on the live Wt Z, so
    # they do not drift from the dense batched run as rounds pile up
    common = dict(family="ridge", variant="dsba", n_nodes=4, topology="path",
                  synthetic=_spec(d=12, n_samples=24, nnz=4), lam=0.05,
                  rounds=100_000, seed=1, metric_every=10_000, compute_score=False)
    dense = run(RunConfig(comm="dense", **common))
    sparse = run(RunConfig(comm="sparse", **common))
    assert np.max(np.abs(sparse.z_final - dense.z_final)) <= 1e-11
    floor = dense.metrics.rows[-1].subopt
    assert floor < 1e-13
    assert sparse.metrics.rows[-1].subopt <= 2.0 * floor


def test_sparse_manifest_summarises_traffic():
    common = dict(family="ridge", variant="dsba", engine="generic", n_nodes=5,
                  topology="path", synthetic=_spec(d=12, n_samples=30, nnz=3),
                  lam=0.05, rounds=40, seed=1)
    res = run(RunConfig(comm="sparse", **common))
    traffic = res.manifest["traffic"]
    payload = np.array(traffic["payload_values"])
    assert np.array_equal(payload + traffic["initial_state"], res.received_doubles)
    assert np.shape(res.comm_per_round) == (5,)
    assert np.all(np.array(res.comm_per_round) <= payload)
    # every packet carries as many indices as values, plus two tags
    tags = np.array(traffic["metadata"]) - payload - traffic["initial_state"]
    assert np.all(tags > 0) and np.all(tags % 2 == 0)
    assert traffic["max_round_payload"] == max(res.comm_per_round)
    assert traffic["max_round_payload"] > 0
    assert "traffic" not in run(RunConfig(comm="dense", **common)).manifest
    json.loads(manifest_json(res))


def test_lyapunov_tracked_rounds():
    cfg = RunConfig(synthetic=_spec(n_samples=60), n_nodes=3, topology="complete",
                    engine="generic", lam=0.1, rounds=50, seed=6,
                    track_lyapunov=True)
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
    shards = partition(synthetic_samples(spec), 4, seed=0)
    return build_problem(shards, family, lam=0.07)


def _node_rows(problem):
    """Each node's rows as a dense block, with their labels."""
    S = problem.samples
    return list(zip(np.split(S.X.toarray(), S.starts[1:]), np.split(S.y, S.starts[1:])))


def _per_sample_mean(problem, rows, z, lam):
    """Oracle: (1/q) sum_i B_i(z) + lam*z from per-sample evaluations of
    one node's (rows, labels)."""
    S, (X, y) = problem.samples, rows
    out = lam * z
    for a, b in zip(X, y):
        out += eval_component(S.family, a, b, z, S.p) * (1.0 / len(y))
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
    for n, rows in enumerate(_node_rows(problem)):
        assert np.max(np.abs(G[n] - _per_sample_mean(problem, rows, Z[n], lam))) <= 1e-12

    z = Z[0]
    expect = sum(_per_sample_mean(problem, rows, z, lam) for rows in _node_rows(problem))
    assert np.max(np.abs(global_operator(problem)(z) - expect)) <= 1e-12
    if family == "auc":
        return
    if family == "ridge":
        def loss(m, y):
            return 0.5 * (m - y) ** 2
    else:
        def loss(m, y):
            return np.logaddexp(0.0, -y * m)
    f = sum(sum(loss(a @ z, b) for a, b in zip(X, y)) / len(y)
            for X, y in _node_rows(problem))
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
        return np.stack([_per_sample_mean(problem, rows, Z[n], problem.lam)
                         for n, rows in enumerate(_node_rows(problem))])

    # the independent reference: EXTRA's float64 mixing form, W Z - alpha G
    # at round 0 and Wt(2Z - Z-) - alpha(G - G-) afterwards
    alpha = result.alpha
    Z = np.zeros((4, problem.dim))
    G = G_of(Z)
    Zp, Gp = Z, G
    for t in range(200):
        if t == 0:
            Znew = mix.W @ Z - alpha * G
        else:
            Znew = mix.Wt @ (2.0 * Z - Zp) - alpha * (G - Gp)
        Zp, Z = Z, Znew
        Gp, G = G, G_of(Z)
    assert np.max(np.abs(result.z_final - Z)) <= 1e-10


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_extra_does_not_drift_over_long_runs(family):
    # 30,000 rounds: EXTRA's dual has its node mean subtracted every round,
    # so rounding does not pile up along the consensus direction and the
    # suboptimality stays at its floor instead of creeping back up
    kind = "ridge" if family == "ridge" else "classification"
    res = run(RunConfig(family=family, variant="extra", n_nodes=4, topology="path",
                        synthetic=_spec(kind=kind, d=12, n_samples=40, margin=0.05),
                        lam=0.05, rounds=30_000, seed=1, metric_every=10_000,
                        compute_score=False))
    subopt = {r.round: r.subopt for r in res.metrics.rows}
    assert subopt[30_000] <= 1e-12
    assert subopt[30_000] <= subopt[20_000]


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
