import numpy as np
import pytest

from dsba.algorithms import (
    AlgorithmError,
    PhiTable,
    compute_psi,
    contraction_rate,
    dsa_node_step,
    dsba_node_step,
    extra_round,
    local_mean_operator,
    make_node,
    step_size_bound,
)
from dsba.dataset import Sample
from dsba.operators import (SampleMatrix, eval_component, make_operator,
                            resolve_regularized)
from dsba.simulator import _run_dense_generic
from dsba.sparse import SparseVec
from dsba.topology import build_mixing, make_adjacency


def _ops(rng, d, q, lam=0.1, family="ridge"):
    ops = []
    for _ in range(q):
        idx = np.sort(rng.choice(d, size=min(3, d), replace=False)).astype(np.int64)
        val = rng.standard_normal(len(idx))
        val /= np.linalg.norm(val)
        label = 1.0 if rng.random() < 0.5 else -1.0
        ops.append(make_operator(family, Sample(idx, val, label), lam, d))
    return ops


def test_phitable_initialization():
    rng = np.random.default_rng(0)
    d, q = 6, 5
    ops = _ops(rng, d, q)
    z0 = rng.standard_normal(d)
    table = PhiTable(ops, z0)
    expect = np.zeros(d)
    for op in ops:
        eval_component(op, z0).add_into(expect, 1.0 / q)
    assert np.allclose(table.phibar, expect)
    for i, op in enumerate(ops):
        assert np.allclose(table.lookup(i).to_dense(), eval_component(op, z0).to_dense())


def test_phitable_update_maintains_mean():
    rng = np.random.default_rng(1)
    d, q = 6, 4
    ops = _ops(rng, d, q)
    table = PhiTable(ops, rng.standard_normal(d))
    z_new = rng.standard_normal(d)
    delta = table.update(2, eval_component(ops[2], z_new))
    expect = np.zeros(d)
    for i in range(q):
        table.lookup(i).add_into(expect, 1.0 / q)
    assert np.allclose(table.phibar, expect, atol=1e-14)
    assert delta.idx is not None


def test_phitable_update_rejects_support_change():
    rng = np.random.default_rng(2)
    ops = _ops(rng, 6, 3)
    table = PhiTable(ops, np.zeros(6))
    with pytest.raises(AlgorithmError):
        table.update(0, SparseVec.from_dense(np.ones(6)))


def test_estimator_unbiased_over_samples():
    # averaging the variance-reduced estimate over all indices recovers the
    # exact local mean operator
    rng = np.random.default_rng(3)
    d, q, lam = 5, 7, 0.2
    ops = _ops(rng, d, q, lam=lam)
    table = PhiTable(ops, rng.standard_normal(d))
    z = rng.standard_normal(d)
    mean_est = np.zeros(d)
    for i in range(q):
        est = table.estimator(i, z, lam)
        eval_component(ops[i], z).add_into(est)
        mean_est += est / q
    samples = SampleMatrix.from_shards("ridge", [[op.sample for op in ops]], d)
    exact = local_mean_operator(samples, z[None, :], lam)[0]
    assert np.allclose(mean_est, exact, atol=1e-12)


def test_node_rng_streams_are_per_node():
    rng = np.random.default_rng(4)
    ops = _ops(rng, 5, 6)
    a = make_node(0, ops, 0.1, 0.1, np.zeros(5), seed=7)
    b = make_node(1, ops, 0.1, 0.1, np.zeros(5), seed=7)
    assert [a.draw() for _ in range(10)] != [b.draw() for _ in range(10)]
    c = make_node(0, ops, 0.1, 0.1, np.zeros(5), seed=7)
    a2 = make_node(0, ops, 0.1, 0.1, np.zeros(5), seed=7)
    assert [c.draw() for _ in range(10)] == [a2.draw() for _ in range(10)]


def test_dsba_step_is_resolvent_of_psi():
    rng = np.random.default_rng(5)
    d, q = 5, 4
    ops = _ops(rng, d, q, lam=0.3)
    node = make_node(0, ops, alpha=0.2, lam=0.3, z0=rng.standard_normal(d), seed=1)
    twin = make_node(0, ops, alpha=0.2, lam=0.3, z0=node.z.copy(), seed=1)
    mixed = rng.standard_normal(d)
    i = twin.draw()
    psi = compute_psi(twin, mixed, i)
    expect = resolve_regularized(ops[i], 0.2, psi)
    z_next, delta, i_seen = dsba_node_step(node, mixed)
    assert i_seen == i
    assert np.allclose(z_next, expect, atol=1e-12)


def test_dsa_delta_evaluated_at_current_iterate():
    rng = np.random.default_rng(6)
    d, q = 5, 4
    ops = _ops(rng, d, q, lam=0.1)
    node = make_node(0, ops, alpha=0.15, lam=0.1, z0=rng.standard_normal(d), seed=2)
    z_t = node.z.copy()
    old_tbl = [node.table.lookup(i).to_dense() for i in range(q)]
    _, delta, i = dsa_node_step(node, rng.standard_normal(d))
    expect = eval_component(ops[i], z_t).to_dense() - old_tbl[i]
    assert np.allclose(delta.to_dense(), expect, atol=1e-14)


def test_pointsaga_equals_dsba_self_loop():
    # the pointsaga engine path on one node must be the dsba recurrence on a
    # self-loop: mixing input z^0 at round 0 and 2 z^t - z^{t-1} afterwards
    rng = np.random.default_rng(7)
    d, q = 6, 8
    ops_a = _ops(rng, d, q, lam=0.2)
    z0 = rng.standard_normal(d)
    a = make_node(0, ops_a, 0.1, 0.2, z0, seed=3)
    b = make_node(0, ops_a, 0.1, 0.2, z0, seed=3)
    seen = []

    def on_round(t, Z):
        seen.append(Z[0].copy())
        return False

    mix = build_mixing(make_adjacency("complete", 1))
    _run_dense_generic([a], mix, 50, "pointsaga", on_round)
    assert len(seen) == 50
    for t in range(50):
        mixed = 1.0 * b.z if t == 0 else 1.0 * (2.0 * b.z - b.z_prev)
        zb, _, _ = dsba_node_step(b, mixed)
        assert np.array_equal(seen[t], zb)


def test_extra_round_shapes_and_t0():
    rng = np.random.default_rng(8)
    N, d = 4, 3
    mix = build_mixing(make_adjacency("ring", N))
    Z = rng.standard_normal((N, d))
    G = rng.standard_normal((N, d))
    out0 = extra_round(Z, Z, G, np.zeros_like(G), mix.W, mix.Wt, 0.1, t=0)
    assert np.allclose(out0, mix.W @ Z - 0.1 * G)
    out1 = extra_round(Z, out0, G, G, mix.W, mix.Wt, 0.1, t=1)
    assert np.allclose(out1, mix.Wt @ (2 * Z - out0))


def test_step_size_bound():
    assert step_size_bound(2.0) == pytest.approx(1.0 / 48.0)
    with pytest.raises(AlgorithmError):
        step_size_bound(0.0)


def test_contraction_rate_in_unit_interval():
    r = contraction_rate(gamma=0.3, mu=0.1, L=1.0, q=10)
    assert 0.0 < r < 1.0
    # tighter graphs/problems cannot slow the guaranteed rate
    assert contraction_rate(0.6, 0.1, 1.0, 10) <= contraction_rate(0.3, 0.1, 1.0, 10) + 1e-15
