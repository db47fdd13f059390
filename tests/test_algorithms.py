import numpy as np
import pytest
import scipy.sparse as sp

from dsba.algorithms import (
    AlgorithmError,
    BatchedTable,
    PhiTable,
    compute_psi,
    dsa_node_step,
    dsba_node_step,
    extra_round,
    local_mean_operator,
    make_node,
    node_means,
    step_size_bound,
)
from dsba.dataset import Sample, Shards
from dsba.operators import (SampleMatrix, eval_component, kernel_auc, make_operator,
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


def _shards(samples, d, sizes):
    """The rows of the given one-row views, stacked in node order."""
    X = sp.csr_array((np.concatenate([s.values for s in samples]),
                      np.concatenate([s.indices for s in samples]),
                      np.cumsum([0] + [len(s.indices) for s in samples])),
                     shape=(len(samples), d))
    return Shards(X, np.array([s.label for s in samples]), np.arange(len(samples)),
                  np.array(sizes))


@pytest.mark.parametrize("q", [1, 2, 3, 7, 30, 1000, 2**20, 2**31 - 1])
def test_block_draws_match_single_draws(q):
    # batched engines draw each node's samples in blocks; that must be the
    # stream of single draws the per-node steps take
    for seed in ([0, 0], [5, 3], [101, 9]):
        single = np.random.default_rng(seed)
        block = np.random.default_rng(seed)
        expected = [int(single.integers(q)) for _ in range(500)]
        assert block.integers(q, size=300).tolist() + block.integers(q, size=200).tolist() \
            == expected


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
        table.update(0, SparseVec(np.arange(6), np.ones(6), 6))


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
        est = table.phibar + lam * z
        table.lookup(i).add_into(est, -1.0)
        eval_component(ops[i], z).add_into(est)
        mean_est += est / q
    samples = SampleMatrix.from_shards("ridge", _shards([op.sample for op in ops], d, [q]))
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

    def on_round(t, Z, states):
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
    # from S^{-1} = 0 round 0 is W Z - alpha G; the next round is EXTRA's
    # mixing form Wt(2Z - Z-) - alpha(G - G-)
    rng = np.random.default_rng(8)
    N, d = 4, 3
    mix = build_mixing(make_adjacency("ring", N))
    Z = rng.standard_normal((N, d))
    G = rng.standard_normal((N, d))
    S = np.zeros((N, d))
    out0 = extra_round(Z, S, G, mix.Wt, 0.1)
    assert out0.shape == (N, d)
    assert np.allclose(out0, mix.W @ Z - 0.1 * G)
    G1 = rng.standard_normal((N, d))
    out1 = extra_round(out0, S, G1, mix.Wt, 0.1)
    assert np.allclose(out1, mix.Wt @ (2 * out0 - Z) - 0.1 * (G1 - G))
    assert np.allclose(S.sum(axis=0), 0.0)


def test_step_size_bound():
    assert step_size_bound(2.0) == pytest.approx(1.0 / 48.0)
    with pytest.raises(AlgorithmError):
        step_size_bound(0.0)



def _batched_case(family, d=6, sizes=(5, 4, 6), seed=9):
    """Unequal shards of random rows, labels alternating +1/-1 (ridge:
    real targets), a random start Z0 and the path's mixing matrix."""
    rng = np.random.default_rng(seed)
    rows = []
    for q in sizes:
        for k in range(q):
            idx = np.sort(rng.choice(d, size=3, replace=False)).astype(np.int64)
            val = rng.standard_normal(3)
            label = float(rng.standard_normal()) if family == "ridge" else (-1.0) ** k
            rows.append(Sample(idx, val / np.linalg.norm(val), label))
    samples = SampleMatrix.from_shards(family, _shards(rows, d, sizes),
                                       p=0.3 if family == "auc" else None)
    Z0 = rng.standard_normal((len(sizes), d + 3 if family == "auc" else d))
    return samples, Z0, build_mixing(make_adjacency("path", len(sizes)))


@pytest.mark.parametrize("variant", ["dsba", "dsa"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_batched_step_entries_are_components_at_next_iterate(family, variant):
    # the batched round takes a dsba entry from the resolvent's output
    # instead of evaluating B_i at Z+; it must be that evaluation, and the
    # node means must follow the table
    samples, Z, mix = _batched_case(family)
    d, auc = samples.d, family == "auc"
    table = BatchedTable(samples, Z, seed=4)
    mixed_rounds = 0
    for _ in range(40):
        Z_prev = Z
        Z, r = table.step(Z, mix.Wt @ Z, 0.3, 0.1, variant)
        at = Z if variant == "dsba" else Z_prev
        coef, tails = samples.row_terms(np.einsum("nd,nd->n", at[:, :d], table.X[r]),
                                        at[:, d:] if auc else None, rows=r)
        assert np.max(np.abs(table.coef[r] - coef)) <= 1e-12
        if auc:
            assert np.max(np.abs(table.tails[r] - tails)) <= 1e-12
        assert np.max(np.abs(table.phibar - node_means(samples, table.coef, table.tails))) \
            <= 1e-12
        mixed_rounds += len(set(samples.y[r])) == 2
    if family != "ridge":
        assert mixed_rounds > 0


def test_batched_auc_resolve_matches_kernel_per_row():
    # the round's auc resolve reads each row's weight c and offset slot
    # from the sample matrix; one kernel call per row, with both read off
    # the row's label, must give the same coefficient and tail
    samples, Z, mix = _batched_case("auc")
    d, p, alpha, lam = samples.d, samples.p, 0.3, 0.1
    table = BatchedTable(samples, Z, seed=4)
    WZ = mix.Wt @ Z
    for _ in range(20):
        coef, tails, phibar = table.coef.copy(), table.tails.copy(), table.phibar.copy()
        S = table.dual + Z - WZ
        Z_next, r = table.step(Z, WZ, alpha, lam, "dsba")
        if len(set(samples.y[r])) == 2:
            break
        Z, WZ = Z_next, mix.Wt @ Z_next
    assert len(set(samples.y[r])) == 2
    S -= S.sum(axis=0) / len(S)
    rho = 1.0 / (1.0 + lam * alpha)
    for n, i in enumerate(r):
        a, y = table.X[i], samples.y[i]
        phi = np.concatenate([coef[i] * a, tails[i]])
        psi = rho * (WZ[n] - S[n] + alpha * (phi - phibar[n]))
        c, k = (2.0 * (1 - p), 0) if y > 0 else (2.0 * p, 1)
        e, _, o_out, theta_out = kernel_auc(psi[:d] @ a, a @ a, y, rho * alpha, c,
                                            psi[d + k], psi[d + 2], p)
        tail = psi[d:].copy()
        tail[k], tail[2] = o_out, theta_out
        assert abs(table.coef[i] - e) <= 1e-13, (n, y)
        assert np.max(np.abs(Z_next[n, d:] - tail)) <= 1e-13, (n, y)
