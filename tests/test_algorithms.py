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
from dsba.dataset import Shards
from dsba.operators import SampleMatrix, eval_component, kernel_auc, resolve_regularized
from dsba.simulator import _run_dense_generic
from dsba.topology import build_mixing, make_adjacency


def _pm1(rng, k):
    return 1.0 if rng.random() < 0.5 else -1.0


def _rows(rng, d, q, label=_pm1):
    """q unit rows with three random nonzeros each, as a dense block, and
    their labels, row k's drawn after its values by `label(rng, k)`."""
    X, y = np.zeros((q, d)), np.empty(q)
    for k in range(q):
        idx = np.sort(rng.choice(d, size=min(3, d), replace=False))
        val = rng.standard_normal(len(idx))
        X[k, idx] = val / np.linalg.norm(val)
        y[k] = label(rng, k)
    return X, y


def _samples(X, y, sizes, family="ridge", p=None):
    """The sample matrix of the dense rows X, stacked in node order."""
    shards = Shards(sp.csr_array(X), y, np.arange(len(y)), np.array(sizes))
    return SampleMatrix.from_shards(family, shards, p)


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
    X, y = _rows(rng, d, q)
    z0 = rng.standard_normal(d)
    node = make_node(0, _samples(X, y, [q]), 0.1, 0.1, z0, seed=0)
    comps = [eval_component("ridge", a, b, z0) for a, b in zip(X, y)]
    assert np.allclose(node.table.phibar, sum(comps) / q)
    assert np.allclose(node.table.val, comps)


def test_phitable_update_maintains_mean():
    rng = np.random.default_rng(1)
    d, q = 6, 4
    X, y = _rows(rng, d, q)
    z0 = rng.standard_normal(d)
    table = PhiTable([eval_component("ridge", a, b, z0) for a, b in zip(X, y)])
    old = table.val[2].copy()
    delta = table.update(2, eval_component("ridge", X[2], y[2], rng.standard_normal(d)))
    assert np.allclose(table.phibar, table.val.mean(axis=0), atol=1e-14)
    assert np.array_equal(delta, table.val[2] - old)


def test_estimator_unbiased_over_samples():
    # averaging the variance-reduced estimate over all indices recovers the
    # exact local mean operator
    rng = np.random.default_rng(3)
    d, q, lam = 5, 7, 0.2
    samples = _samples(*_rows(rng, d, q), [q])
    node = make_node(0, samples, 0.1, lam, rng.standard_normal(d), seed=0)
    z = rng.standard_normal(d)
    mean_est = np.zeros(d)
    for i in range(q):
        est = node.table.phibar + lam * z - node.table.val[i] + node.component(i, z)
        mean_est += est / q
    exact = local_mean_operator(samples, z[None, :], lam)[0]
    assert np.allclose(mean_est, exact, atol=1e-12)


def test_node_rng_streams_are_per_node():
    rng = np.random.default_rng(4)
    samples = _samples(*_rows(rng, 5, 12), [6, 6])
    a = make_node(0, samples, 0.1, 0.1, np.zeros(5), seed=7)
    b = make_node(1, samples, 0.1, 0.1, np.zeros(5), seed=7)
    assert [a.draw() for _ in range(10)] != [b.draw() for _ in range(10)]
    c = make_node(0, samples, 0.1, 0.1, np.zeros(5), seed=7)
    a2 = make_node(0, samples, 0.1, 0.1, np.zeros(5), seed=7)
    assert [c.draw() for _ in range(10)] == [a2.draw() for _ in range(10)]


def test_make_node_reads_its_rows_as_a_dense_block():
    rng = np.random.default_rng(4)
    X, y = _rows(rng, 5, 11)
    samples = _samples(X, y, [4, 4, 3])
    node = make_node(2, samples, 0.1, 0.1, np.zeros(5), seed=7)
    assert np.array_equal(node.X, X[8:]) and np.array_equal(node.y, y[8:])
    assert node.table.val.shape == (3, 5)


def test_dsba_step_is_resolvent_of_psi():
    rng = np.random.default_rng(5)
    d, q = 5, 4
    samples = _samples(*_rows(rng, d, q), [q])
    node = make_node(0, samples, alpha=0.2, lam=0.3, z0=rng.standard_normal(d), seed=1)
    twin = make_node(0, samples, alpha=0.2, lam=0.3, z0=node.z.copy(), seed=1)
    mixed = rng.standard_normal(d)
    i = twin.draw()
    psi = compute_psi(twin, mixed, i)
    expect = resolve_regularized("ridge", twin.X[i], twin.y[i], 0.2, 0.3, psi)
    z_next, delta, i_seen = dsba_node_step(node, mixed)
    assert i_seen == i
    assert np.allclose(z_next, expect, atol=1e-12)


def test_dsa_delta_evaluated_at_current_iterate():
    rng = np.random.default_rng(6)
    d, q = 5, 4
    samples = _samples(*_rows(rng, d, q), [q])
    node = make_node(0, samples, alpha=0.15, lam=0.1, z0=rng.standard_normal(d), seed=2)
    z_t = node.z.copy()
    old_tbl = node.table.val.copy()
    _, delta, i = dsa_node_step(node, rng.standard_normal(d))
    expect = eval_component("ridge", node.X[i], node.y[i], z_t) - old_tbl[i]
    assert np.allclose(delta, expect, atol=1e-14)


def test_pointsaga_equals_dsba_self_loop():
    # the pointsaga engine path on one node must be the dsba recurrence on a
    # self-loop: mixing input z^0 at round 0 and 2 z^t - z^{t-1} afterwards
    rng = np.random.default_rng(7)
    d, q = 6, 8
    samples = _samples(*_rows(rng, d, q), [q])
    z0 = rng.standard_normal(d)
    a = make_node(0, samples, 0.1, 0.2, z0, seed=3)
    b = make_node(0, samples, 0.1, 0.2, z0, seed=3)
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

    def label(rng, k):
        return float(rng.standard_normal()) if family == "ridge" else (-1.0) ** k

    X, y = zip(*[_rows(rng, d, q, label) for q in sizes])
    samples = _samples(np.vstack(X), np.concatenate(y), sizes, family,
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
