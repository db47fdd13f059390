import numpy as np
import pytest
import scipy.sparse as sp

from dsba.dataset import Sample, Shards
from dsba.operators import (
    COUNTERS,
    OperatorError,
    SampleMatrix,
    eval_component,
    eval_operator,
    lipschitz_bound,
    make_operator,
    reset_counters,
    resolve_margins,
    resolvent,
    resolve_regularized,
    wrap_l2_resolvent,
)


def _sample(rng, d, nnz=None, label=None):
    nnz = nnz or d
    idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
    val = rng.standard_normal(nnz)
    val /= np.linalg.norm(val)
    if label is None:
        label = 1.0 if rng.random() < 0.5 else -1.0
    return Sample(idx, val, label)


def _bounds(family, samples, lam, d, p=None):
    """`lipschitz_bound` of the given samples, as one node's rows."""
    X = sp.csr_array((np.concatenate([s.values for s in samples]),
                      np.concatenate([s.indices for s in samples]),
                      np.cumsum([0] + [len(s.indices) for s in samples])),
                     shape=(len(samples), d))
    shards = Shards(X, np.array([s.label for s in samples]), np.arange(len(samples)),
                    np.array([len(samples)]))
    return lipschitz_bound(SampleMatrix.from_shards(family, shards, p), lam)


def test_unknown_family_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(OperatorError):
        make_operator("huber", _sample(rng, 4), 0.1, 4)


def test_auc_requires_ratio_and_binary_labels():
    rng = np.random.default_rng(0)
    with pytest.raises(OperatorError):
        make_operator("auc", _sample(rng, 4, label=1.0), 0.1, 4)  # no p
    with pytest.raises(OperatorError):
        make_operator("auc", _sample(rng, 4, label=2.0), 0.1, 4, p=0.5)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(0)
    op = make_operator("ridge", _sample(rng, 4), 0.1, 4)
    with pytest.raises(OperatorError):
        eval_component(op, np.zeros(5))


@pytest.mark.parametrize("family", ["ridge", "logistic"])
def test_component_support_is_sample_support(family):
    rng = np.random.default_rng(1)
    d = 12
    s = _sample(rng, d, nnz=4)
    op = make_operator(family, s, 0.3, d)
    out = eval_component(op, rng.standard_normal(d))
    assert set(out.idx) <= set(s.indices)


def test_auc_component_support_adds_tail_coordinates():
    rng = np.random.default_rng(2)
    d = 8
    s = _sample(rng, d, nnz=3, label=1.0)
    op = make_operator("auc", s, 0.1, d, p=0.4)
    out = eval_component(op, rng.standard_normal(d + 3))
    # positive samples touch the positive-mean and slack coordinates only
    assert set(out.idx) == set(s.indices) | {d, d + 2}


def test_eval_operator_adds_ridge_term():
    rng = np.random.default_rng(3)
    d = 6
    s = _sample(rng, d)
    op = make_operator("ridge", s, 0.7, d)
    z = rng.standard_normal(d)
    expect = eval_component(op, z).to_dense() + 0.7 * z
    assert np.allclose(eval_operator(op, z), expect)


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_resolvent_identity_small(family):
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = 7
        s = _sample(rng, d)
        p = 0.5 if family == "auc" else None
        op = make_operator(family, s, 0.2, d, p=p)
        z = rng.standard_normal(op.dim)
        alpha = float(rng.uniform(0.05, 1.5))
        u = resolvent(op, alpha, z)
        assert np.max(np.abs(u + alpha * eval_component(op, u).to_dense() - z)) < 1e-9


def test_logistic_resolvent_extreme_inputs():
    rng = np.random.default_rng(5)
    d = 5
    s = _sample(rng, d, label=1.0)
    op = make_operator("logistic", s, 0.0, d)
    for scale in (1e3, 1e6):
        z = scale * rng.standard_normal(d)
        u = resolvent(op, 10.0, z)
        assert np.max(np.abs(u + 10.0 * eval_component(op, u).to_dense() - z)) < 1e-6 * scale


def _batch(rng, family, rows, d, scale=1.0):
    """Operators on random rows with mixed labels, and a psi per row."""
    labels = np.resize([1.0, -1.0], rows)
    ops = [make_operator(family, _sample(rng, d, nnz=4, label=float(y)), 0.0, d,
                         p=0.3 if family == "auc" else None) for y in labels]
    psi = scale * rng.standard_normal((rows, ops[0].dim))
    return ops, psi


@pytest.mark.parametrize("family,scale", [("ridge", 1.0), ("logistic", 1.0),
                                          ("logistic", 1e3), ("logistic", 1e6),
                                          ("auc", 1.0)])
def test_kernel_batch_matches_per_sample_calls(family, scale):
    # one batched call over rows of both labels gives what one resolvent
    # call per row gives
    rng = np.random.default_rng(11)
    d, alpha = 9, 0.7
    ops, psi = _batch(rng, family, 12, d, scale)
    X = np.zeros((len(ops), d))
    for k, op in enumerate(ops):
        X[k, op.sample.indices] = op.sample.values
    e, tail = resolve_margins(family, np.einsum("nd,nd->n", psi[:, :d], X),
                              np.einsum("nd,nd->n", X, X),
                              np.array([op.sample.label for op in ops]), alpha,
                              psi[:, d:], 0.3)
    batched = psi.copy()
    batched[:, :d] -= alpha * e[:, None] * X
    if tail is not None:
        batched[:, d:] = tail
    for k, op in enumerate(ops):
        one = resolvent(op, alpha, psi[k])
        assert np.max(np.abs(batched[k] - one)) <= 1e-12 * scale, (k, op.sample.label)


@pytest.mark.parametrize("label", [1.0, -1.0])
def test_auc_closed_form_matches_4x4_solve(label):
    # the fixed point of the auc resolvent as the 4x4 linear system in
    # (a'w_out, a_out, b_out, theta_out) it was first written as
    rng = np.random.default_rng(12)
    d = 6
    for p in (0.2, 0.5, 0.9):
        op = make_operator("auc", _sample(rng, d, nnz=3, label=label), 0.0, d, p=p)
        s = op.sample
        alpha = float(rng.uniform(0.05, 3.0))
        psi = rng.standard_normal(op.dim)
        na2 = float(s.values @ s.values)
        sw = float(s.values @ psi[s.indices])
        h = 1 + 2 * p * (1 - p) * alpha
        if label > 0:
            g = 2.0 * (1 - p) * alpha
            A = np.array([[1 + g * na2, -g * na2, 0.0, -g * na2],
                          [-g, 1 + g, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0],
                          [g, 0.0, 0.0, h]])
            rhs = np.array([sw + g * na2, psi[d], psi[d + 1], psi[d + 2]])
        else:
            g = 2.0 * p * alpha
            A = np.array([[1 + g * na2, 0.0, -g * na2, g * na2],
                          [0.0, 1.0, 0.0, 0.0],
                          [-g, 0.0, 1 + g, 0.0],
                          [-g, 0.0, 0.0, h]])
            rhs = np.array([sw - g * na2, psi[d], psi[d + 1], psi[d + 2]])
        sc, a_out, b_out, theta_out = np.linalg.solve(A, rhs)
        u = resolvent(op, alpha, psi)
        assert float(s.values @ u[s.indices]) == pytest.approx(sc, abs=1e-12)
        assert np.allclose(u[d:], [a_out, b_out, theta_out], rtol=0, atol=1e-12)


def test_wrap_l2_matches_regularized_resolvent():
    rng = np.random.default_rng(6)
    d = 6
    s = _sample(rng, d)
    lam, alpha = 0.4, 0.3
    op = make_operator("ridge", s, lam, d)
    z = rng.standard_normal(d)
    direct = resolve_regularized(op, alpha, z)
    wrapped = wrap_l2_resolvent(lambda a, x: resolvent(op, a, x), lam, alpha, z)
    assert np.allclose(direct, wrapped, atol=1e-12)


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_lipschitz_bound_dominates_observed_ratios(family):
    rng = np.random.default_rng(7)
    d = 6
    s = _sample(rng, d)
    p = 0.3 if family == "auc" else None
    op = make_operator(family, s, 0.25, d, p=p)
    (L,) = _bounds(family, [s], 0.25, d, p)
    for _ in range(50):
        z1 = rng.standard_normal(op.dim)
        z2 = rng.standard_normal(op.dim)
        num = np.linalg.norm(eval_operator(op, z1) - eval_operator(op, z2))
        den = np.linalg.norm(z1 - z2)
        assert num <= L * den * (1.0 + 1e-9)


@pytest.mark.parametrize("label", [1.0, -1.0])
def test_auc_lipschitz_is_jacobian_norm(label):
    # the auc operator is affine: its Jacobian, probed column by column,
    # has exactly the spectral norm the closed form reports
    rng = np.random.default_rng(10)
    d, lam = 7, 0.05
    for p in (0.2, 0.5, 0.9):
        s = _sample(rng, d, nnz=4, label=label)
        op = make_operator("auc", s, lam, d, p=p)
        base = eval_component(op, np.zeros(op.dim)).to_dense()
        J = np.column_stack([eval_component(op, e).to_dense() - base
                             for e in np.eye(op.dim)])
        exact = np.linalg.norm(J, 2) + lam
        (L,) = _bounds("auc", [s], lam, d, p)
        assert L == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_lipschitz_bound_rows_equal_one_sample_closed_form(family):
    # every row's bound is bitwise the closed form from that row's own
    # squared norm, whatever its place, sparsity or label in the matrix
    rng = np.random.default_rng(11)
    d, lam, p = 9, 0.05, 0.35
    samples = [_sample(rng, d, nnz=int(rng.integers(1, d + 1)),
                       label=None if family != "ridge" else float(rng.normal()))
               for _ in range(12)]
    L = _bounds(family, samples, lam, d, p if family == "auc" else None)
    assert L.shape == (len(samples),)
    for i, s in enumerate(samples):
        na2 = float(s.values @ s.values)
        if family == "ridge":
            expect = na2 + lam
        elif family == "logistic":
            expect = 0.25 * na2 + lam
        else:
            r, y = np.sqrt(na2), s.label
            c = 2.0 * (1 - p) if y > 0 else 2.0 * p
            M = np.array([[c * na2, -c * r, -y * c * r],
                          [-c * r, c, 0.0],
                          [y * c * r, 0.0, 2.0 * p * (1 - p)]])
            expect = float(np.linalg.norm(M, 2) + lam)
        assert L[i] == expect


def test_counters_track_usage():
    rng = np.random.default_rng(9)
    d = 4
    op = make_operator("ridge", _sample(rng, d), 0.1, d)
    reset_counters()
    eval_component(op, np.zeros(d))
    resolvent(op, 0.5, np.zeros(d))
    assert COUNTERS["component_evals"] >= 1
    assert COUNTERS["resolves"] == 1
    snap = reset_counters()
    assert snap["resolves"] == 1
    assert COUNTERS["resolves"] == 0
