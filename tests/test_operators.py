import numpy as np
import pytest
import scipy.sparse as sp

from dsba.dataset import Shards
from dsba.operators import (
    COUNTERS,
    OperatorError,
    SampleMatrix,
    eval_component,
    lipschitz_bound,
    reset_counters,
    resolve_margins,
    resolve_regularized,
)


def _sample(rng, d, nnz=None, label=None):
    """A unit feature row with nnz random nonzeros, dense, and its label."""
    nnz = nnz or d
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    val = rng.standard_normal(nnz)
    a = np.zeros(d)
    a[idx] = val / np.linalg.norm(val)
    if label is None:
        label = 1.0 if rng.random() < 0.5 else -1.0
    return a, label


def _dim(family, d):
    return d + 3 if family == "auc" else d


def _bounds(family, samples, lam, d, p=None):
    """`lipschitz_bound` of the given (row, label) samples, as one node's rows."""
    X = sp.csr_array(np.array([a for a, _ in samples]))
    shards = Shards(X, np.array([y for _, y in samples]), np.arange(len(samples)),
                    np.array([len(samples)]))
    return lipschitz_bound(SampleMatrix.from_shards(family, shards, p), lam)


def test_unknown_family_rejected():
    rng = np.random.default_rng(0)
    a, y = _sample(rng, 4)
    with pytest.raises(OperatorError):
        eval_component("huber", a, y, np.zeros(4))


@pytest.mark.parametrize("family", ["ridge", "logistic"])
def test_component_support_is_sample_support(family):
    # the dense component is zero off the sample's support
    rng = np.random.default_rng(1)
    d = 12
    a, y = _sample(rng, d, nnz=4)
    out = eval_component(family, a, y, rng.standard_normal(d))
    assert set(np.flatnonzero(out)) <= set(np.flatnonzero(a))


def test_auc_component_support_adds_tail_coordinates():
    rng = np.random.default_rng(2)
    d = 8
    a, y = _sample(rng, d, nnz=3, label=1.0)
    out = eval_component("auc", a, y, rng.standard_normal(d + 3), p=0.4)
    # positive samples touch the positive-mean and slack coordinates only
    assert set(np.flatnonzero(out)) == set(np.flatnonzero(a)) | {d, d + 2}


def _resolvent(family, a, y, alpha, psi, p=None):
    """J_{alpha B}(psi) of the unregularized one-sample operator."""
    return resolve_regularized(family, a, y, alpha, 0.0, psi, p)


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_resolvent_identity_small(family):
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = 7
        a, y = _sample(rng, d)
        p = 0.5 if family == "auc" else None
        z = rng.standard_normal(_dim(family, d))
        alpha = float(rng.uniform(0.05, 1.5))
        u = _resolvent(family, a, y, alpha, z, p)
        assert np.max(np.abs(u + alpha * eval_component(family, a, y, u, p) - z)) < 1e-9


def test_logistic_resolvent_extreme_inputs():
    rng = np.random.default_rng(5)
    d = 5
    a, y = _sample(rng, d, label=1.0)
    for scale in (1e3, 1e6):
        z = scale * rng.standard_normal(d)
        u = _resolvent("logistic", a, y, 10.0, z)
        assert np.max(np.abs(u + 10.0 * eval_component("logistic", a, y, u) - z)) \
            < 1e-6 * scale


@pytest.mark.parametrize("family,scale", [("ridge", 1.0), ("logistic", 1.0),
                                          ("logistic", 1e3), ("logistic", 1e6),
                                          ("auc", 1.0)])
def test_kernel_batch_matches_per_sample_calls(family, scale):
    # one batched call over rows of both labels gives what one resolvent
    # call per row gives
    rng = np.random.default_rng(11)
    d, alpha = 9, 0.7
    labels = np.resize([1.0, -1.0], 12)
    X = np.array([_sample(rng, d, nnz=4, label=float(y))[0] for y in labels])
    psi = scale * rng.standard_normal((len(labels), _dim(family, d)))
    e, tail = resolve_margins(family, np.einsum("nd,nd->n", psi[:, :d], X),
                              np.einsum("nd,nd->n", X, X), labels, alpha,
                              psi[:, d:], 0.3)
    batched = psi.copy()
    batched[:, :d] -= alpha * e[:, None] * X
    if tail is not None:
        batched[:, d:] = tail
    for k, (a, y) in enumerate(zip(X, labels)):
        one = _resolvent(family, a, y, alpha, psi[k], 0.3)
        assert np.max(np.abs(batched[k] - one)) <= 1e-12 * scale, (k, y)


@pytest.mark.parametrize("label", [1.0, -1.0])
def test_auc_closed_form_matches_4x4_solve(label):
    # the fixed point of the auc resolvent as the 4x4 linear system in
    # (a'w_out, a_out, b_out, theta_out) it was first written as
    rng = np.random.default_rng(12)
    d = 6
    for p in (0.2, 0.5, 0.9):
        a, _ = _sample(rng, d, nnz=3, label=label)
        alpha = float(rng.uniform(0.05, 3.0))
        psi = rng.standard_normal(d + 3)
        na2 = float(a @ a)
        sw = float(a @ psi[:d])
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
        u = _resolvent("auc", a, label, alpha, psi, p)
        assert float(a @ u[:d]) == pytest.approx(sc, abs=1e-12)
        assert np.allclose(u[d:], [a_out, b_out, theta_out], rtol=0, atol=1e-12)


def test_wrap_l2_matches_regularized_resolvent():
    # J_{alpha(B + lam I)}(z) = J_{rho alpha B}(rho z), rho = 1/(1 + lam alpha),
    # and its output u solves u + alpha (B(u) + lam u) = z
    rng = np.random.default_rng(6)
    d = 6
    a, y = _sample(rng, d)
    lam, alpha = 0.4, 0.3
    z = rng.standard_normal(d)
    direct = resolve_regularized("ridge", a, y, alpha, lam, z)
    rho = 1.0 / (1.0 + lam * alpha)
    wrapped = _resolvent("ridge", a, y, rho * alpha, rho * z)
    assert np.allclose(direct, wrapped, atol=1e-12)
    residual = direct + alpha * (eval_component("ridge", a, y, direct) + lam * direct) - z
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("family", ["ridge", "logistic", "auc"])
def test_lipschitz_bound_dominates_observed_ratios(family):
    rng = np.random.default_rng(7)
    d, lam = 6, 0.25
    a, y = _sample(rng, d)
    p = 0.3 if family == "auc" else None
    (L,) = _bounds(family, [(a, y)], lam, d, p)

    def B(z):
        return eval_component(family, a, y, z, p) + lam * z

    for _ in range(50):
        z1 = rng.standard_normal(_dim(family, d))
        z2 = rng.standard_normal(_dim(family, d))
        num = np.linalg.norm(B(z1) - B(z2))
        den = np.linalg.norm(z1 - z2)
        assert num <= L * den * (1.0 + 1e-9)


@pytest.mark.parametrize("label", [1.0, -1.0])
def test_auc_lipschitz_is_jacobian_norm(label):
    # the auc operator is affine: its Jacobian, probed column by column,
    # has exactly the spectral norm the closed form reports
    rng = np.random.default_rng(10)
    d, lam = 7, 0.05
    for p in (0.2, 0.5, 0.9):
        a, y = _sample(rng, d, nnz=4, label=label)
        base = eval_component("auc", a, y, np.zeros(d + 3), p)
        J = np.column_stack([eval_component("auc", a, y, e, p) - base
                             for e in np.eye(d + 3)])
        exact = np.linalg.norm(J, 2) + lam
        (L,) = _bounds("auc", [(a, y)], lam, d, p)
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
    for i, (a, y) in enumerate(samples):
        v = a[a != 0]  # the row's stored values
        na2 = float(v @ v)
        if family == "ridge":
            expect = na2 + lam
        elif family == "logistic":
            expect = 0.25 * na2 + lam
        else:
            r = np.sqrt(na2)
            c = 2.0 * (1 - p) if y > 0 else 2.0 * p
            M = np.array([[c * na2, -c * r, -y * c * r],
                          [-c * r, c, 0.0],
                          [y * c * r, 0.0, 2.0 * p * (1 - p)]])
            expect = float(np.linalg.norm(M, 2) + lam)
        assert L[i] == expect


def test_counters_track_usage():
    rng = np.random.default_rng(9)
    d = 4
    a, y = _sample(rng, d)
    reset_counters()
    eval_component("ridge", a, y, np.zeros(d))
    resolve_regularized("ridge", a, y, 0.5, 0.1, np.zeros(d))
    assert COUNTERS["component_evals"] >= 1
    assert COUNTERS["resolves"] == 1
    snap = reset_counters()
    assert snap["resolves"] == 1
    assert COUNTERS["resolves"] == 0
