import numpy as np
from hypothesis import given, strategies as st

from dsba.sparse import SparseVec


def dense_arrays(min_dim=1, max_dim=20):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=d, max_size=d
        ).map(np.array)
    )


def _nonzeros(x):
    nz = np.flatnonzero(x)
    return SparseVec(nz, x[nz], len(x))


@given(dense_arrays())
def test_roundtrip_dense(x):
    v = _nonzeros(x)
    assert np.array_equal(v.to_dense(), x)


@given(dense_arrays())
def test_nnz_counts_nonzeros(x):
    assert _nonzeros(x).nnz == int(np.count_nonzero(x))


@given(dense_arrays(), st.floats(-5, 5, allow_nan=False))
def test_add_into_matches_dense_axpy(x, scale):
    v = _nonzeros(x)
    acc = np.ones_like(x)
    v.add_into(acc, scale)
    assert np.allclose(acc, 1.0 + scale * x)


def test_zero():
    z = SparseVec.zero(4)
    assert z.nnz == 0
    assert np.array_equal(z.to_dense(), np.zeros(4))
