import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import dsba
from dsba.dataset import (
    DatasetError,
    Rows,
    default_lambda,
    normalize_rows,
    parse_libsvm,
    partition,
    shard_manifest,
)

GOOD = """\
+1 1:0.5 3:1.5
-1 2:2.0

+1 1:1.0 2:1.0 4:0.25
"""


def test_parse_basic():
    rows = parse_libsvm(GOOD)
    assert rows.Q == 3
    assert rows.d == 4
    assert rows.y[0] == 1.0
    first = slice(*rows.X.indptr[:2])
    assert list(rows.X.indices[first]) == [0, 2]
    assert rows.X.indices.dtype == np.int64
    assert np.allclose(rows.X.data[first], [0.5, 1.5])
    # blank lines are skipped but line numbers track the file
    assert rows.line_no[2] == 4


def test_parse_accepts_bytes():
    rows = parse_libsvm(GOOD.encode())
    assert rows.Q == 3 and rows.d == 4


@pytest.mark.parametrize(
    "bad",
    [
        "x 1:1.0",          # non-numeric label
        "+1 1:abc",         # malformed value
        "+1 0:1.0",         # one-based indices required
        "+1 2:1.0 1:2.0",   # non-increasing indices
        "+1 2:1.0 2:2.0",   # duplicate index
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(DatasetError):
        parse_libsvm(bad)


@pytest.mark.parametrize("bad", ["nan 1:1.0", "inf 2:1.0", "-1e400 1:1.0",
                                 "+1 1:nan", "+1 1:1.0 2:-inf", "+1 2:1e400"])
def test_parse_rejects_non_finite(bad):
    # a nan or infinite label or value would run to a nan suboptimality
    with pytest.raises(DatasetError, match="line 2: non-finite"):
        parse_libsvm("+1 1:1.0\n" + bad)


def test_normalize_rows_unit_norm():
    rows = normalize_rows(parse_libsvm(GOOD))
    for values in np.split(rows.X.data, rows.X.indptr[1:-1]):
        assert np.isclose(np.linalg.norm(values), 1.0)


def test_normalize_rows_divides_by_the_row_norm_bitwise():
    rows = _toy_rows(30, seed=4, lengths=True)
    out = normalize_rows(rows)
    for k, (a, b) in enumerate(zip(rows.X.indptr[:-1], rows.X.indptr[1:])):
        values = rows.X.data[a:b]
        assert np.array_equal(out.X.data[a:b], values / np.linalg.norm(values)), k
    assert np.array_equal(out.X.indices, rows.X.indices)
    assert out.y is rows.y and out.line_no is rows.line_no


def test_normalize_drops_zero_entries():
    out = normalize_rows(parse_libsvm("1 1:3.0 2:0.0\n-1 1:0.0 3:-2.0 4:0.0"))
    assert list(out.X.indices) == [0, 2]
    assert list(out.X.indptr) == [0, 1, 2]
    assert list(out.X.data) == [1.0, -1.0]


def test_normalize_rejects_zero_sample():
    with pytest.raises(DatasetError, match="line 3"):
        normalize_rows(parse_libsvm("1 1:1.0\n\n1 1:0.0"))


def _toy_rows(n, d=6, seed=0, lengths=False):
    """n rows of 3 (or, with lengths, 1 to d) random entries, labels
    -1 on every third row and +1 elsewhere."""
    rng = np.random.default_rng(seed)
    nnz = rng.integers(1, d + 1, size=n) if lengths else np.full(n, 3)
    idx, val = zip(*[(np.sort(rng.choice(d, size=k, replace=False)), rng.standard_normal(k))
                     for k in nnz])
    X = sp.csr_array((np.concatenate(val), np.concatenate(idx),
                      np.concatenate([[0], np.cumsum(nnz)])), shape=(n, d))
    return Rows(X, np.where(np.arange(n) % 3, 1.0, -1.0), np.arange(1, n + 1))


def test_partition_balanced_and_deterministic():
    rows = _toy_rows(20)
    a = partition(rows, 3, seed=5)
    b = partition(rows, 3, seed=5)
    sizes = list(a.sizes)
    assert sum(sizes) == 20
    assert max(sizes) - min(sizes) <= 1
    assert a.q_min == min(sizes)
    assert np.array_equal(a.line_no, b.line_no)


def test_partition_is_round_robin_over_the_shuffle():
    rows = _toy_rows(23)
    shards = partition(rows, 4, seed=5)
    perm = np.random.default_rng(5).permutation(23)
    starts = np.cumsum(shards.sizes) - shards.sizes
    for k, j in enumerate(perm):
        n, i = k % 4, k // 4
        at = starts[n] + i
        assert shards.line_no[at] == rows.line_no[j] and shards.y[at] == rows.y[j]
        assert np.array_equal(shards.X[[at]].toarray(), rows.X[[j]].toarray())
    assert list(shards.sizes) == [6, 6, 6, 5]


def test_partition_statistics():
    rows = _toy_rows(12, d=6)
    shards = partition(rows, 4, seed=1)
    assert shards.Q == 12
    assert shards.d == 6
    assert np.isclose(shards.p, sum(1 for label in rows.y if label > 0) / 12)
    assert np.isclose(shards.rho, 3 / 6)


def test_partition_rejects_too_few_samples():
    with pytest.raises(DatasetError):
        partition(_toy_rows(2), 5, seed=0)


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_partition_rejects_non_positive_node_counts(n_nodes):
    with pytest.raises(DatasetError, match="node count"):
        partition(_toy_rows(4), n_nodes, seed=0)


def test_default_lambda():
    shards = partition(_toy_rows(20), 2, seed=0)
    assert np.isclose(default_lambda(shards), 1.0 / 200.0)


def test_shard_manifest_roundtrips_counts():
    shards = partition(_toy_rows(20), 3, seed=0)
    m = shard_manifest(shards)
    assert m["Q"] == 20
    assert m["d"] == 6
    assert m["n_nodes"] == 3


FINGERPRINTS = """
import json
import numpy as np
import scipy.sparse as sp
from dsba.dataset import Rows, partition, shard_manifest

def stack(draws):
    idx, val, y = zip(*draws)
    X = sp.csr_array((np.concatenate(val), np.concatenate(idx),
                      np.cumsum([0] + [len(i) for i in idx])), shape=(len(y), 6))
    return Rows(X, np.array(y), np.arange(len(y)))

rng = np.random.default_rng(0)
samples = stack((np.sort(rng.choice(6, size=3, replace=False)),
                 rng.standard_normal(3), 1.0 if k % 3 else -1.0)
                for k in range(20))
rng = np.random.default_rng(1)
ragged = stack((np.sort(rng.choice(6, size=n, replace=False)), rng.standard_normal(n),
                float(rng.standard_normal()))
               for n in rng.integers(1, 7, size=25))
print(json.dumps([[s["fingerprint"] for s in shard_manifest(shards)["shards"]]
                  for shards in (partition(samples, 3, seed=0),
                                 partition(ragged, 4, seed=2))]))
"""

# The digest format: per sample, [label, nnz] as float64, the indices as int64
# and the values as float64. Both fixtures' values come straight from the
# generator, with no BLAS reduction, so these literals hold on every CPU.
PINNED_FINGERPRINTS = [
    ["f12c9ce630a1", "a78827f14674", "32b47dc2d125"],
    # row lengths 1 to 6
    ["588554277fda", "5b1718eee2c5", "99712b8e6a44", "02accb91bf77"],
]


def test_shard_fingerprints_independent_of_hash_seed():
    src = str(Path(dsba.__file__).resolve().parents[1])
    prints = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", FINGERPRINTS], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        prints.append(json.loads(proc.stdout))
    assert prints[0] == prints[1] == PINNED_FINGERPRINTS
