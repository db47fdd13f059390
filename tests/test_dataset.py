import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsba
from dsba.dataset import (
    DatasetError,
    Sample,
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
    samples, d = parse_libsvm(GOOD)
    assert len(samples) == 3
    assert d == 4
    assert samples[0].label == 1.0
    assert list(samples[0].indices) == [0, 2]
    assert np.allclose(samples[0].values, [0.5, 1.5])
    # blank lines are skipped but line numbers track the file
    assert samples[2].line_no == 4


def test_parse_accepts_bytes():
    samples, d = parse_libsvm(GOOD.encode())
    assert len(samples) == 3 and d == 4


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


def test_normalize_rows_unit_norm():
    samples, _ = parse_libsvm(GOOD)
    for s in normalize_rows(samples):
        assert np.isclose(np.linalg.norm(s.values), 1.0)


def test_normalize_drops_zero_entries():
    out = normalize_rows([Sample(np.array([0, 1]), np.array([3.0, 0.0]), 1.0)])
    assert list(out[0].indices) == [0]


def test_normalize_rejects_zero_sample():
    with pytest.raises(DatasetError):
        normalize_rows([Sample(np.array([0]), np.array([0.0]), 1.0)])


def _toy_samples(n, d=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        idx = np.sort(rng.choice(d, size=3, replace=False))
        out.append(Sample(idx, rng.standard_normal(3), 1.0 if k % 3 else -1.0))
    return out


def test_partition_balanced_and_deterministic():
    samples = _toy_samples(20)
    a = partition(samples, 3, seed=5)
    b = partition(samples, 3, seed=5)
    sizes = [len(sh) for sh in a.per_node]
    assert sum(sizes) == 20
    assert max(sizes) - min(sizes) <= 1
    assert a.q_min == min(sizes)
    for sa, sb in zip(a.per_node, b.per_node):
        assert [s.line_no for s in sa] == [s.line_no for s in sb]


def test_partition_statistics():
    samples = _toy_samples(12, d=6)
    shards = partition(samples, 4, seed=1, d=6)
    assert shards.Q == 12
    assert shards.d == 6
    assert np.isclose(shards.p, sum(1 for s in samples if s.label > 0) / 12)
    assert np.isclose(shards.rho, 3 / 6)


def test_partition_rejects_too_few_samples():
    with pytest.raises(DatasetError):
        partition(_toy_samples(2), 5, seed=0)


def test_default_lambda():
    shards = partition(_toy_samples(20), 2, seed=0)
    assert np.isclose(default_lambda(shards), 1.0 / 200.0)


def test_shard_manifest_roundtrips_counts():
    shards = partition(_toy_samples(20), 3, seed=0, d=6)
    m = shard_manifest(shards)
    assert m["Q"] == 20
    assert m["d"] == 6
    assert m["n_nodes"] == 3


FINGERPRINTS = """
import json
import numpy as np
from dsba.dataset import Sample, partition, shard_manifest
rng = np.random.default_rng(0)
samples = [Sample(np.sort(rng.choice(6, size=3, replace=False)),
                  rng.standard_normal(3), 1.0 if k % 3 else -1.0)
           for k in range(20)]
rng = np.random.default_rng(1)
ragged = [Sample(np.sort(rng.choice(6, size=n, replace=False)), rng.standard_normal(n),
                 float(rng.standard_normal()))
          for n in rng.integers(1, 7, size=25)]
print(json.dumps([[s["fingerprint"] for s in shard_manifest(shards)["shards"]]
                  for shards in (partition(samples, 3, seed=0, d=6),
                                 partition(ragged, 4, seed=2, d=6))]))
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
