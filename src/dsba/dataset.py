"""LIBSVM-style data handling: parsing, row normalization, node partitioning.

Feature indices in the input are 1-based and strictly increasing per line;
internally everything is 0-based.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass
class Sample:
    indices: np.ndarray
    values: np.ndarray
    label: float
    line_no: int = 0

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass
class Shards:
    per_node: list
    d: int
    q_min: int
    p: float
    Q: int
    rho: float

    @property
    def n_nodes(self) -> int:
        return len(self.per_node)


def parse_libsvm(stream):
    """Parse `label idx:val ...` lines. Returns (samples, d).

    Accepts a file object, bytes, or str. Blank lines are skipped, malformed
    lines raise DatasetError with the offending line number.
    """
    if isinstance(stream, bytes):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    samples = []
    d = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise DatasetError(f"line {line_no}: non-numeric label {parts[0]!r}")
        idx = []
        val = []
        prev = 0
        for tok in parts[1:]:
            try:
                i_s, v_s = tok.split(":")
                i = int(i_s)
                v = float(v_s)
            except ValueError:
                raise DatasetError(f"line {line_no}: malformed pair {tok!r}")
            if i < 1:
                raise DatasetError(f"line {line_no}: index {i} < 1")
            if i <= prev:
                raise DatasetError(f"line {line_no}: non-increasing index {i}")
            prev = i
            idx.append(i - 1)
            val.append(v)
        samples.append(
            Sample(np.asarray(idx, dtype=np.int64), np.asarray(val), label, line_no)
        )
        if idx:
            d = max(d, idx[-1] + 1)
    return samples, d


def read_libsvm(path):
    """Parse the UTF-8 LIBSVM file at `path`. Returns (samples, d).

    A file that cannot be opened or is not UTF-8 text raises DatasetError
    naming the path, like a malformed line does.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_libsvm(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text ({exc.reason})") from None


def normalize_rows(samples):
    """Scale every sample to unit l2 norm, dropping explicit zero entries.

    All-zero samples are rejected (they carry no information and would break
    the unit-norm invariant downstream).
    """
    out = []
    for s in samples:
        keep = s.values != 0.0
        idx = s.indices[keep]
        val = s.values[keep]
        nrm = float(np.linalg.norm(val))
        if nrm == 0.0:
            raise DatasetError(f"line {s.line_no}: all-zero sample cannot be normalized")
        out.append(Sample(idx, val / nrm, s.label, s.line_no))
    return out


def partition(samples, n_nodes: int, seed: int, d: int | None = None) -> Shards:
    """Seeded shuffle followed by round-robin assignment.

    Shard sizes differ by at most one, remainders landing on low-index nodes.
    Global statistics (p, Q, rho) are computed before the split.
    """
    if len(samples) < n_nodes:
        raise DatasetError(f"{len(samples)} samples cannot fill {n_nodes} nodes")
    if d is None:
        d = max((int(s.indices[-1]) + 1 for s in samples if s.nnz), default=0)
    Q = len(samples)
    pos = sum(1 for s in samples if s.label > 0)
    p = pos / Q
    rho = max(s.nnz / d for s in samples) if d > 0 else 0.0
    perm = np.random.default_rng(seed).permutation(Q)
    per_node = [[] for _ in range(n_nodes)]
    for k, j in enumerate(perm):
        per_node[k % n_nodes].append(samples[j])
    q_min = min(len(shard) for shard in per_node)
    return Shards(per_node, d, q_min, p, Q, rho)


def default_lambda(shards: Shards) -> float:
    """Regularization level 1/(10 Q) with Q the total sample count."""
    if shards.Q <= 0:
        raise DatasetError("empty dataset")
    return 1.0 / (10.0 * shards.Q)


def shard_manifest(shards: Shards) -> dict:
    """Reproducibility record: per-shard sizes and content fingerprints
    (the first 12 hex digits of a SHA-256 over the shard's samples)."""
    digests = []
    for shard in shards.per_node:
        h = hashlib.sha256()
        for s in shard:
            h.update(np.array([s.label, s.nnz], dtype=np.float64).tobytes())
            h.update(s.indices.astype(np.int64).tobytes())
            h.update(s.values.astype(np.float64).tobytes())
        digests.append({"size": len(shard), "fingerprint": h.hexdigest()[:12]})
    return {
        "n_nodes": shards.n_nodes,
        "d": shards.d,
        "Q": shards.Q,
        "q_min": shards.q_min,
        "p": shards.p,
        "rho": shards.rho,
        "shards": digests,
    }


def write_shard_manifest(shards: Shards, path) -> None:
    with open(path, "w") as fh:
        json.dump(shard_manifest(shards), fh, indent=2)
