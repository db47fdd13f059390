"""LIBSVM-style data handling: parsing, row normalization, node partitioning.

A dataset is one array form, `Rows`: the samples as CSR rows with int64
indices, plus labels and source lines; `Shards` is that form in node order.
Feature indices in the input are 1-based and strictly increasing per line;
internally everything is 0-based.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DatasetError(ValueError):
    pass


@dataclass
class Sample:
    """One row as its own arrays: the view a per-sample operator takes."""

    indices: np.ndarray
    values: np.ndarray
    label: float


@dataclass
class Rows:
    """The dataset: one CSR row per sample, with its label and line."""

    X: sp.csr_array      # Q x d
    y: np.ndarray        # labels
    line_no: np.ndarray  # each row's source line (generated rows: draw order)

    @property
    def Q(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class Shards(Rows):
    """Rows in node order: node n holds the next `sizes[n]` rows. `p` is
    the positive-class ratio and `rho` the largest row density nnz/d."""

    sizes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.sizes)

    @property
    def q_min(self) -> int:
        return int(self.sizes.min())

    @property
    def p(self) -> float:
        return int(np.count_nonzero(self.y > 0)) / self.Q

    @property
    def rho(self) -> float:
        return int(np.diff(self.X.indptr).max()) / self.d if self.d > 0 else 0.0


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every row's dot a_i . b_i, bitwise the 1-D `a_i @ b_i` (and so
    `np.linalg.norm`'s sqrt(a . a)): numpy sends a stack of 1 x n by
    n x 1 products to that same dot kernel. einsum sums in another order."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def row_sq_norms(X: sp.csr_array) -> np.ndarray:
    """Every CSR row's squared norm, bitwise its values' `v @ v`: rows of
    one length are gathered into a block and go through `row_dots`."""
    data, ptr, nnz = X.data, X.indptr, np.diff(X.indptr)
    out = np.empty(len(nnz))
    for n in np.unique(nnz):
        rows = np.flatnonzero(nnz == n)
        V = data[ptr[rows, None] + np.arange(n)]
        out[rows] = row_dots(V, V)
    return out


def parse_libsvm(stream) -> Rows:
    """Parse `label idx:val ...` lines, d being the largest index.

    Accepts a file object, bytes, or str. Blank lines are skipped; malformed
    lines and non-finite labels or values raise DatasetError with the
    offending line number.
    """
    if isinstance(stream, bytes):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    labels, line_nos, indptr, indices, values = [], [], [0], [], []
    for line_no, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise DatasetError(f"line {line_no}: non-numeric label {parts[0]!r}")
        if not math.isfinite(label):
            raise DatasetError(f"line {line_no}: non-finite label {parts[0]!r}")
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
            if not math.isfinite(v):
                raise DatasetError(f"line {line_no}: non-finite value {v_s!r}")
            prev = i
            indices.append(i - 1)
            values.append(v)
        labels.append(label)
        line_nos.append(line_no)
        indptr.append(len(indices))
    X = sp.csr_array((np.array(values), np.array(indices, dtype=np.int64), np.array(indptr)),
                     shape=(len(labels), max(indices, default=-1) + 1))
    return Rows(X, np.array(labels), np.array(line_nos, dtype=np.int64))


def read_libsvm(path) -> Rows:
    """Parse the UTF-8 LIBSVM file at `path`.

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


def normalize_rows(rows: Rows) -> Rows:
    """Divide every row by its l2 norm (bitwise `np.linalg.norm`), dropping
    explicit zero entries.

    All-zero samples are rejected (they carry no information and would break
    the unit-norm invariant downstream).
    """
    X = rows.X.copy()
    X.eliminate_zeros()
    nrm = np.sqrt(row_sq_norms(X))
    zero = np.flatnonzero(nrm == 0.0)
    if len(zero):
        raise DatasetError(f"line {rows.line_no[zero[0]]}: all-zero sample cannot be normalized")
    X.data /= np.repeat(nrm, np.diff(X.indptr))
    return Rows(X, rows.y, rows.line_no)


def partition(rows: Rows, n_nodes: int, seed: int) -> Shards:
    """Seeded shuffle followed by round-robin assignment: node n gets
    shuffled positions n, n + N, n + 2N, ...

    Shard sizes differ by at most one, remainders landing on low-index nodes.
    """
    if n_nodes < 1:
        raise DatasetError(f"node count must be positive, got {n_nodes}")
    if rows.Q < n_nodes:
        raise DatasetError(f"{rows.Q} samples cannot fill {n_nodes} nodes")
    perm = np.random.default_rng(seed).permutation(rows.Q)
    order = np.concatenate([perm[n::n_nodes] for n in range(n_nodes)])
    return Shards(rows.X[order], rows.y[order], rows.line_no[order],
                  np.bincount(np.arange(rows.Q) % n_nodes))


def default_lambda(shards: Shards) -> float:
    """Regularization level 1/(10 Q) with Q the total sample count."""
    return 1.0 / (10.0 * shards.Q)


def shard_manifest(shards: Shards) -> dict:
    """Reproducibility record: per-shard sizes and content fingerprints
    (the first 12 hex digits of a SHA-256 over the shard's samples).

    A shard's hashed bytes are, per sample, 8-byte words: label and nnz as
    float64, the indices as int64, then the values as float64. Every
    shard's words are laid out in one array and each shard is hashed in
    one update."""
    X, Q = shards.X, shards.Q
    ptr, nnz = X.indptr, np.diff(X.indptr)
    start = 2 * (np.arange(Q) + ptr[:-1])  # each sample's first word
    words = np.empty(2 * (Q + X.nnz))
    words[start] = shards.y
    words[start + 1] = nnz
    at = np.arange(X.nnz) + np.repeat(start + 2 - ptr[:-1], nnz)  # index words
    words.view(np.int64)[at] = X.indices
    words[at + np.repeat(nnz, nnz)] = X.data
    bounds = np.append(start, len(words))[np.concatenate([[0], np.cumsum(shards.sizes)])]
    digests = [{"size": int(size), "fingerprint": hashlib.sha256(words[a:b]).hexdigest()[:12]}
               for size, a, b in zip(shards.sizes, bounds[:-1], bounds[1:])]
    return {
        "n_nodes": shards.n_nodes,
        "d": shards.d,
        "Q": shards.Q,
        "q_min": shards.q_min,
        "p": shards.p,
        "rho": shards.rho,
        "shards": digests,
    }
