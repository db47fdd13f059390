"""Index/value sparse vectors.

Used for operator outputs, history-table entries and the delta payloads
that go over the (simulated) wire. Indices are sorted, unique int64;
values are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SparseVec:
    idx: np.ndarray
    val: np.ndarray
    dim: int

    @classmethod
    def zero(cls, dim: int) -> "SparseVec":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), dim)

    @property
    def nnz(self) -> int:
        return int(len(self.idx))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.idx] = self.val
        return out

    def add_into(self, dense: np.ndarray, scale: float = 1.0) -> None:
        """dense += scale * self, in place. Indices are unique so plain
        fancy-index accumulation is safe."""
        dense[self.idx] += scale * self.val
