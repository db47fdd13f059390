"""Index/value sparse vectors.

No module of the package uses them; the module stays because the
benchmark's tracer (`perfbench/spans.py`) counts `SparseVec.add_into` calls.
Indices are sorted, unique int64; values are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SparseVec:
    idx: np.ndarray
    val: np.ndarray
    dim: int

    def add_into(self, dense: np.ndarray, scale: float = 1.0) -> None:
        """dense += scale * self, in place. Indices are unique so plain
        fancy-index accumulation is safe."""
        dense[self.idx] += scale * self.val
