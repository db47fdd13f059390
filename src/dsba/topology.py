"""Network topologies and gossip mixing matrices.

A topology is an undirected connected graph on N nodes. The mixing matrix is
built from the graph Laplacian as W = I - L/tau with tau = lambda_max(L), so
that W is symmetric, doubly stochastic, positive semidefinite, and respects
the sparsity pattern of the graph. The averaged matrix is Wt = (W + I)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TopologyError(ValueError):
    pass


def adjacency_complete(n: int) -> np.ndarray:
    A = np.ones((n, n)) - np.eye(n)
    return A


def adjacency_ring(n: int) -> np.ndarray:
    if n < 3:
        raise TopologyError("ring needs n >= 3")
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return A


def adjacency_path(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def adjacency_star(n: int) -> np.ndarray:
    if n < 2:
        raise TopologyError("star needs n >= 2")
    A = np.zeros((n, n))
    A[0, 1:] = A[1:, 0] = 1.0
    return A


def adjacency_erdos_renyi(n: int, p: float, seed: int, max_tries: int = 1000) -> np.ndarray:
    """Random G(n, p) graph, resampled until connected."""
    if not (0.0 < p <= 1.0):
        raise TopologyError("edge probability must be in (0, 1]")
    if n == 1:
        return np.zeros((1, 1))
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        U = rng.random((n, n)) < p
        A = np.triu(U, 1).astype(np.float64)
        A = A + A.T
        if is_connected(A):
            return A
    raise TopologyError(f"no connected G({n},{p}) graph after {max_tries} tries "
                        "(edge probability too small for this size)")


_NAMED = {
    "complete": adjacency_complete,
    "ring": adjacency_ring,
    "path": adjacency_path,
    "star": adjacency_star,
}


def make_adjacency(kind: str, n: int, p: float = 0.4, seed: int = 0) -> np.ndarray:
    if kind in _NAMED:
        return _NAMED[kind](n)
    if kind in ("erdos_renyi", "random"):
        return adjacency_erdos_renyi(n, p, seed)
    raise TopologyError(f"unknown topology {kind!r}")


def check_adjacency(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise TopologyError("adjacency must be square")
    if not np.array_equal(A, A.T):
        raise TopologyError("adjacency must be symmetric")
    if np.any(np.diag(A) != 0):
        raise TopologyError("adjacency must have zero diagonal")
    if not np.isin(A, (0.0, 1.0)).all():
        raise TopologyError("adjacency must be 0/1")
    return A


def bfs_distances(A: np.ndarray) -> np.ndarray:
    """All-pairs hop distances; unreachable pairs get -1.

    One breadth-first search from every node at once: row s of the
    frontier holds the nodes first reached from s at the current depth."""
    A = np.asarray(A) != 0
    frontier = np.eye(len(A), dtype=bool)
    reached = frontier.copy()
    D = -np.ones(A.shape, dtype=np.int64)
    dist = 0
    while frontier.any():
        D[frontier] = dist
        dist += 1
        frontier = (frontier @ A) & ~reached
        reached |= frontier
    return D


def is_connected(A: np.ndarray) -> bool:
    return bool((bfs_distances(A) >= 0).all())


def laplacian(A: np.ndarray) -> np.ndarray:
    return np.diag(A.sum(axis=1)) - A


@dataclass
class MixingMatrix:
    """Gossip matrix pair for a connected graph."""

    adjacency: np.ndarray
    W: np.ndarray
    Wt: np.ndarray  # (W + I)/2
    gamma: float    # smallest nonzero eigenvalue of (I - W)/2
    distances: np.ndarray = field(repr=False)
    tau: float = 1.0  # Laplacian scale: W = I - L/tau

    @property
    def n(self) -> int:
        return len(self.W)


def build_mixing(A, tau: float | None = None) -> MixingMatrix:
    """W = I - L/tau. By default tau = lambda_max(L), which makes W psd while
    keeping the required null-space and sparsity structure."""
    A = check_adjacency(A)
    if len(A) == 1:
        one = np.ones((1, 1))
        return MixingMatrix(A, one.copy(), one.copy(), 1.0, np.zeros((1, 1), dtype=np.int64))
    distances = bfs_distances(A)
    if (distances < 0).any():
        raise TopologyError("graph must be connected")
    L = laplacian(A)
    lmax = float(np.linalg.eigvalsh(L)[-1])
    if tau is None:
        tau = lmax
    elif tau < lmax:
        raise TopologyError(f"tau must be >= lambda_max(L) = {lmax:.6g} for psd W")
    W = np.eye(len(A)) - L / tau
    Wt = 0.5 * (W + np.eye(len(A)))
    evals = np.linalg.eigvalsh(0.5 * (np.eye(len(A)) - W))
    nonzero = evals[evals > 1e-10]
    if len(nonzero) != len(A) - 1:
        raise TopologyError("(I - W)/2 must have a simple zero eigenvalue")
    gamma = float(nonzero[0])
    return MixingMatrix(A, W, Wt, gamma, distances, tau=float(tau))


def check_mixing_conditions(mix: MixingMatrix, tol: float = 1e-10) -> dict:
    """The four gossip-matrix conditions:
    (i) sparsity: W_nm nonzero only on edges and the diagonal;
    (ii) symmetric and doubly stochastic;
    (iii) null(I - W) = span(1);
    (iv) 0 <= W <= I and 1/2 I <= Wt <= I in the psd order.
    """
    W, A = mix.W, mix.adjacency
    n = len(W)
    off = ~np.eye(n, dtype=bool)
    ok_sparsity = bool(np.all(np.abs(W[off & (A == 0)]) <= tol))
    ok_sym = bool(np.all(np.abs(W - W.T) <= tol))
    ok_stoch = bool(np.all(np.abs(W.sum(axis=1) - 1.0) <= tol))
    evals = np.linalg.eigvalsh(W)
    ok_null = int(np.sum(np.abs(np.linalg.eigvalsh(np.eye(n) - W)) <= 1e-8)) == 1
    ok_spectrum = bool(evals[0] >= -tol and evals[-1] <= 1.0 + tol)
    evt = np.linalg.eigvalsh(mix.Wt)
    ok_spectrum_t = bool(evt[0] >= 0.5 - tol and evt[-1] <= 1.0 + tol)
    return {
        "sparsity": ok_sparsity,
        "symmetric": ok_sym,
        "doubly_stochastic": ok_stoch,
        "simple_consensus_eigenvalue": ok_null,
        "spectrum_W": ok_spectrum,
        "spectrum_Wt": ok_spectrum_t,
    }
