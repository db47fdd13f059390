import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsba.topology import (
    TopologyError,
    bfs_distances,
    build_mixing,
    check_adjacency,
    check_mixing_conditions,
    is_connected,
    laplacian,
    make_adjacency,
)


def test_make_adjacency_shapes():
    for kind, n in [("complete", 5), ("ring", 6), ("path", 4), ("star", 7)]:
        A = make_adjacency(kind, n)
        assert A.shape == (n, n)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        assert is_connected(A)


def test_ring_and_path_degrees():
    ring = make_adjacency("ring", 6)
    assert np.all(ring.sum(axis=1) == 2)
    path = make_adjacency("path", 6)
    assert sorted(path.sum(axis=1)) == [1, 1, 2, 2, 2, 2]


def test_star_degrees():
    star = make_adjacency("star", 5)
    assert sorted(star.sum(axis=1)) == [1, 1, 1, 1, 4]


def test_erdos_renyi_connected_and_seeded():
    a = make_adjacency("erdos_renyi", 9, p=0.3, seed=4)
    b = make_adjacency("erdos_renyi", 9, p=0.3, seed=4)
    assert np.array_equal(a, b)
    assert is_connected(a)


def test_check_adjacency_rejects_bad_input():
    with pytest.raises(TopologyError):
        check_adjacency(np.ones((3, 3)))  # self-loops
    with pytest.raises(TopologyError):
        check_adjacency(np.triu(np.ones((3, 3)), 1))  # asymmetric


def test_bfs_distances_path():
    A = make_adjacency("path", 5)
    D = bfs_distances(A)
    assert D[0, 4] == 4
    assert D[2, 2] == 0
    assert np.array_equal(D, D.T)


def _queue_bfs(A):
    """All-pairs hop distances, one queue BFS per source: the reference."""
    n = len(A)
    D = -np.ones((n, n), dtype=np.int64)
    for s in range(n):
        D[s, s] = 0
        queue = [s]
        for u in queue:
            for v in np.flatnonzero(A[u]):
                if D[s, v] < 0:
                    D[s, v] = D[s, u] + 1
                    queue.append(v)
    return D


def test_bfs_distances_match_queue_bfs():
    graphs = [make_adjacency(kind, n) for kind, n in
              [("path", 7), ("ring", 8), ("star", 6), ("complete", 5), ("path", 1)]]
    graphs += [make_adjacency("erdos_renyi", n, p=p, seed=seed)
               for n, p, seed in [(10, 0.4, 0), (12, 0.2, 3), (20, 0.15, 7)]]
    split = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (3, 4)]:
        split[i, j] = split[j, i] = 1.0
    for A in graphs + [split]:
        D = bfs_distances(A)
        assert D.dtype == np.int64
        assert np.array_equal(D, _queue_bfs(A))
    D = bfs_distances(split)
    assert D[0, 2] == 2 and D[0, 3] == -1 and D[3, 5] == -1 and D[5, 5] == 0
    assert not is_connected(split)


def test_laplacian_rows_sum_to_zero():
    A = make_adjacency("erdos_renyi", 8, p=0.5, seed=1)
    L = laplacian(A)
    assert np.all(L.sum(axis=1) == 0)
    assert np.all(np.diag(L) == A.sum(axis=1))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 10), st.integers(0, 100))
def test_mixing_conditions_hold(n, seed):
    A = make_adjacency("erdos_renyi", n, p=0.5, seed=seed)
    mix = build_mixing(A)
    assert all(check_mixing_conditions(mix).values())


def test_mixing_rejects_small_tau():
    A = make_adjacency("ring", 5)
    with pytest.raises(TopologyError):
        build_mixing(A, tau=0.1)


def test_mixing_tau_scale():
    A = make_adjacency("ring", 5)
    L = laplacian(A)
    lmax = float(np.linalg.eigvalsh(L)[-1])
    mix = build_mixing(A, tau=2.0 * lmax)
    assert np.allclose(mix.W, np.eye(5) - L / (2.0 * lmax))
    assert mix.tau == pytest.approx(2.0 * lmax)


def test_mixing_single_node():
    mix = build_mixing(np.zeros((1, 1)))
    assert mix.W[0, 0] == 1.0
    assert mix.gamma == 1.0


def test_mixing_rejects_disconnected():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    with pytest.raises(TopologyError):
        build_mixing(A)


def test_eccentricity_and_diameter():
    mix = build_mixing(make_adjacency("path", 5))
    assert mix.distances.max(axis=1).max() == 4
    assert mix.distances.max(axis=1).min() == 2
