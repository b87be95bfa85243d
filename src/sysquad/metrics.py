"""All-pairs distances by one bit-parallel, level-synchronous BFS.

Every distance matrix in the package comes from ``_bfs``. It runs the
breadth-first searches from all sources at once: vertex v holds a bitset
(``np.packbits``, one bit per source) of the sources whose search reached
v at the current depth, and one level ORs each vertex's neighbour bitsets.
"""

from __future__ import annotations

import numpy as np

from .complexes import Graph


def vertex_order(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.vertices))


def _bfs(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Distances of the graph on 0..n-1 with symmetric edge list (rows, cols).

    ``rows`` must be sorted. See ``all_pairs`` for the dtype and sentinel.
    """
    D = np.full((n, n), n, dtype=np.min_scalar_type(2 * n))
    np.fill_diagonal(D, 0)
    starts = np.searchsorted(rows, np.arange(n))
    # reduceat reads an empty segment as the row at its start (and fails
    # past the end), so it only gets the segments of vertices with neighbours
    has = np.bincount(rows, minlength=n) > 0
    frontier = np.packbits(np.eye(n, dtype=bool), axis=1)
    seen = frontier.copy()
    reached = np.zeros_like(frontier)
    depth = 0
    while frontier.any():
        depth += 1
        reached[has] = np.bitwise_or.reduceat(frontier[cols], starts[has], axis=0)
        frontier = reached & ~seen
        seen |= frontier
        D[np.unpackbits(frontier, axis=1, count=n).view(bool)] = depth
    return D


def all_pairs(g: Graph, order: tuple[int, ...] | None = None) -> np.ndarray:
    """Full distance matrix of ``g``; rows and columns follow ``order``.

    With n vertices the dtype is ``np.min_scalar_type(2 * n)`` and an
    unreachable pair holds the sentinel n, larger than every distance
    (at most n - 1). The dtype holds 2n, so sums such as D[u] + D[v] and
    D[k] + 1 never wrap; a difference such as D[x] - 1 can.
    """
    order = order or vertex_order(g)
    idx = {v: i for i, v in enumerate(order)}
    rows = np.repeat(np.arange(len(order)), [g.degree(v) for v in order])
    cols = np.array([idx[w] for v in order for w in g.neighbors(v)], dtype=np.intp)
    return _bfs(rows, cols, len(order))


def induced_distances(dist: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Distances inside the subgraph induced on the index array ``sub``.

    ``dist`` is a full distance matrix; its entries equal to 1 are the
    edges. Rows and columns of the result follow ``sub``. Dtype and
    sentinel are those of ``all_pairs`` with n = len(sub).
    """
    rows, cols = np.nonzero(dist[np.ix_(sub, sub)] == 1)
    return _bfs(rows, cols, len(sub))
