"""Bulk distance computations backed by scipy's C-level graph search."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .complexes import Graph


def vertex_order(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.vertices))


def adjacency_csr(g: Graph, order: tuple[int, ...] | None = None) -> csr_matrix:
    order = order or vertex_order(g)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = []
    cols = []
    for u, w in sorted(g.edges):
        iu, iw = idx[u], idx[w]
        rows.extend((iu, iw))
        cols.extend((iw, iu))
    data = np.ones(len(rows), dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def all_pairs(g: Graph, order: tuple[int, ...] | None = None) -> np.ndarray:
    """Full distance matrix (float64, inf where disconnected)."""
    order = order or vertex_order(g)
    mat = adjacency_csr(g, order)
    if len(order) == 0:
        return np.zeros((0, 0))
    return dijkstra(mat, directed=False, unweighted=True)


def induced_distances(dist: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Distances inside the subgraph induced on the index array ``sub``.

    ``dist`` is a full distance matrix; its entries equal to 1 are the
    edges. Rows and columns of the result follow ``sub``; float64 with
    inf where the induced subgraph is disconnected.
    """
    adj = csr_matrix(dist[np.ix_(sub, sub)] == 1)
    return dijkstra(adj, directed=False, unweighted=True)
