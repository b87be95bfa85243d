"""All-pairs distances on a graph's vertex indices.

Every distance matrix in the package comes from ``_bfs``. It runs the
breadth-first searches from all sources at once: vertex v holds a bitset
(``np.packbits``, one bit per source) of the sources whose search reached
v at the current depth. The graph is a padded neighbour table, so one
level is one row gather of the frontier per table column, ORed together:
the padding points at an extra all-zero frontier row, which adds nothing.
The matrix is a count: each level adds one for every source that has not
reached v yet, so no level writes its depth through a mask.
"""

from __future__ import annotations

import numpy as np

from .complexes import Graph, _padded

# frontier rows unpacked at a time: a block of 1024 x n booleans stays far
# below the n x n matrix, so the unpacking adds little to peak memory
_UNPACK_ROWS = 1024


def vertex_order(g: Graph) -> tuple[int, ...]:
    """The sorted vertex ids of ``g``: index i of every array is ``vertex_order(g)[i]``.

    Kept for the benchmark worker (``perfbench/worker.py``), its only
    caller; the package reads ``g._order``.
    """
    return g._order


def _bfs(nbr: np.ndarray) -> np.ndarray:
    """Distances of the graph with neighbour table ``nbr``, padded with n = len(nbr).

    See ``all_pairs`` for the dtype and sentinel. Level k of the search
    from u reaches the vertices at distance k. Before level k, each v that
    u has not reached adds one to D[v, u]; that is when k <= d(u, v), so
    D[v, u] ends at d(u, v). The last of the L levels reaches nothing, so
    L is above every distance, and a pair that never meets counts all L
    levels: one pass over the blocks turns those entries into the
    sentinel. Besides the matrix, the search holds four n x n/8 bitsets
    and one block of unpacked rows.
    """
    n = len(nbr)
    D = np.zeros((n, n), dtype=np.min_scalar_type(2 * n))
    frontier = np.zeros((n + 1, (n + 7) // 8), dtype=np.uint8)
    v = np.arange(n)
    frontier[v, v >> 3] = np.right_shift(128, v & 7)  # bit v of row v, as packbits
    live = frontier[:n]  # a view: row n stays zero
    seen = live.copy()
    reached = np.empty_like(seen)
    step = np.empty_like(seen)
    depth = 0
    while frontier.any():
        depth += 1
        # the indices are valid, and mode="clip" lets take write to out unbuffered
        np.take(frontier, nbr[:, 0], axis=0, out=reached, mode="clip")
        for column in nbr.T[1:]:
            np.take(frontier, column, axis=0, out=step, mode="clip")
            reached |= step
        np.invert(seen, out=step)  # the sources that have not reached v yet
        for lo in range(0, n, _UNPACK_ROWS):
            D[lo:lo + _UNPACK_ROWS] += np.unpackbits(step[lo:lo + _UNPACK_ROWS], axis=1, count=n)
        np.bitwise_and(reached, step, out=live)
        seen |= live
    for lo in range(0, n, _UNPACK_ROWS):  # the unreached pairs, where D is depth
        block = D[lo:lo + _UNPACK_ROWS]
        np.putmask(block, block == depth, n)
    return D


def all_pairs(g: Graph, order: tuple[int, ...] | None = None) -> np.ndarray:
    """Full distance matrix of ``g``; rows and columns follow ``vertex_order(g)``.

    ``order``, when given, must be that order; only the benchmark worker
    passes it.

    With n vertices the dtype is ``np.min_scalar_type(2 * n)`` and an
    unreachable pair holds the sentinel n, larger than every distance
    (at most n - 1). The dtype holds 2n, so sums such as D[u] + D[v] and
    D[k] + 1 never wrap; a difference such as D[x] - 1 can.
    """
    if order is not None and order != g._order:
        raise ValueError("order must be vertex_order(g)")
    return _bfs(_padded(g._ptr, g._nbr, len(g._order)))


def induced_distances(dist: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Distances inside the subgraph induced on the index array ``sub``.

    ``dist`` is a full distance matrix; its entries equal to 1 are the
    edges. Rows and columns of the result follow ``sub``. Dtype and
    sentinel are those of ``all_pairs`` with n = len(sub).
    """
    adj = dist[np.ix_(sub, sub)] == 1
    ptr = np.append(0, np.cumsum(adj.sum(axis=1)))
    return _bfs(_padded(ptr, np.nonzero(adj)[1], len(sub)))
