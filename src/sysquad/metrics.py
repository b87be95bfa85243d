"""Vertex-indexed adjacency arrays, common neighbours, and all-pairs distances.

Every distance matrix in the package comes from ``_bfs``. It runs the
breadth-first searches from all sources at once: vertex v holds a bitset
(``np.packbits``, one bit per source) of the sources whose search reached
v at the current depth. The graph is a padded neighbour table, so one
level is one row gather of the frontier per table column, ORed together:
the padding points at an extra all-zero frontier row, which adds nothing.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .complexes import Graph

# frontier rows unpacked at a time: a block of 1024 x n booleans stays far
# below the n x n matrix, so the unpacking adds little to peak memory
_UNPACK_ROWS = 1024


def vertex_order(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.vertices))


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with lo[i] <= j < hi[i], grouped by i, each group ascending."""
    cnt = hi - lo
    row = np.repeat(np.arange(len(lo)), cnt)
    return row, lo[row] + np.arange(len(row)) - (np.cumsum(cnt) - cnt)[row]


def adjacency(g: Graph, order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric edge list (rows, cols) of ``g`` on the indices in ``order``.

    Sorted by row; a row follows ``g.neighbors`` (ascending ids), so it
    ascends when ``order`` is sorted.
    """
    idx = {v: i for i, v in enumerate(order)}
    nbrs = list(map(g.neighbors, order))
    rows = np.repeat(np.arange(len(order)), list(map(len, nbrs)))
    cols = np.fromiter(map(idx.__getitem__, chain.from_iterable(nbrs)),
                       dtype=np.intp, count=len(rows))
    return rows, cols


def common_neighbours(rows: np.ndarray, cols: np.ndarray, n: int):
    """Every pair v < w with a common neighbour, and those neighbours.

    ``rows`` and ``cols`` are an ``adjacency`` of a sorted order on
    0..n-1. Each vertex c contributes the pairs of its neighbours, so the
    work is the sum of d(c) (d(c) - 1) / 2, whatever the largest degree.
    Returns (v, w, ptr, common): pair p is (v[p], w[p]), the pairs ascend,
    and the common neighbours of pair p, ascending, are
    common[ptr[p]:ptr[p + 1]].
    """
    ends = np.searchsorted(rows, rows, side="right")  # where each slot's row ends
    i, j = _expand(np.arange(1, len(rows) + 1), ends)  # slots i < j of one row
    keys = cols[i] * n + cols[j]
    # a stable argsort keeps each pair's neighbours in row order, ascending
    by = np.argsort(keys, kind="stable")
    keys, common = keys[by], rows[i[by]]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    v, w = np.divmod(keys[first], n)
    return v, w, np.append(first, len(keys)), common


def _table(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Neighbour table of the graph on 0..n-1 with symmetric edge list (rows, cols).

    ``rows`` must be sorted. Row v lists v's neighbours in edge-list order,
    then the padding index n. The table has one column at least.
    """
    deg = np.bincount(rows, minlength=n)
    nbr = np.full((n, max(deg.max(initial=0), 1)), n, dtype=np.intp)
    nbr[rows, np.arange(len(rows)) - (np.cumsum(deg) - deg)[rows]] = cols
    return nbr


def _bfs(nbr: np.ndarray) -> np.ndarray:
    """Distances of the graph with neighbour table ``nbr``, padded with n = len(nbr).

    See ``all_pairs`` for the dtype and sentinel. Besides the matrix, the
    search holds four n x n/8 bitsets and one block of unpacked rows.
    """
    n = len(nbr)
    D = np.full((n, n), n, dtype=np.min_scalar_type(2 * n))
    np.fill_diagonal(D, 0)
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
        np.invert(seen, out=step)
        np.bitwise_and(reached, step, out=live)
        seen |= live
        for lo in range(0, n, _UNPACK_ROWS):
            hi = lo + _UNPACK_ROWS
            np.copyto(D[lo:hi], depth,
                      where=np.unpackbits(live[lo:hi], axis=1, count=n).view(bool))
    return D


def all_pairs(g: Graph, order: tuple[int, ...] | None = None) -> np.ndarray:
    """Full distance matrix of ``g``; rows and columns follow ``order``.

    With n vertices the dtype is ``np.min_scalar_type(2 * n)`` and an
    unreachable pair holds the sentinel n, larger than every distance
    (at most n - 1). The dtype holds 2n, so sums such as D[u] + D[v] and
    D[k] + 1 never wrap; a difference such as D[x] - 1 can.
    """
    order = order or vertex_order(g)
    return _bfs(_table(*adjacency(g, order), len(order)))


def induced_distances(dist: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Distances inside the subgraph induced on the index array ``sub``.

    ``dist`` is a full distance matrix; its entries equal to 1 are the
    edges. Rows and columns of the result follow ``sub``. Dtype and
    sentinel are those of ``all_pairs`` with n = len(sub).
    """
    rows, cols = np.nonzero(dist[np.ix_(sub, sub)] == 1)
    return _bfs(_table(rows, cols, len(sub)))
