"""Core combinatorial structures and metric primitives.

Finite simple graphs on integer vertex ids, triangle and square complexes
(one store of cells glued along embedded cycles), and basepointed variants,
together with the graph operations everything else is built on: BFS
distances and the mod-2 first-homology rank.

Representation. A complex lives as dense vertex indices: the index of a
vertex is its rank among the sorted vertex ids, so index order is id order
and a canonical form over indices is the canonical form over ids. No id,
however large, is ever cast to a fixed-width integer.

- A ``Graph`` holds its sorted ids (``_order``), its edges as index rows
  u < w sorted lexicographically (``_ends``, with the sorted keys
  u * n + w in ``_keys``), and a CSR neighbour array: slot k is the
  directed edge ``_src[k] -> _nbr[k]``, and the neighbours of index i,
  ascending, are ``_nbr[_ptr[i]:_ptr[i + 1]]``.
- A cell store holds its cells as canonical index rows, sorted and
  distinct (``_rows``), and checks their boundary edges with one
  ``np.searchsorted`` over the edge keys.
- A ``BasedComplex`` holds one BFS level per index (``_lev``, -1 when the
  basepoint does not reach it) from one level-synchronous search over the
  CSR, and the CSR of the neighbours one level down (``_down_ptr``,
  ``_down_nbr``). Its one interval store, ``_intervals``, packs every
  basepoint interval as a bitset row, built as a down-closure.

A cycle's canonical form is the least of its rotations and reflections.
``_canonical_rows`` computes it for index rows of distinct vertices and is
the package's one canonical form: the cell stores, ``has_triangle`` and
``has_square``, the file reader and rule B's hexagons all use it.
``_first_rows`` marks the first occurrence of each distinct row with one
stable ``np.lexsort``; the file reader's duplicate records, rule B's
hexagons and the CLI's interval sample each keep first occurrences with it.

The public constructors map ids to indices once and then take the same
path as the file reader, the disk generator and squaring, which hand their
index arrays over directly. The checks read these arrays and map indices
back to ids only for certificates and output. The id views (``vertices``,
``edges``, ``neighbors``, the cells, ``*_at``, ``levels``, ``down``) and
the map from ids to indices (``Graph._index``, for inputs that name ids)
are cached properties (``functools.cached_property``), each built whole
on first use. So are the four index views, which every check that needs
one reads: ``Graph._components`` (each index's component root and depth,
built in O(V + E) work), ``Graph._common_neighbours`` (the pairs with a
common neighbour, and those neighbours), ``SquareComplex._corners`` (each
square seen from each corner) and ``SquareComplex._square_table`` (each
square keyed by each diagonal). Only the square table reads another view, the corner
view, while it is built, and no view reads the square table, so threads
sharing a complex never wait on each other's views in a cycle.

All containers are frozen after construction and every enumeration is
returned in a canonical sorted order, so identical inputs always produce
identical outputs.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

INF = math.inf

# interval-store rows unpacked at a time (``BasedComplex._intervals``): the
# unpacked bits stay _STORE_ROWS x width bytes
_STORE_ROWS = 64


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """The canonical form of each cycle given as an index row of distinct
    vertices: the lexicographically least of its rotations and reflections.

    A row of three or fewer is sorted. A longer one is rotated to start at
    its least vertex, then the rest is reversed when the last vertex is
    the smaller neighbour of the first.
    """
    k = rows.shape[1]
    if k <= 3:
        return np.sort(rows, axis=1)
    rows = np.take_along_axis(rows, (rows.argmin(axis=1)[:, None] + np.arange(k)) % k, axis=1)
    flip = rows[:, 1] > rows[:, -1]
    rows[flip, 1:] = rows[flip, :0:-1]
    return rows


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted lexicographically."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct row; a 1-D array is one column."""
    if rows.ndim == 1:
        rows = rows[:, None]
    by = np.lexsort(rows.T)  # stable: equal rows keep their order
    ranked = rows[by]
    first = np.ones(len(rows), dtype=bool)
    first[by[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return first


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with lo[i] <= j < hi[i], grouped by i, each group ascending."""
    cnt = hi - lo
    row = np.repeat(np.arange(len(lo)), cnt)
    return row, lo[row] + np.arange(len(row)) - (np.cumsum(cnt) - cnt)[row]


def _padded(ptr: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """The CSR rows as one table: row i is ``values[ptr[i]:ptr[i + 1]]``, then ``fill``.

    ``ptr[0]`` is 0 and ``fill`` is one value or one per row. The table has
    one column at least.
    """
    cnt = np.diff(ptr)
    table = np.empty((len(cnt), max(cnt.max(initial=0), 1)), dtype=values.dtype)
    table[:] = np.reshape(fill, (-1, 1))
    row = np.repeat(np.arange(len(cnt)), cnt)
    table[row, np.arange(len(row)) - ptr[row]] = values
    return table


def _by_vertex(order: tuple[int, ...], ptr: np.ndarray, values: list) -> dict:
    """Each vertex id ``order[i]`` with the tuple ``values[ptr[i]:ptr[i + 1]]``."""
    ptr = ptr.tolist()
    return {v: tuple(values[ptr[i]:ptr[i + 1]]) for i, v in enumerate(order)}


def _isin_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which queries occur in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(np.shape(queries), dtype=bool)
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return keys[at] == queries


def _intersects(ptr: np.ndarray, nbr: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether CSR rows a[p] and b[p] share an entry, for each p.

    Row i is ``nbr[ptr[i]:ptr[i + 1]]``, ascending; each side becomes the
    sorted keys p * m + x, m above every entry.
    """
    m = len(ptr)
    pa, sa = _expand(ptr[a], ptr[a + 1])
    pb, sb = _expand(ptr[b], ptr[b + 1])
    hit = _isin_sorted(pa * m + nbr[sa], pb * m + nbr[sb])
    out = np.zeros(len(a), dtype=bool)
    out[pb[hit]] = True
    return out


class Graph:
    """Finite simple graph. Vertices are opaque nonnegative integer ids."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        order = tuple(sorted(set(vertices)))
        n = len(order)
        index = dict(zip(order, range(n)))
        pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        rows = np.fromiter(map(index.get, chain.from_iterable(pairs), repeat(-1)),
                           dtype=np.intp, count=2 * len(pairs)).reshape(-1, 2)
        bad = (rows < 0).any(axis=1) | (rows[:, 0] == rows[:, 1])
        if bad.any():  # raise for the first bad edge in the given order
            u, v = pairs[int(np.argmax(bad))]
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            raise ValueError(f"edge {(u, v)} has an undeclared endpoint")
        self._set(order, rows)
        self._index = index  # the cached view, already built

    @classmethod
    def _of(cls, order: tuple[int, ...], rows: np.ndarray) -> Graph:
        """The graph on the sorted ids ``order`` with edges given as index rows u < w.

        The rows may come in any order and repeat.
        """
        g = cls.__new__(cls)
        g._set(order, rows)
        return g

    def _set(self, order, rows) -> None:
        n = len(order)
        keys = np.sort(rows[:, 0] * n + rows[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        ends = np.stack(np.divmod(keys, max(n, 1)), axis=1)
        # slot k is the edge src -> nbr; both directions sorted by source, and
        # within a source the smaller neighbours (from w -> u) come first
        src = np.concatenate([ends[:, 1], ends[:, 0]])
        by = np.argsort(src, kind="stable")
        self._order = order
        self._ends = ends
        self._keys = keys
        self._src = src[by]
        self._nbr = np.concatenate([ends[:, 0], ends[:, 1]])[by]
        self._ptr = np.searchsorted(self._src, np.arange(n + 1))

    def _position(self, v) -> int:
        """The index of vertex v, -1 when v is not a vertex."""
        try:
            return self._index.get(v, -1)
        except TypeError:  # an unhashable id names no vertex
            return -1

    @cached_property
    def _index(self) -> dict[int, int]:
        """Each vertex id's index."""
        return dict(zip(self._order, range(len(self._order))))

    @cached_property
    def _vertices(self) -> frozenset[int]:
        return frozenset(self._order)

    @cached_property
    def _edges(self) -> frozenset[tuple[int, int]]:
        order = self._order
        return frozenset((order[u], order[w]) for u, w in self._ends.tolist())

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        order = self._order
        return _by_vertex(order, self._ptr, [order[j] for j in self._nbr.tolist()])

    @cached_property
    def _components(self) -> tuple[np.ndarray, np.ndarray]:
        """Each index's component root, the least index of its component, and
        its distance from that root.

        An isolated index is its own root at depth 0, all in one array step.
        The other components are searched one at a time from their least
        index, the first one left unreached in index order; the searches
        share the view's arrays and the next root is found by scanning
        windows that double in length, so each component costs about its
        own size and the view does O(V + E) work. It holds two arrays of n
        entries.
        """
        n = len(self._order)
        root = np.arange(n)
        depth = np.where(np.diff(self._ptr) > 0, -1, 0)
        slot = np.empty(n, dtype=np.intp)
        left = np.flatnonzero(depth)  # the indices with an edge, ascending
        at, width = 0, 1
        while at < len(left):
            window = left[at:at + width]
            new = np.flatnonzero(depth[window] < 0)
            if not len(new):
                at, width = at + width, 2 * width
                continue
            s = window[new[0]]
            root[_search(self, s, depth, slot)] = s
            at, width = at + int(new[0]) + 1, 1
        return root, depth

    @cached_property
    def _common_neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair v < w of indices with a common neighbour, and those neighbours.

        Each vertex c contributes the pairs of its neighbours, so the view
        holds the sum over c of d(c) (d(c) - 1) / 2 entries, whatever the
        largest degree. It is (v, w, ptr, common): pair p is (v[p], w[p]),
        the pairs ascend, and the common neighbours of pair p, ascending,
        are common[ptr[p]:ptr[p + 1]].
        """
        n, rows, cols = len(self._order), self._src, self._nbr
        # CSR slots i < j of one row
        i, j = _expand(np.arange(1, len(rows) + 1), self._ptr[rows + 1])
        keys = cols[i] * n + cols[j]
        # a stable argsort keeps each pair's neighbours in row order, ascending
        by = np.argsort(keys, kind="stable")
        keys, common = keys[by], rows[i[by]]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        v, w = np.divmod(keys[first], n)
        return v, w, np.append(first, len(keys)), common

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

    def has_vertex(self, v: int) -> bool:
        return self._position(v) >= 0

    def has_edge(self, u: int, v: int) -> bool:
        i, j = sorted((self._position(u), self._position(v)))
        if i < 0 or i == j:
            return False
        key = i * len(self._order) + j
        at = int(np.searchsorted(self._keys, key))
        return at < len(self._keys) and bool(self._keys[at] == key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._order == other._order and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self._order, self._ends.tobytes()))

    def __repr__(self) -> str:
        return f"Graph({len(self._order)} vertices, {len(self._ends)} edges)"


class CellError(ValueError):
    """A cell the store rejects; ``index`` is its position among the given cells."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class _CellComplex:
    """A graph plus 2-cells glued along embedded cycles of one length (3 or 4).

    A cell is stored as the canonical form of its boundary cycle (a triangle
    as its sorted vertices), so no two cells are glued to the same cycle.
    The store is the one place that checks a cell's boundary edges; cells
    are checked in the given order and the first bad one raises a
    ``CellError`` carrying its index.
    """

    _length: int
    _noun: str

    def __init__(self, graph: Graph, cells: Iterable[Sequence[int]] = ()):
        n = self._length
        cells = [tuple(cell) for cell in cells]
        # the cells before the first one of the wrong length become index rows,
        # an unknown vertex -1
        k = next((i for i, cell in enumerate(cells) if len(cell) != n), len(cells))
        index = graph._index
        rows = np.fromiter(map(index.get, chain.from_iterable(cells[:k]), repeat(-1)),
                           dtype=np.intp, count=k * n).reshape(k, n)
        self._check(graph, rows, cells.__getitem__)
        if k < len(cells):
            raise self._error(graph, k, cells[k])
        self._set(graph, _canonical_rows(rows))

    @classmethod
    def _of(cls, graph: Graph, canonical: np.ndarray):
        """The store of cells given as canonical index rows, glued, in any order."""
        store = cls.__new__(cls)
        store._set(graph, canonical)
        return store

    @classmethod
    def _from_rows(cls, graph: Graph, rows: np.ndarray, canonical: np.ndarray):
        """The store of cells given as index rows, checked as the constructor checks them.

        ``canonical`` is ``_canonical_rows(rows)``.
        """
        order = graph._order
        cls._check(graph, rows, lambda i: tuple(order[v] for v in rows[i].tolist()))
        return cls._of(graph, canonical)

    def _set(self, graph: Graph, canonical: np.ndarray) -> None:
        self._graph = graph
        self._rows = _sorted_rows(canonical)

    @classmethod
    def _check(cls, graph: Graph, rows: np.ndarray, given) -> None:
        """Raise for the first row with a repeated vertex or with a boundary edge
        missing from the graph; ``given(i)`` is cell i as given.

        An unknown vertex is -1, and every boundary edge at it has a negative
        key, which no edge has.
        """
        n = len(graph._order)
        srt = np.sort(rows, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        nxt = np.roll(rows, -1, axis=1)
        along = np.minimum(rows, nxt) * n + np.maximum(rows, nxt)
        bad |= ~_isin_sorted(graph._keys, along).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise cls._error(graph, i, given(i))

    @classmethod
    def _error(cls, graph: Graph, i: int, cell: tuple[int, ...]) -> CellError:
        """The rejection of cell i, which lacks distinct vertices or a boundary edge."""
        n = cls._length
        if len(cell) != n or len(set(cell)) != n:
            return CellError(i, f"{cls._noun} {cell} must have {n} distinct vertices")
        # complex files quote this byte for byte: a triangle names its sorted
        # vertices and least missing edge, a square its given order and the
        # first missing edge along it
        c = tuple(sorted(cell)) if n == 3 else cell
        along = [(min(u, w), max(u, w)) for u, w in zip(c, c[1:] + c[:1])]
        e = next(e for e in (sorted(along) if n == 3 else along) if not graph.has_edge(*e))
        return CellError(i, f"{cls._noun} {c} misses edge {e}")

    def _has(self, cell: Sequence[int]) -> bool:
        """Whether a cell is glued to the cycle ``cell`` of vertex ids, read
        in any rotation or direction."""
        row = [self._graph._position(v) for v in cell]
        if len(row) != self._length or min(row) < 0 or len(set(row)) != len(row):
            return False
        order = self._graph._order
        return tuple(order[v] for v in _canonical_rows(np.array([row]))[0].tolist()) in self._cells

    @property
    def graph(self) -> Graph:
        return self._graph

    @cached_property
    def _cells(self) -> frozenset[tuple[int, ...]]:
        order = self._graph._order
        return frozenset(tuple(order[v] for v in row) for row in self._rows.tolist())

    @cached_property
    def _cells_at(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The cells at each vertex, sorted."""
        order = self._graph._order
        cells = [tuple(order[v] for v in row) for row in self._rows.tolist()]
        # a stable sort of the corners by vertex keeps each vertex's cells in row order
        at = self._rows.ravel()
        by = np.argsort(at, kind="stable")
        ptr = np.searchsorted(at[by], np.arange(len(order) + 1))
        return _by_vertex(order, ptr, [cells[k] for k in (by // self._length).tolist()])

    def _at(self, v: int) -> tuple[tuple[int, ...], ...]:
        try:
            return self._cells_at[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._graph == other._graph and np.array_equal(self._rows, other._rows)

    def __hash__(self) -> int:
        return hash((self._graph, self._rows.tobytes()))

    def __repr__(self) -> str:
        g = self._graph
        return (
            f"{type(self).__name__}({len(g._order)} vertices, "
            f"{len(g._ends)} edges, {len(self._rows)} {self._noun}s)"
        )


class SimplicialComplex2(_CellComplex):
    """A graph plus a set of triangles, each spanning three pairwise adjacent vertices."""

    _length = 3
    _noun = "triangle"

    @property
    def triangles(self) -> frozenset[tuple[int, int, int]]:
        return self._cells

    def triangles_at(self, v: int) -> tuple[tuple[int, int, int], ...]:
        return self._at(v)

    def has_triangle(self, tri: Sequence[int]) -> bool:
        return self._has(tri)


class SquareComplex(_CellComplex):
    """A graph plus a set of squares glued to embedded 4-cycles."""

    _length = 4
    _noun = "square"

    @property
    def squares(self) -> frozenset[tuple[int, int, int, int]]:
        return self._cells

    def squares_at(self, v: int) -> tuple[tuple[int, int, int, int], ...]:
        return self._at(v)

    def has_square(self, cycle: Sequence[int]) -> bool:
        return self._has(cycle)

    @cached_property
    def _corners(self) -> np.ndarray:
        """Every square seen from each corner: index rows (corner, wing, wing, opposite), sorted.

        The view holds 4 rows per square. The wings are the two corners
        next to the corner, the smaller first. A canonical square
        (a, b, c, d) has a < c and b < d, so its corners are (a, b, d, c),
        (b, a, c, d), (c, b, d, a) and (d, a, c, b). No row repeats, since
        a corner, its wings and its opposite fix the square.
        """
        rows = self._rows[:, [[0, 1, 3, 2], [1, 0, 2, 3], [2, 1, 3, 0], [3, 0, 2, 1]]]
        return _sorted_rows(rows.reshape(-1, 4))

    @cached_property
    def _square_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every square once per diagonal, as sorted keys (diagonal, smaller wing, larger wing).

        A square's diagonals are its two pairs of opposite corners, and the
        wings of one are the ends of the other. The rows (d0, w0, w1, d1) of
        the corner view with d0 < d1 list each square once per diagonal,
        and one stable argsort of their diagonals keeps each diagonal's
        wings in corner-view order, ascending. The table is (pairs, keys):
        pairs holds the distinct diagonals d0 * n + d1, ascending, and a
        square has the key i * n² + w0 * n + w1 for each diagonal, i the
        diagonal's rank in pairs. With F squares there are at most 2F
        diagonals, so every key is below 2F·n², about 2^52.5 for the
        squared deg7 r11 disk (200,593 vertices, 76,615 squares).
        """
        n = len(self.graph._order)
        d0, w0, w1, d1 = self._corners.T
        diagonal = (d0 * n + d1)[d0 < d1]
        by = np.argsort(diagonal, kind="stable")
        diagonal = diagonal[by]
        # the first of each diagonal; a first row exists only when a square does
        new = np.concatenate((diagonal[:1] >= 0, diagonal[1:] != diagonal[:-1]))
        return diagonal[new], (np.cumsum(new) - 1) * n * n + (w0 * n + w1)[d0 < d1][by]


class BasedComplex:
    """A complex with a distinguished basepoint and cached BFS levels.

    ``levels[v]`` is the graph distance from the basepoint to v; vertices
    unreachable from the basepoint carry no level entry. ``down(v)`` holds
    the neighbours of a reached v one level closer to the basepoint.
    """

    def __init__(self, complex: SimplicialComplex2 | SquareComplex, basepoint: int):
        g = complex.graph
        s = g._position(basepoint)
        if s < 0:
            raise ValueError(f"basepoint {basepoint} is not a vertex")
        self._set(complex, basepoint, _levels(g, s))

    @classmethod
    def _of(cls, complex, basepoint: int, lev: np.ndarray) -> BasedComplex:
        """The based complex whose BFS levels, by index, are already known."""
        b = cls.__new__(cls)
        b._set(complex, basepoint, lev)
        return b

    def _set(self, complex, basepoint, lev) -> None:
        g = complex.graph
        # an unreached vertex (-1) has only unreached neighbours, none at -2
        down = lev[g._nbr] == lev[g._src] - 1
        self._complex = complex
        self._basepoint = basepoint
        self._lev = lev
        self._down_nbr = g._nbr[down]
        self._down_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(g._src[down], minlength=len(lev)))))

    @property
    def complex(self) -> SimplicialComplex2 | SquareComplex:
        return self._complex

    @property
    def graph(self) -> Graph:
        return self._complex.graph

    @property
    def basepoint(self) -> int:
        return self._basepoint

    @cached_property
    def _levels(self) -> dict[int, int]:
        order = self.graph._order
        return {order[i]: d for i, d in enumerate(self._lev.tolist()) if d >= 0}

    @cached_property
    def _down(self) -> dict[int, tuple[int, ...]]:
        order = self.graph._order
        return _by_vertex(order, self._down_ptr, [order[j] for j in self._down_nbr.tolist()])

    @property
    def levels(self) -> dict[int, int]:
        return self._levels

    def down(self, v: int) -> tuple[int, ...]:
        """The neighbours of v one level closer to the basepoint, sorted.

        Every step of a geodesic from v to the basepoint goes to one of them.
        Only the basepoint and the vertices it does not reach have none.
        """
        row = self._down.get(v)
        if not row and v != self._basepoint:
            raise ValueError(f"vertex {v} is unreachable from the basepoint")
        return row

    @property
    def unreached(self) -> tuple[int, ...]:
        """The vertices the basepoint does not reach, sorted."""
        order = self.graph._order
        return tuple(order[i] for i in np.flatnonzero(self._lev < 0).tolist())

    def _down_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (x, v, w) with v < w both in down(x), by x, then as ``combinations``."""
        ptr = self._down_ptr
        owner = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        s, t = _expand(np.arange(1, len(owner) + 1), ptr[owner + 1])
        return owner[s], self._down_nbr[s], self._down_nbr[t]

    def _intervals(self, col: np.ndarray, width: int) -> np.ndarray:
        """Every basepoint interval as a packed bitset: row i is I(i), bit col[w] is w.

        Only the vertices w with col[w] >= 0 are stored, each in its own
        column below ``width``. A geodesic from v to the base steps down a
        level at a time, so I(v) is {v} plus I(w) for each w in down(v),
        and one pass per level builds the rows from the level below: one
        gather per column of the padded down table, whose padding repeats
        the row itself. A vertex the base does not reach keeps its own bit.
        """
        lev = self._lev
        bits = np.zeros((len(lev), (width + 7) // 8), dtype=np.uint8)
        mine = np.flatnonzero(col >= 0)
        # unpackbits reads the high bit first
        bits[mine, col[mine] >> 3] = 0x80 >> (col[mine] & 7)
        down = _padded(self._down_ptr, self._down_nbr, np.arange(len(lev)))
        order = np.argsort(lev, kind="stable")
        bounds = np.searchsorted(lev[order], np.arange(lev.max() + 2))
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            rows = order[lo:hi]
            below = bits[down[rows, 0]]
            for column in down[rows, 1:].T:
                below |= bits[column]
            bits[rows] |= below
        return bits

    def __repr__(self) -> str:
        return f"BasedComplex(basepoint={self._basepoint}, {self._complex!r})"


def _levels(g: Graph, s: int) -> np.ndarray:
    """Distance from index s to every index, -1 where unreached; one pass per level."""
    n = len(g._order)
    lev = np.full(n, -1, dtype=np.intp)
    _search(g, s, lev, np.empty(n, dtype=np.intp))
    return lev


def _search(g: Graph, s: int, lev: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Write the distance from index s into ``lev`` for every index s reaches,
    one pass per level, and return those indices.

    ``lev`` is -1 wherever s reaches, and ``slot`` is scratch of n entries;
    a pass reads and writes only the entries of its own level.
    """
    ptr, nbr = g._ptr, g._nbr
    lev[s] = 0
    frontier = np.array([s])
    found = [frontier]
    depth = 0
    while len(frontier):
        depth += 1
        _, k = _expand(ptr[frontier], ptr[frontier + 1])
        reached = nbr[k]
        reached = reached[lev[reached] < 0]
        # each reached index once: keep the entry that wrote its slot last
        at = np.arange(len(reached))
        slot[reached] = at
        frontier = reached[slot[reached] == at]
        lev[frontier] = depth
        found.append(frontier)
    return np.concatenate(found)


def _distance(g: Graph, s: int, t: int) -> int | float:
    """Distance from index s to index t, INF when t is unreached."""
    d = int(_levels(g, s)[t])
    return d if d >= 0 else INF


def distance(obj, u: int, v: int) -> int | float:
    """Graph distance between u and v, INF when disconnected."""
    g = obj if isinstance(obj, Graph) else obj.graph
    s, t = g._position(u), g._position(v)
    if min(s, t) < 0:
        raise ValueError(f"unknown vertex {u if s < 0 else v}")
    return _distance(g, s, t)


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as arbitrary-precision bitmask integers."""
    basis: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            other = basis.get(top)
            if other is None:
                basis[top] = row
                rank += 1
                break
            row ^= other
    return rank


def _h1_rank(cells: np.ndarray, edges: np.ndarray, n: int) -> int:
    """Mod-2 rank of the first homology of a connected complex on the vertex
    indices 0..n-1: cycle-space rank minus boundary rank.

    ``cells`` holds one row of indices per cell in boundary order, and
    ``edges`` one row u < w per edge, sorted.

    The boundary rank comes from peeling free faces. In rounds, every
    remaining cell with an edge that lies in no other remaining cell is
    removed. Such a private edge is a column that is 1 in that cell's row
    and 0 in every row still left, so the removed rows are independent of
    each other and of the rest: rank d2 = (number peeled) + rank(residue).
    So h1 = (E - V + 1) - (number peeled) - rank(residue), and GF(2)
    elimination runs only on the residue, the cells that no round frees
    (an octahedron, a dunce hat, the K_{2,3} spheres of a squaring).

    Removing a cell with its private edge is an elementary collapse. A
    full peel therefore collapses the complex onto a connected graph, whose
    fundamental group is free of rank h1: then a zero rank also proves the
    complex simply connected.
    """
    keys = edges[:, 0] * n + edges[:, 1]
    nxt = np.roll(cells, -1, axis=1)
    bd = np.searchsorted(keys, np.minimum(cells, nxt) * n + np.maximum(cells, nxt))
    count = np.bincount(bd.ravel(), minlength=len(keys))  # cells left on each edge
    left = np.arange(len(cells))
    while len(left):
        free = (count[bd[left]] == 1).any(axis=1)
        if not free.any():
            break
        count -= np.bincount(bd[left[free]].ravel(), minlength=len(keys))
        left = left[~free]
    # the residue's edges, renumbered densely, as bits of one integer per cell
    column = np.cumsum(count > 0) - 1
    rows = [sum(1 << e for e in row) for row in column[bd[left]].tolist()]
    # E - V + (number of components): one for a connected graph, none for the empty one
    cycle_rank = len(keys) - n + min(1, n)
    return cycle_rank - (len(cells) - len(left)) - _gf2_rank(rows)
