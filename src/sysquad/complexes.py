"""Core combinatorial structures and metric primitives.

Finite simple graphs on integer vertex ids, triangle and square complexes
(one store of cells glued along embedded cycles), and basepointed variants,
together with the graph operations everything else is built on: BFS
distances and the mod-2 first-homology rank.

All containers are frozen after construction and every enumeration is
returned in a canonical sorted order, so identical inputs always produce
identical outputs.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

INF = math.inf


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation or reflection of a cyclic vertex sequence.

    The rotations and reflections of three or fewer entries are all their
    orders, so the least one is the sorted tuple. With distinct entries the
    least one starts at the minimum and steps to its smaller neighbour;
    with repeated entries all 2n candidates are compared.
    """
    t = tuple(cycle)
    n = len(t)
    if n <= 3:
        return tuple(sorted(t))
    if len(set(t)) < n:
        return min(s[i:] + s[:i] for s in (t, t[::-1]) for i in range(n))
    i = t.index(min(t))
    if t[i - n + 1] < t[i - 1]:
        return t[i:] + t[:i]
    return t[i::-1] + t[:i:-1]


def _boundary_edges(cycle: Sequence[int]) -> list[tuple[int, int]]:
    """The edges between consecutive vertices of a cycle, the last joined to the first."""
    edges = []
    u = cycle[0]
    for w in cycle[1:] + cycle[:1]:
        edges.append((u, w) if u < w else (w, u))
        u = w
    return edges


class Graph:
    """Finite simple graph. Vertices are opaque nonnegative integer ids."""

    __slots__ = ("_vertices", "_edges", "_sorted_edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        vs = frozenset(vertices)
        pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        ordered = sorted(pairs)  # near linear on the sorted lists most callers pass
        es = frozenset(ordered)
        if len(es) < len(ordered):
            ordered = sorted(es)
        adj: dict[int, list[int]] = {v: [] for v in vs}
        # in sorted edge order each vertex meets its smaller neighbours, in
        # order, before its larger ones, so every list comes out sorted
        try:
            for u, v in ordered:
                adj[u].append(v)
                adj[v].append(u)
            valid = not any(u == v for u, v in ordered)
        except KeyError:
            valid = False
        if not valid:  # raise for the first bad edge in the given order
            for u, v in pairs:
                if u == v:
                    raise ValueError(f"loop edge ({u}, {v}) is not allowed")
                if u not in vs or v not in vs:
                    raise ValueError(f"edge {(u, v)} has an undeclared endpoint")
        self._vertices: frozenset[int] = vs
        self._edges: frozenset[tuple[int, int]] = es
        self._sorted_edges: tuple[tuple[int, int], ...] = tuple(ordered)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}

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

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(self.neighbors(v))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


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
    ``CellError`` carrying its index. ``_sorted_cells`` keeps the cells in
    sorted order, as ``Graph._sorted_edges`` keeps the edges.
    """

    __slots__ = ("_graph", "_cells", "_sorted_cells", "_cells_at")
    _length: int
    _noun: str

    def __init__(self, graph: Graph, cells: Iterable[Sequence[int]] = ()):
        n = self._length
        edges = graph.edges
        store = []
        for i, cell in enumerate(cells):
            cell = tuple(cell)
            # a triangle's canonical form is its sorted vertices, and its least
            # boundary edge comes first; a square's edges follow the given order
            if n == 3:
                c = tuple(sorted(cell))
                valid = len(c) == 3 and c[0] < c[1] < c[2]
                along = ((c[0], c[1]), (c[0], c[2]), (c[1], c[2])) if valid else ()
            else:
                c = canonical_cycle(cell)
                valid = len(c) == n and len(set(c)) == n
                along = _boundary_edges(cell) if valid else ()
            if not valid:
                raise CellError(i, f"{self._noun} {cell} must have {n} distinct vertices")
            if not edges.issuperset(along):
                # complex files quote this byte for byte: a triangle names its sorted
                # vertices and least missing edge, a square its given order and the
                # first missing edge along it
                e = next(e for e in along if e not in edges)
                raise CellError(i, f"{self._noun} {c if n == 3 else cell} misses edge {e}")
            store.append(c)
        store.sort()  # near linear on the sorted lists most callers pass
        self._graph = graph
        self._cells: frozenset[tuple[int, ...]] = frozenset(store)
        if len(self._cells) < len(store):
            store = sorted(self._cells)
        self._sorted_cells: tuple[tuple[int, ...], ...] = tuple(store)
        cells_at: dict[int, list[tuple[int, ...]]] = {v: [] for v in graph.vertices}
        for c in store:
            for v in c:
                cells_at[v].append(c)
        self._cells_at = {v: tuple(cs) for v, cs in cells_at.items()}

    @property
    def graph(self) -> Graph:
        return self._graph

    def _at(self, v: int) -> tuple[tuple[int, ...], ...]:
        try:
            return self._cells_at[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._graph == other._graph and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self._graph, self._cells))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._graph.vertices)} vertices, "
            f"{len(self._graph.edges)} edges, {len(self._cells)} {self._noun}s)"
        )


class SimplicialComplex2(_CellComplex):
    """A graph plus a set of triangles, each spanning three pairwise adjacent vertices."""

    __slots__ = ()
    _length = 3
    _noun = "triangle"

    @property
    def triangles(self) -> frozenset[tuple[int, int, int]]:
        return self._cells

    def triangles_at(self, v: int) -> tuple[tuple[int, int, int], ...]:
        return self._at(v)

    def has_triangle(self, tri: Sequence[int]) -> bool:
        return canonical_cycle(tri) in self._cells


class SquareComplex(_CellComplex):
    """A graph plus a set of squares glued to embedded 4-cycles."""

    __slots__ = ()
    _length = 4
    _noun = "square"

    @property
    def squares(self) -> frozenset[tuple[int, int, int, int]]:
        return self._cells

    def squares_at(self, v: int) -> tuple[tuple[int, int, int, int], ...]:
        return self._at(v)

    def has_square(self, cycle: Sequence[int]) -> bool:
        return canonical_cycle(cycle) in self._cells


class BasedComplex:
    """A complex with a distinguished basepoint and cached BFS levels.

    ``levels[v]`` is the graph distance from the basepoint to v; vertices
    unreachable from the basepoint carry no level entry. ``down(v)`` holds
    the neighbours of a reached v one level closer to the basepoint.
    """

    __slots__ = ("_complex", "_basepoint", "_levels", "_down")

    def __init__(self, complex: SimplicialComplex2 | SquareComplex, basepoint: int):
        g = complex.graph
        if not g.has_vertex(basepoint):
            raise ValueError(f"basepoint {basepoint} is not a vertex")
        self._complex = complex
        self._basepoint = basepoint
        levels = self._levels = bfs_levels(g, basepoint)
        # a reached vertex has only reached neighbours
        self._down = {
            v: tuple(x for x in g.neighbors(v) if levels[x] == lv - 1)
            for v, lv in levels.items()
        }

    @property
    def complex(self) -> SimplicialComplex2 | SquareComplex:
        return self._complex

    @property
    def graph(self) -> Graph:
        return self._complex.graph

    @property
    def basepoint(self) -> int:
        return self._basepoint

    @property
    def levels(self) -> dict[int, int]:
        return self._levels

    def down(self, v: int) -> tuple[int, ...]:
        """The neighbours of v one level closer to the basepoint, sorted.

        Every step of a geodesic from v to the basepoint goes to one of them.
        """
        try:
            return self._down[v]
        except KeyError:
            raise ValueError(f"vertex {v} is unreachable from the basepoint") from None

    @property
    def unreached(self) -> tuple[int, ...]:
        """The vertices the basepoint does not reach, sorted."""
        if len(self._levels) == len(self.graph.vertices):
            return ()
        return tuple(sorted(self.graph.vertices.difference(self._levels)))

    def __repr__(self) -> str:
        return f"BasedComplex(basepoint={self._basepoint}, {self._complex!r})"


def _graph_of(obj) -> Graph:
    if isinstance(obj, Graph):
        return obj
    return obj.graph


def bfs_levels(g: Graph, source: int) -> dict[int, int]:
    """Distance from source to every reachable vertex."""
    if not g.has_vertex(source):
        raise ValueError(f"unknown vertex {source}")
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                q.append(w)
    return dist


def distance(obj, u: int, v: int) -> int | float:
    """Graph distance between u and v, INF when disconnected."""
    g = _graph_of(obj)
    dist = bfs_levels(g, u)
    if not g.has_vertex(v):
        raise ValueError(f"unknown vertex {v}")
    return dist.get(v, INF)


def is_connected(g: Graph) -> bool:
    if not g.vertices:
        return True
    source = min(g.vertices)
    return len(bfs_levels(g, source)) == len(g.vertices)


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


def _index_rows(order: tuple[int, ...], rows, width: int) -> np.ndarray:
    """Rows of vertex ids as rows of their indices in ``order``."""
    idx = {v: i for i, v in enumerate(order)}
    flat = np.fromiter(map(idx.__getitem__, chain.from_iterable(rows)), dtype=np.intp)
    return flat.reshape(-1, width)


def h1_rank_mod2(c: SimplicialComplex2 | SquareComplex) -> int:
    """Mod-2 rank of the first homology: cycle-space rank minus boundary rank.

    Zero is a necessary condition for simple connectedness; see
    ``_h1_rank`` for when it also proves it. Raises on disconnected input.
    """
    if not is_connected(c.graph):
        raise ValueError("h1_rank_mod2 requires a connected complex")
    order = tuple(sorted(c.graph.vertices))
    cells = _index_rows(order, c._sorted_cells, c._length)
    return _h1_rank(cells, _index_rows(order, c.graph._sorted_edges, 2), len(order))


def _h1_rank(cells: np.ndarray, edges: np.ndarray, n: int) -> int:
    """``h1_rank_mod2`` of a connected complex on the vertex indices 0..n-1.

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
