"""Core combinatorial structures and metric primitives.

Finite simple graphs on integer vertex ids, 2-dimensional triangle
complexes, square complexes, and basepointed variants, together with
the handful of graph-theoretic operations everything else is built on:
BFS distances, balls and spheres, vertex links, girth, embedded 4-cycle
enumeration, K_{2,3} pattern search, and mod-2 first-homology rank.

All containers are frozen after construction and every enumeration is
returned in a canonical sorted order, so identical inputs always produce
identical outputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

INF = math.inf


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation or reflection of a cyclic vertex sequence."""
    t = tuple(cycle)
    n = len(t)
    best = None
    for s in (t, t[::-1]):
        for i in range(n):
            cand = s[i:] + s[:i]
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


class Graph:
    """Finite simple graph. Vertices are opaque nonnegative integer ids."""

    __slots__ = ("_vertices", "_edges", "_adj", "_nbset")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        vs = frozenset(vertices)
        es = set()
        for u, v in edges:
            e = _normalize_edge(u, v)
            if e[0] not in vs or e[1] not in vs:
                raise ValueError(f"edge {e} has an undeclared endpoint")
            es.add(e)
        self._vertices: frozenset[int] = vs
        self._edges: frozenset[tuple[int, int]] = frozenset(es)
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._nbset = {v: frozenset(ns) for v, ns in self._adj.items()}

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
        try:
            return self._nbset[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

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


class SimplicialComplex2:
    """A graph plus a set of triangles, each spanning three pairwise adjacent vertices."""

    __slots__ = ("_graph", "_triangles", "_tri_at")

    def __init__(self, graph: Graph, triangles: Iterable[Sequence[int]] = ()):
        tris = set()
        for tri in triangles:
            t = tuple(sorted(tri))
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"triangle {tuple(tri)} must have 3 distinct vertices")
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                if e not in graph.edges:
                    raise ValueError(f"triangle {t} misses edge {e}")
            tris.add(t)
        self._graph = graph
        self._triangles: frozenset[tuple[int, int, int]] = frozenset(tris)
        tri_at: dict[int, list[tuple[int, int, int]]] = {}
        for t in sorted(self._triangles):
            for v in t:
                tri_at.setdefault(v, []).append(t)
        self._tri_at = {v: tuple(ts) for v, ts in tri_at.items()}

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def triangles(self) -> frozenset[tuple[int, int, int]]:
        return self._triangles

    def triangles_at(self, v: int) -> tuple[tuple[int, int, int], ...]:
        if not self._graph.has_vertex(v):
            raise ValueError(f"unknown vertex {v}")
        return self._tri_at.get(v, ())

    def has_triangle(self, tri: Sequence[int]) -> bool:
        return tuple(sorted(tri)) in self._triangles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex2):
            return NotImplemented
        return self._graph == other._graph and self._triangles == other._triangles

    def __hash__(self) -> int:
        return hash((self._graph, self._triangles))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex2({len(self._graph.vertices)} vertices, "
            f"{len(self._graph.edges)} edges, {len(self._triangles)} triangles)"
        )


class SquareComplex:
    """A graph plus a set of squares glued to embedded 4-cycles.

    Each square is stored as the canonical form of its boundary cycle, so
    no two squares are glued to the same 4-cycle.
    """

    __slots__ = ("_graph", "_squares", "_sq_at")

    def __init__(self, graph: Graph, squares: Iterable[Sequence[int]] = ()):
        sqs = set()
        for sq in squares:
            s = tuple(sq)
            if len(s) != 4 or len(set(s)) != 4:
                raise ValueError(f"square {s} must have 4 distinct vertices")
            for i in range(4):
                e = _normalize_edge(s[i], s[(i + 1) % 4])
                if e not in graph.edges:
                    raise ValueError(f"square {s} misses boundary edge {e}")
            sqs.add(canonical_cycle(s))
        self._graph = graph
        self._squares: frozenset[tuple[int, int, int, int]] = frozenset(sqs)
        sq_at: dict[int, list[tuple[int, int, int, int]]] = {}
        for s in sorted(self._squares):
            for v in s:
                sq_at.setdefault(v, []).append(s)
        self._sq_at = {v: tuple(ss) for v, ss in sq_at.items()}

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def squares(self) -> frozenset[tuple[int, int, int, int]]:
        return self._squares

    def squares_at(self, v: int) -> tuple[tuple[int, int, int, int], ...]:
        if not self._graph.has_vertex(v):
            raise ValueError(f"unknown vertex {v}")
        return self._sq_at.get(v, ())

    def has_square(self, cycle: Sequence[int]) -> bool:
        return canonical_cycle(cycle) in self._squares

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareComplex):
            return NotImplemented
        return self._graph == other._graph and self._squares == other._squares

    def __hash__(self) -> int:
        return hash((self._graph, self._squares))

    def __repr__(self) -> str:
        return (
            f"SquareComplex({len(self._graph.vertices)} vertices, "
            f"{len(self._graph.edges)} edges, {len(self._squares)} squares)"
        )


class BasedComplex:
    """A complex with a distinguished basepoint and cached BFS levels.

    ``levels[v]`` is the graph distance from the basepoint to v; vertices
    unreachable from the basepoint carry no level entry.
    """

    __slots__ = ("_complex", "_basepoint", "_levels")

    def __init__(self, complex: SimplicialComplex2 | SquareComplex, basepoint: int):
        if not complex.graph.has_vertex(basepoint):
            raise ValueError(f"basepoint {basepoint} is not a vertex")
        self._complex = complex
        self._basepoint = basepoint
        self._levels = bfs_levels(complex.graph, basepoint)

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

    def __repr__(self) -> str:
        return f"BasedComplex(basepoint={self._basepoint}, {self._complex!r})"


@dataclass(frozen=True)
class VertexSubgraph:
    """An induced subgraph on a vertex set."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def to_graph(self) -> Graph:
        return Graph(self.vertices, self.edges)


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
    if not g.has_vertex(u):
        raise ValueError(f"unknown vertex {u}")
    if not g.has_vertex(v):
        raise ValueError(f"unknown vertex {v}")
    if u == v:
        return 0
    dist = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        dx = dist[x]
        for w in g.neighbors(x):
            if w == v:
                return dx + 1
            if w not in dist:
                dist[w] = dx + 1
                q.append(w)
    return INF


def _truncated_levels(obj, v: int, r: int) -> dict[int, int]:
    if r < 0:
        raise ValueError("radius must be nonnegative")
    g = _graph_of(obj)
    if isinstance(obj, BasedComplex) and v == obj.basepoint:
        return {w: d for w, d in obj.levels.items() if d <= r}
    if not g.has_vertex(v):
        raise ValueError(f"unknown vertex {v}")
    dist = {v: 0}
    q = deque([v])
    while q:
        u = q.popleft()
        du = dist[u]
        if du == r:
            continue
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                q.append(w)
    return dist


def _induced_edges(g: Graph, verts: set[int] | frozenset[int]) -> frozenset[tuple[int, int]]:
    out = []
    for u in verts:
        for w in g.neighbors(u):
            if u < w and w in verts:
                out.append((u, w))
    return frozenset(out)


def ball(obj, v: int, r: int) -> VertexSubgraph:
    """Induced subgraph on all vertices at distance at most r from v."""
    g = _graph_of(obj)
    verts = frozenset(_truncated_levels(obj, v, r))
    return VertexSubgraph(vertices=verts, edges=_induced_edges(g, verts))


def sphere(obj, v: int, r: int) -> VertexSubgraph:
    """Induced subgraph on all vertices at distance exactly r from v."""
    g = _graph_of(obj)
    lv = _truncated_levels(obj, v, r)
    verts = frozenset(w for w, d in lv.items() if d == r)
    return VertexSubgraph(vertices=verts, edges=_induced_edges(g, verts))


def link(c: SimplicialComplex2, v: int) -> Graph:
    """Link of a vertex: its neighbours, joined when they span a triangle with v."""
    nbs = c.graph.neighbors(v)
    edges = []
    for t in c.triangles_at(v):
        a, b = (x for x in t if x != v)
        edges.append((a, b))
    return Graph(nbs, edges)


def girth(g: Graph) -> int | float:
    """Length of a shortest embedded cycle, INF for forests.

    Per-root BFS: scanning a non-tree edge (u, w) during the BFS from a root
    certifies a cycle of length dist(u) + dist(w) + 1 through the BFS tree,
    and a root lying on a shortest cycle realizes its exact length.
    """
    best: int | float = INF
    for root in sorted(g.vertices):
        dist = {root: 0}
        parent: dict[int, int | None] = {root: None}
        q = deque([root])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du >= best:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def is_connected(g: Graph) -> bool:
    if not g.vertices:
        return True
    source = min(g.vertices)
    return len(bfs_levels(g, source)) == len(g.vertices)


def _common_neighbour_pairs(g: Graph) -> dict[tuple[int, int], list[int]]:
    """Map each vertex pair to the sorted list of its common neighbours (when >= 2 ... any)."""
    commons: dict[tuple[int, int], list[int]] = {}
    for z in sorted(g.vertices):
        nbs = g.neighbors(z)
        for u, w in combinations(nbs, 2):
            commons.setdefault((u, w), []).append(z)
    return commons


def enumerate_embedded_4cycles(g: Graph) -> list[tuple[int, int, int, int]]:
    """All embedded 4-cycles of g, each once, in canonical form, sorted.

    A 4-cycle is recovered from a diagonal pair (u, w) together with two of
    their common neighbours; keeping only the lexicographically smaller of
    the two diagonal pairs counts each cycle exactly once.
    """
    cycles = []
    for (u, w), mids in _common_neighbour_pairs(g).items():
        if len(mids) < 2:
            continue
        for x, y in combinations(mids, 2):
            if (u, w) < (x, y):
                cycles.append(canonical_cycle((u, x, w, y)))
    cycles.sort()
    return cycles


def find_K23(g: Graph) -> list[tuple[tuple[int, int], tuple[int, int, int]]]:
    """All K_{2,3} subgraph occurrences as (2-side pair, 3-side triple), sorted."""
    found = []
    for (u, w), mids in _common_neighbour_pairs(g).items():
        if len(mids) < 3:
            continue
        for triple in combinations(mids, 3):
            found.append(((u, w), triple))
    found.sort()
    return found


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


def h1_rank_mod2(c: SimplicialComplex2 | SquareComplex) -> int:
    """Mod-2 rank of the first homology: cycle-space rank minus boundary rank.

    Zero is a necessary condition for simple connectedness (not sufficient,
    and simple connectedness itself is not decided here). Raises on
    disconnected input.
    """
    g = c.graph
    if not is_connected(g):
        raise ValueError("h1_rank_mod2 requires a connected complex")
    edges = sorted(g.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    rows = []
    if isinstance(c, SimplicialComplex2):
        for a, b, cc in sorted(c.triangles):
            rows.append(
                (1 << eidx[(a, b)]) | (1 << eidx[(a, cc)]) | (1 << eidx[(b, cc)])
            )
    else:
        for s in sorted(c.squares):
            m = 0
            for i in range(4):
                m |= 1 << eidx[_normalize_edge(s[i], s[(i + 1) % 4])]
            rows.append(m)
    cycle_rank = len(edges) - len(g.vertices) + 1
    return cycle_rank - _gf2_rank(rows)
