"""Verification of the systolic conditions and the basepointed sphere lemmas.

verify_systolic covers the structural conditions: every vertex link has
girth >= 6, the complex is flag (each 3-clique spans a triangle, no
4-clique), and the mod-2 cycle test for simple connectedness passes.
Link girth and flagness are array passes over the complex's triangle
and edge index rows. The edge index of each triangle side (``_sides``)
is found once; the link table and the h1 test (``_h1_rank``) both read
it.

- Link girth, when no edge lies in three or more triangles (every
  generated disk, every surface), reads the link table
  (``_table_girths``). Each link vertex then has at most two link
  neighbours, so each link is disjoint paths and cycles. The table pairs
  each triangle side with the other triangle on its edge, and a walk
  from each corner of each triangle crosses from triangle to triangle
  around that corner: a gather and an equality test per step, and a
  link cycle of length g <= 5 returns its walk to the start after g
  steps.
- Otherwise some link branches, and link girth searches two steps out
  from every vertex s of every link link(v) (``_link_girths``), where
  corner v of triangle (v, p, q) makes p and q adjacent: two adjacent
  neighbours of s close a triangle, a vertex reached from two neighbours
  of s closes a 4-cycle, and two adjacent vertices at distance 2 close a
  cycle of length 5 or less. A shortest cycle of link(v), when of length
  5 or less, is found from each of its vertices (``_link_girths`` proves
  it), so the least length found over the vertices of link(v) is its
  girth when below 6. This search is the only path for branched links.
- Flagness first counts the 3-cliques with the shared 3-clique step
  (``_orient`` and ``_cliques3``): rank the vertices by degree, then
  take an edge a -> b towards the higher rank and an out-neighbour c of
  b with a -> c an edge. Every triangle is a 3-clique, so when there are
  as many 3-cliques as triangles none is empty. A 4-clique's four faces
  would then all be triangles, so the other three vertices would close a
  3-cycle in the link of any one of them: when no link has girth 3 there
  is no 4-clique either, and nothing is listed. Only otherwise does
  ``_flag_blocks`` list the rows: each 3-clique, and its extensions to
  4-cliques through the out-neighbours of c adjacent to a and b. Rule B
  (``quadric``) lists its square-link triangles with the same step.
  Membership is ``np.searchsorted`` on sorted keys.

The two searches go in blocks of about ``_BLOCK_ENTRIES`` expanded
entries, so their working set is one block, or one item (a link vertex
and its two-step paths, an edge and its candidate 3-cliques) where that
is larger, whatever the degrees. Flagness holds the first ``cap``
violations in scan order and counts the rest.

Every blocked loop does only block-local work: ``_link_girths``,
``_cliques3``, ``_flag_blocks`` and rule B's ``_link_triples`` compute
each whole-array quantity (the degrees, the cumulative costs that
``_blocks`` cuts, the sorted keys) once before their loops, and a block
only gathers, expands and binary-searches its own entries. So at any
block size the searches cost their expanded entries, times the log
factor of the binary searches.

The three basepointed checks cover the sphere geometry that squaring
relies on: spheres are triangle-free, two neighbours of a vertex that
are both one step closer to the basepoint are adjacent, and both ends of
an equidistant edge see a common neighbour one step closer. Each is one
array pass over the based complex's level array and its CSR of downward
neighbours, in the order of a scan by sorted triangle, vertex or edge.
"""

from __future__ import annotations

import numpy as np

from .complexes import (
    BasedComplex,
    SimplicialComplex2,
    _expand,
    _h1_rank,
    _intersects,
    _isin_sorted,
    _sides,
    _sorted_rows,
)
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder

# one block of the link and clique searches expands about this many entries
_BLOCK_ENTRIES = 1 << 12


def _blocks(cum: np.ndarray, budget: int):
    """Consecutive ranges [lo, hi) that cover the items, in order.

    Item i costs cum[i + 1] - cum[i]. A range costs at most ``budget``,
    unless it is one item that costs more on its own.
    """
    lo, items = 0, len(cum) - 1
    while lo < items:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] + budget, side="right")) - 1)
        yield lo, hi
        lo = hi


def _cumsum(cost: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(cost)))


def _link_girths(links: np.ndarray, n: int) -> np.ndarray:
    """The girth of link(v) at index v when it is at most 5, else 0.

    ``links`` holds one row (v, p, q) of vertex indices per edge pq of
    link(v), p != q, no edge twice, so each link is a simple graph. A
    root is a vertex s of link(v) with a link neighbour, and the search
    from it looks two steps out in link(v) for the least of

    - 3, when two neighbours x, y of s are adjacent: a triangle s x y;
    - 4, when a vertex y, neither s nor a neighbour of s, is reached from
      two neighbours x != x' of s: a 4-cycle s x y x';
    - 5, when two such vertices y and z are adjacent: with y reached
      from x and z from x', the 5-cycle s x y z x', or the triangle
      x y z when x = x'.

    Each value is the length of a cycle of link(v) or more, so no value is
    below the girth. Now let s lie on a shortest cycle C of length g <= 5.
    No vertex of C has a shortcut to s, which would close a shorter cycle.
    So when g = 3 the other two vertices of C are adjacent neighbours of s,
    when g = 4 the vertex of C opposite s is reached from its two
    neighbours on C, and when g = 5 the two vertices of C opposite s are
    adjacent. The least value over the roots of link(v) is therefore its
    girth when that is below 6, and no value means girth >= 6.

    Roots go in blocks of about ``_BLOCK_ENTRIES`` two-step paths, and the
    search for 5 in blocks of as many neighbours; a block larger than that
    holds one item. The search for 5 skips links whose girth is already
    known.
    """
    girth = np.full(n, 6, dtype=np.intp)  # 6: no cycle of length <= 5 found
    # link edges (v: s -> x); edges 2k and 2k + 1 are one edge both ways
    key = np.repeat(links[:, 0], 2) * n
    key += links[:, 1:].ravel()
    # one run of link edges per root (v, s); a stable argsort, because the
    # default kind maps 256 KB more of numpy's sort code into the process
    by = np.argsort(key, kind="stable")
    at = np.empty_like(by)
    at[by] = np.arange(len(by))
    key = key[by]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    root_v = key[first] // n  # root r is (v, s), ascending
    ptr = np.append(first, len(key))  # the link edges out of root r are ptr[r]:ptr[r + 1]
    degree = np.diff(ptr)  # each root's link degree, read by every block
    rid = np.repeat(np.arange(len(first)), degree)
    hop = rid[at[by ^ 1]]  # link edge (v: s -> x) leads to the root (v, x)
    del key, by, at  # the search needs only the roots and hop
    # roots r and y adjacent as r * R + y, ascending
    R = len(first)
    adjacent = np.sort(rid * R + hop)
    cum = _cumsum(degree[hop])[ptr]  # the two-step paths out of the roots before r
    for lo, hi in _blocks(cum, _BLOCK_ENTRIES):
        e = np.arange(ptr[lo], ptr[hi])
        i, f = _expand(ptr[hop[e]], ptr[hop[e] + 1])  # paths s -> x -> y
        r, y = rid[e[i]], hop[f]
        far = y != r  # y is not s
        r, y = r[far], y[far]
        near = _isin_sorted(adjacent, r * R + y)
        girth[root_v[r[near]]] = 3
        reach = np.sort(r[~near] * R + y[~near])
        twice = root_v[reach[1:][reach[1:] == reach[:-1]] // R]
        girth[twice] = np.minimum(girth[twice], 4)
        reach = reach[np.diff(reach, prepend=-1) != 0]
        r, y = np.divmod(reach, R)
        live = girth[root_v[r]] == 6
        r, y = r[live], y[live]
        for p, q in _blocks(_cumsum(degree[y]), _BLOCK_ENTRIES):
            j, g = _expand(ptr[y[p:q]], ptr[y[p:q] + 1])  # edges y -> z
            z_far = _isin_sorted(reach, r[p + j] * R + hop[g])
            girth[root_v[r[p + j[z_far]]]] = 5
    return np.where(girth < 6, girth, 0)


# A dart is a triangle's corner together with one of its two sides there.
# Dart 6t + 2j + end lies on side j of triangle t = (a, b, c), a < b < c,
# side 0 = ab, 1 = bc, 2 = ac, at the side's end ``end`` (0 the smaller).
# By 2j + end: the column of the vertex opposite its side, and the other
# dart at its corner.
_THIRD = np.array([2, 2, 0, 0, 1, 1])
_TURN = np.array([4, 2, 1, 5, 0, 3])


def _table_girths(tri: np.ndarray, sides: np.ndarray, on_edge: np.ndarray, n: int) -> np.ndarray:
    """``_link_girths`` of a complex with no edge in three or more triangles.

    ``tri`` holds the triangles as sorted index rows, ``sides`` the edge
    index of each side (``_sides``) and ``on_edge`` the triangles on each
    edge. Every link vertex then has at most two link neighbours, the
    third vertices of the triangles on its edge, so each link is a union
    of disjoint paths and cycles, and its girth is its shortest cycle.

    The link table pairs each side with its mate, the other side on its
    edge: the sum of the (at most two) sides on the edge less its own. A
    step from a dart turns to the other dart at its corner and crosses to
    that dart's mate, keeping the corner: at corner v, the dart on side
    v x of triangle v x y steps to the dart on side v y of the other
    triangle v y z on that side. So the opposite vertices y, z, ... walk
    link(v) from x without turning back, and stop at a side with no mate;
    on a cycle of length g the walk first returns to x after g steps. One
    walk per corner, of at most five steps of gathers and equality tests,
    therefore finds every link cycle of length 5 or less from each of its
    vertices.
    """
    girth = np.full(n, 6, dtype=np.intp)  # 6: no cycle of length <= 5 found
    f = np.arange(sides.size)
    flat = sides.ravel()
    # the mate of each side, -1 when its edge holds no other triangle
    total = np.bincount(flat, weights=f, minlength=len(on_edge)).astype(np.intp)
    mate = np.where(on_edge[flat] == 2, total[flat] - f, -1)
    # step[d] for every dart d; the sentinel dart 6T steps to itself and
    # has no opposite vertex
    end = 6 * len(tri)
    turn = (6 * np.arange(len(tri))[:, None] + _TURN).ravel()
    over = mate[turn >> 1]
    step = np.append(np.where(over < 0, end, 2 * over + (turn & 1)), end)
    third = np.append(tri[:, _THIRD].ravel(), -1)
    # one walk per corner: darts 0, 1 and 3, at a, b and c, start from b, a and b
    d = step[(6 * np.arange(len(tri))[:, None] + [0, 1, 3]).ravel()]
    start, corner = tri[:, [1, 0, 1]].ravel(), tri.ravel()
    for g in (3, 4, 5):
        d = step[d]
        back = corner[third[d] == start]  # the walk is back at its start after g steps
        girth[back] = np.minimum(girth[back], g)
    return np.where(girth < 6, girth, 0)


def _orient(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank the vertices by (degree, index) and point each edge to its end of higher rank.

    ``ends`` holds one row of vertex indices per edge, no edge twice.
    Returns ``by``, the index of each rank; the sorted keys a * n + b of
    the edges a -> b, in ranks; and ``out``, with the out-neighbours of a
    at ``keys[out[a]:out[a + 1]] % n``. A vertex points to at most
    sqrt(2 E) others, since each of them has degree at least as high as
    its own.
    """
    by = np.argsort(np.bincount(ends.ravel(), minlength=n) * n + np.arange(n), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by] = np.arange(n)
    a, b = rank[ends.T]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return by, keys, _cumsum(np.bincount(keys // n, minlength=n))


def _cliques3(keys: np.ndarray, out: np.ndarray, n: int):
    """Every 3-clique of the oriented graph ``_orient`` gives, once, in blocks.

    A 3-clique a < b < c in rank comes from the edge a -> b and an
    out-neighbour c of b with a -> c an edge. The edges go in blocks of
    about ``_BLOCK_ENTRIES`` candidates, or one edge where that is more.
    Each block that finds a 3-clique yields (e, c): 3-clique i is edge
    ``keys[e[i]]`` and rank ``c[i]``, ordered by e.
    """
    u, w = np.divmod(keys, n)
    for lo, hi in _blocks(_cumsum(out[w + 1] - out[w]), _BLOCK_ENTRIES):
        e, f = _expand(out[w[lo:hi]], out[w[lo:hi] + 1])
        e += lo
        keep = _isin_sorted(keys, u[e] * n + w[f])
        if keep.any():
            yield e[keep], w[f[keep]]


def _flag_blocks(oriented, tri: np.ndarray, n: int):
    """The flagness scan, one block at a time.

    ``oriented`` is what ``_orient`` gives for the edges, and ``tri`` holds
    one row of vertex indices per triangle. The 3-cliques come from
    ``_cliques3``; a 4-clique a < b < c < d in rank comes once, from the
    3-clique (a, b, c) and an out-neighbour d of c adjacent to a and b.
    The 3-cliques of a block go in blocks of about ``_BLOCK_ENTRIES``
    candidate 4-cliques.

    Each block yields the number of 3-cliques it lists and one row
    (u, w, x, y) of indices per violation, u < w < x < y; an empty
    triangle is (u, w, x, -1).
    """
    by, ekeys, out = oriented
    u, w = np.divmod(ekeys, n)
    rank = np.empty(n, dtype=np.intp)
    rank[by] = np.arange(n)
    # a triangle and a 3-clique a < b < c as (index of edge a -> b) * n + c
    tri = np.sort(rank[tri], axis=1)
    t_edge = np.searchsorted(ekeys, tri[:, 0] * n + tri[:, 1])
    tkeys = np.sort(t_edge * n + tri[:, 2])
    # rank to index; an empty triangle's fourth vertex n sorts last, then reads -1
    index = np.append(by, n)

    def by_index(rows):
        rows = np.sort(index[rows], axis=1)
        rows[rows == n] = -1
        return rows

    for e, x in _cliques3(ekeys, out, n):  # 3-clique i is (u[e[i]], w[e[i]], x[i])
        empty = ~_isin_sorted(tkeys, e * n + x)
        yield len(x), by_index(np.column_stack(
            [u[e[empty]], w[e[empty]], x[empty], np.full(empty.sum(), n)]))
        for p, q in _blocks(_cumsum(out[x + 1] - out[x]), _BLOCK_ENTRIES):
            i, g = _expand(out[x[p:q]], out[x[p:q] + 1])
            i += p
            y = w[g]
            keep = _isin_sorted(ekeys, u[e[i]] * n + y) & _isin_sorted(ekeys, w[e[i]] * n + y)
            i, y = i[keep], y[keep]
            yield 0, by_index(np.column_stack([u[e[i]], w[e[i]], x[i], y]))


def _first_violations(blocks, cap: int) -> tuple[int, int, np.ndarray]:
    """The 3-cliques and violations that ``_flag_blocks`` found, and the first ``cap`` rows.

    The rows come in scan order, sorted (``_sorted_rows``; no row repeats):
    by 3-clique (u, w, x), each empty triangle's -1 before the 4-cliques
    (u, w, x, y) it extends, by y. Rows are held until
    they reach twice ``cap`` plus a block, then cut back to the first
    ``cap``, so a scan with many violations holds few of them at once.
    """
    cliques = count = held = 0
    rows = [np.empty((0, 4), dtype=np.intp)]
    for k, found in blocks:
        cliques += k
        count += len(found)
        held += len(found)
        rows.append(found)
        if held > 2 * (cap + _BLOCK_ENTRIES):
            rows = [_sorted_rows(np.concatenate(rows))[:cap]]
            held = len(rows[0])
    return cliques, count, _sorted_rows(np.concatenate(rows))[:cap]


def verify_systolic(c: SimplicialComplex2, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Link girth, flagness, and the mod-2 simple-connectedness test.

    A vertex outside the smallest vertex's component (the component view
    ``Graph._components``) is a ``disconnected`` certificate, and the h1
    test, which needs a connected complex, is skipped. Certificates come
    in scan order, so a cap keeps the same prefix as a scan of the links
    by vertex and then of the 3-cliques (u, w, x) in order, each empty
    triangle before the 4-cliques (u, w, x, y) it extends, by y.
    """
    g = c.graph
    order = g._order
    n = len(order)
    rb = ReportBuilder("systolic", cap)
    connected = True
    if n:
        unreached = np.flatnonzero(g._components[0]).tolist()  # a root other than index 0
        connected = not rb.disconnected(order[0], tuple(order[i] for i in unreached))
    rb.set_stat("vertices", n)
    rb.set_stat("edges", len(g._ends))
    rb.set_stat("triangles", len(c._rows))

    tri, edges = c._rows, g._ends
    sides = _sides(tri, g._keys, n)
    on_edge = np.bincount(sides.ravel(), minlength=len(edges))  # the triangles on each edge
    rb.count("links", n)
    if on_edge.max(initial=0) <= 2:
        girth = _table_girths(tri, sides, on_edge, n)
    else:  # a branched link: corner v of triangle (v, p, q) makes p and q adjacent in link(v)
        girth = _link_girths(np.concatenate([tri, tri[:, [1, 0, 2]], tri[:, [2, 0, 1]]]), n)
    for v in np.flatnonzero(girth).tolist():
        rb.violation("link-girth", (order[v],), f"girth={girth[v]}")

    oriented = _orient(edges, n)
    cliques = sum(len(x) for _, x in _cliques3(oriented[1], oriented[2], n))
    count, rows = 0, np.empty((0, 4), dtype=np.intp)
    # as many 3-cliques as triangles: each is filled; and a 4-clique would
    # fill the three faces at each corner, a 3-cycle in that corner's link
    if cliques != len(tri) or (girth == 3).any():
        cliques, count, rows = _first_violations(_flag_blocks(oriented, tri, n), cap)
    rb.count("cliques3", cliques)
    for *clique, y in rows.tolist():
        if y < 0:
            rb.violation("flagness", tuple(order[i] for i in clique), "empty-triangle")
        else:
            rb.violation("flagness", tuple(order[i] for i in (*clique, y)), "4-clique")
    rb.uncertified(count - len(rows))

    if connected:
        rank = _h1_rank(sides, len(edges), n)  # the component view found c connected
        rb.set_stat("h1_rank_mod2", rank)
        if rank != 0:
            rb.violation("h1", (), f"rank={rank}")

    return rb.build()


def check_spheres_triangle_free(
    b: BasedComplex, cap: int = DEFAULT_CERT_CAP
) -> CheckReport:
    """No triangle has all three vertices on one sphere around the basepoint."""
    if not isinstance(b.complex, SimplicialComplex2):
        raise ValueError("check_spheres_triangle_free expects a simplicial complex")
    rb = ReportBuilder("spheres-triangle-free", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    rows = b.complex._rows
    rb.count("triangles", len(rows))
    lev = b._lev[rows]
    bad = rows[(lev[:, 0] == lev[:, 1]) & (lev[:, 1] == lev[:, 2])]
    order = b.graph._order
    rb.each_violation("sphere-triangle", bad.tolist(), lambda t: (
        tuple(order[v] for v in t), f"r={b._lev[t[0]]}"))
    return rb.build()


def check_ball_neighbours(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two neighbours of v lying one step closer to the basepoint are adjacent."""
    rb = ReportBuilder("ball-neighbours", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    g = b.graph
    x, v, w = b._down_pairs()
    rb.count("pairs", len(x))
    bad = ~_isin_sorted(g._keys, v * len(g._order) + w)
    order = g._order
    rb.each_violation("ball-neighbours", np.column_stack([x, v, w])[bad].tolist(), lambda t: (
        tuple(order[i] for i in t), f"level={b._lev[t[0]]}"))
    return rb.build()


def check_triangle_condition(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Both ends of an equidistant edge share a neighbour one step closer."""
    rb = ReportBuilder("triangle-condition", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    ends, lev = b.graph._ends, b._lev
    ends = ends[lev[ends[:, 0]] == lev[ends[:, 1]]]
    rb.count("equidistant_edges", len(ends))
    bad = ends[~_intersects(b._down_ptr, b._down_nbr, ends[:, 0], ends[:, 1])]
    order = b.graph._order
    rb.each_violation("triangle-condition", bad.tolist(), lambda e: (
        (order[e[0]], order[e[1]]), f"level={lev[e[0]]}"))
    return rb.build()
