"""The quadric-complex verification checks.

A square complex is quadric when it is simply connected and both square
replacement rules hold. The checks here verify the rules directly, the
quadrangle condition from a basepoint, that metric balls and intervals
embed isometrically, and that every basepoint interval is K_{2,3}-free
(flat).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, combinations, islice

import numpy as np

from .complexes import (
    _STORE_ROWS,
    BasedComplex,
    Graph,
    SquareComplex,
    _canonical_rows,
    _expand,
    _first_rows,
    _intersects,
    _isin_sorted,
    _padded,
    _sorted_rows,
)
from .metrics import all_pairs, induced_distances
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder
from .systolic import _cliques3, _orient


def _has_squares(c: SquareComplex, cycles: np.ndarray, n: int) -> np.ndarray:
    """Whether a square of ``c``, on ``n`` vertices, sits on each 4-cycle
    (p, q, r, s) of indices, the last axis of ``cycles``: one with the
    diagonal {p, r} and the wings {q, s} in the square table
    (``SquareComplex._square_table``)."""
    pairs, keys = c._square_table
    p, q, r, s = np.moveaxis(cycles, -1, 0)
    diagonal = np.minimum(p, r) * n + np.maximum(p, r)
    at = np.minimum(np.searchsorted(pairs, diagonal), len(pairs) - 1)
    wings = np.minimum(q, s) * n + np.maximum(q, s)
    return (pairs[at] == diagonal) & _isin_sorted(keys, at * n * n + wings)


def check_replacement_rule_A(c: SquareComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two squares over a K_{2,3} force the square on the outer 4-cycle.

    Whenever squares sit on (u0 v0 u1 v1) and (u0 v1 u1 v2), the pattern
    is a K_{2,3} with sides {u0,u1} and {v0,v1,v2}; the rule demands a
    square on (u0 v0 u1 v2) as well.

    Both squares of a pattern carry the diagonal {u0, u1}, so the
    patterns are the pairs of keys of the square table
    (``SquareComplex._square_table``) on one diagonal whose wings share
    one vertex, and a complex whose diagonals all differ has none. The
    table is a view of the complex, built once on first use, so rule B
    reads the same table. The keys ascend by diagonal, then wings, so the
    pairs come in the order of a scan of the diagonals in turn, each
    taking the ``combinations`` of its sorted wing pairs. Each outer
    square is one lookup in the same table.
    """
    rb = ReportBuilder("rule-a", cap)
    order = c.graph._order
    n = len(order)
    pairs, keys = c._square_table
    if len(pairs) == len(keys):  # no shared diagonal
        return rb.build()
    rank, wings = np.divmod(keys, n * n)
    w = np.stack(np.divmod(wings, n), axis=1)
    # keys i < j of one diagonal, as combinations; a pattern when one wing is shared
    i, j = _expand(np.arange(1, len(keys) + 1), np.searchsorted(rank, rank, side="right"))
    same = w[i, :, None] == w[j, None, :]
    v1 = np.where(same[:, 0].any(axis=1), w[i, 0], w[i, 1])
    v0, v2 = w[i].sum(axis=1) - v1, w[j].sum(axis=1) - v1
    # (u0, u1, lo, v1, hi), whose outer square is (u0 lo u1 hi)
    found = np.column_stack([*np.divmod(pairs[rank[i]], n), np.minimum(v0, v2), v1,
                             np.maximum(v0, v2)])[same.sum(axis=(1, 2)) == 1]
    rb.count("patterns", len(found))
    rb.each_violation("rule-a", found[~_has_squares(c, found[:, [0, 2, 1, 4]], n)].tolist(),
                      lambda t: (tuple(order[v] for v in t), "missing-outer-square"))
    return rb.build()


def _link_triples(c: SquareComplex) -> np.ndarray:
    """Every triple i < j < k of corner-view rows (``SquareComplex._corners``)
    whose wings are the three edges of a square-link triangle, as sorted
    rows (i, j, k).

    The square-links of all vertices form one simple graph on the graph's
    CSR slots: each distinct prefix (u, a, b) of the rows joins the slots
    u -> a and u -> b, so a triangle of it lies in one square-link. Its
    triangles come from ``_cliques3``. A triangle x < y < z at u has its
    rows in three runs, those of (x, y) before (x, z) before (y, z), and
    gives every triple of one row from each run, one per choice among
    parallel squares.
    """
    g, rows = c.graph, c._corners
    n, m = len(g._order), len(g._nbr)
    slot = np.searchsorted(g._src * n + g._nbr, rows[:, :1] * n + rows[:, 1:3])
    key = slot[:, 0] * m + slot[:, 1]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    ptr = np.append(first, len(key))  # the rows of link edge p are ptr[p]:ptr[p + 1]
    key = key[first]
    by, ekeys, out = _orient(slot[first], m)
    found = [np.empty((0, 3), dtype=np.intp)]
    for e, z in _cliques3(ekeys, out, m):
        s = np.sort(by[np.column_stack([*np.divmod(ekeys[e], m), z])], axis=1)
        p = np.searchsorted(key, s[:, [0, 0, 1]] * m + s[:, [1, 2, 2]])
        t, i = _expand(ptr[p[:, 0]], ptr[p[:, 0] + 1])
        q, j = _expand(ptr[p[t, 1]], ptr[p[t, 1] + 1])
        t, i = t[q], i[q]
        q, k = _expand(ptr[p[t, 2]], ptr[p[t, 2] + 1])
        found.append(np.column_stack([i[q], j[q], k]))
    return _sorted_rows(np.concatenate(found))


def check_replacement_rule_B(c: SquareComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Three squares around a vertex force a chorded hexagon.

    When squares (u a0 b0 a1), (u a1 b1 a2), (u a2 b2 a0) surround u and
    the hexagon (a0 b0 a1 b1 a2 b2) is embedded, some antipodal pair of
    the hexagon must be joined by an edge with squares on both resulting
    4-cycles. Degenerate (non-embedded) hexagons are skipped.

    Three squares at u, seen from u as their wing pairs, glue to such a
    hexagon only when each two wing pairs share one vertex and the three
    shared vertices are distinct. Three wing pairs pass that test exactly
    when they are the three edges of a triangle in the square-link of u,
    the simple graph on u's neighbours with an edge for the wings of each
    square at u: the shared vertices a0, a1, a2 make the pairs {a0, a1},
    {a1, a2}, {a2, a0}, and the edges of a triangle meet pairwise in its
    three vertices. Parallel squares, on the same wings, share two. So
    the scan reads only the triples ``_link_triples`` lists, in the order
    a scan of every triple of squares at every vertex would meet them,
    and a complex without such a triple has no hexagon to test.

    The triples are tested as arrays in that order: a hexagon with a
    repeated vertex counts as degenerate, and each (u, canonical hexagon)
    keeps its first triple. Each option's chord is an edge of both of its
    squares, so two lookups in the square table test the option.
    """
    rb = ReportBuilder("rule-b", cap)
    triples = _link_triples(c)
    if not len(triples):
        return rb.build()
    order = c.graph._order
    # rows (u, x, y, b0), (u, x, z, b1), (u, y, z, b2) give the hexagon
    # a0 b0 a1 b1 a2 b2 = y b0 x b1 z b2 about u
    hexagons = c._corners[triples].reshape(-1, 12)[:, [0, 2, 3, 1, 7, 6, 11]]
    srt = np.sort(hexagons[:, 1:], axis=1)
    embedded = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
    rb.count("degenerate", int((~embedded).sum()))
    # two square triples can glue to the same hexagon: keep its first one
    key = np.column_stack([hexagons[embedded, 0], _canonical_rows(hexagons[embedded, 1:])])
    key = key[_first_rows(key)]
    rb.count("hexagons", len(key))
    # on the canonical hexagon h, which has the same three antipodal pairs,
    # square k lies on h[k] .. h[k + 3]; option k takes squares k and k + 3
    on = _has_squares(c, key[:, 1 + (np.arange(6)[:, None] + np.arange(4)) % 6], len(order))
    rb.each_violation("rule-b", key[~(on[:, :3] & on[:, 3:]).any(axis=1)].tolist(),
                      lambda t: (tuple(order[v] for v in t), "no-chorded-antipode"))
    return rb.build()


def check_quadrangle_condition(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two downward neighbours of a vertex see a common vertex two levels down."""
    rb = ReportBuilder("quadrangle", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    x, v, w = b._down_pairs()
    rb.count("pairs", len(x))
    bad = ~_intersects(b._down_ptr, b._down_nbr, v, w)
    order = b.graph._order
    rb.each_violation("quadrangle", np.column_stack([x, v, w])[bad].tolist(), lambda t: (
        tuple(order[i] for i in t), f"level={b._lev[t[0]]}"))
    return rb.build()


# entries of D per block of pairs in is_modular, 64 KB at uint16. Measured on
# squared disks of 469 to 11,173 vertices: 2^15 is fastest at the small end;
# 2^17 wins from a few thousand vertices (0.42 s against 0.70 s at 11,173),
# but its temporaries add 0.5 MB to the peak memory of a 469-vertex run
_BLOCK_ENTRIES = 1 << 15


# pairs per gather in check_interval_isometry on modular input: 64K pairs
# hold 1 MB of indices, while --exhaustive can list hundreds of millions
_PAIR_BLOCK = 1 << 16


def is_modular(g: Graph, D: np.ndarray) -> bool:
    """Whether every connected component of ``g`` is a modular graph.

    ``D`` is ``all_pairs(g)``.
    I(a, b) is the set of vertices on geodesics from a to b. A connected
    graph is modular when every triple u, x, y has a median: a vertex in
    I(u,x), I(u,y) and I(x,y). Per component the test checks two
    conditions:

    (B) Bipartite. The ends of each edge lie at different depths in the
        component view (``Graph._components``), that is at different
        distances from the component's least vertex, so every edge
        changes the distance to any vertex by exactly one.
    (Q) The quadrangle condition from every base. Take v != w with common
        neighbours C, so d(v,w) = 2. Then every u with d(u,v) = d(u,w) = k
        has some c in C with d(u,c) = k - 1.

    Both are necessary. An edge xy with d(u,x) = d(u,y) leaves no median
    of (u, x, y) in I(x,y) = {x, y}. The median of (u, v, w) in (Q) is a
    common neighbour of v and w at distance k - 1 from u. So the test
    passes exactly on modular graphs.

    Step 1: (B) and (Q) imply modular (Bandelt, van de Vel and Verheul,
    "Modular interval spaces", Math. Nachr. 1993; Bandelt and Chepoi,
    "Metric graph theory and geometry: a survey", 2008). Take u, x, y in
    one component and m in I(u,x) and I(u,y), farthest from u. A vertex
    in both I(m,x) and I(m,y) lies in I(u,x) and I(u,y), farther from u
    unless it is m. Among the geodesics m = a_0, ..., a_p = x take one
    with least sum of f(i) = d(y, a_i). By (B) each step changes f by one.
    If f(1) = f(0) - 1, then a_1 is in I(m,x) and I(m,y), so f(1) = f(0) + 1.
    A peak f(i-1) = f(i+1) = f(i) - 1 inside the walk cannot occur: (Q)
    from base y gives a common neighbour of a_(i-1) and a_(i+1) at
    f(i) - 2, and putting it in place of a_i lowers the sum. So f rises
    at every step, d(y,x) = d(y,m) + d(m,x), and m is a median.

    Step 2: modular implies the reduced ball condition of
    ``check_ball_isometry``. Take u, x, y with y != x and
    d(u,y) <= d(u,x), and a median m. If m = x then
    d(u,y) = d(u,x) + d(x,y) > d(u,x). So m != x, and the first step z
    from x towards m lies in I(x,u) and I(x,y): d(z,y) = d(x,y) - 1 and
    d(u,z) = d(u,x) - 1.

    Step 3: modular implies the interval condition of
    ``check_interval_isometry``. Take x, y in I(a,b) and the median m of
    (x, y, a). A geodesic from x through m to y has length d(x,y). Its
    part from x to m lies in I(a,x), and its part from m to y lies in
    I(a,y). Both are inside I(a,b), because I(a,x) is inside I(a,b) for
    every x in I(a,b).

    Work: one gather per edge, then one row test per pair (v, w) with a
    common neighbour. The common-neighbour view
    (``Graph._common_neighbours``) forms one table, a row per pair,
    ``_padded`` with the pair's first common neighbour; the padding
    repeats a member of C, so the minimum over a row is the minimum over
    C. The rows go in blocks of ``_BLOCK_ENTRIES // n`` pairs, and a
    block's minimum is one row gather of ``D`` per table column, folded in
    place by ``np.minimum``. With near(u) that minimum of d(u,c) over C,
    (Q) is near(u) <= d(u,v) wherever d(u,v) = d(u,w). By (B), each c in
    C has d(u,c) = d(u,v) - 1 or d(u,v) + 1 when u lies in the pair's
    component. Outside it, all three distances are the sentinel n, so
    such a u passes with no connectivity test of its own.
    """
    n = len(g._order)
    ends = g._components[1][g._ends]  # the depths of each edge's two ends
    if (ends[:, 0] == ends[:, 1]).any():
        return False
    vs, ws, ptr, common = g._common_neighbours
    table = _padded(ptr, common, common[ptr[:-1]])
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    nearest = np.empty((min(step, len(table)), n), dtype=D.dtype)
    row = np.empty_like(nearest)
    for p in range(0, len(table), step):
        block = table[p:p + step]
        near, other = nearest[:len(block)], row[:len(block)]
        # the indices are valid, and mode="clip" lets take write to out unbuffered
        np.take(D, block[:, 0], axis=0, out=near, mode="clip")
        for column in block.T[1:]:
            np.minimum(near, np.take(D, column, axis=0, out=other, mode="clip"), out=near)
        dv = D[vs[p:p + step]]
        if not ((dv != D[ws[p:p + step]]) | (near <= dv)).all():
            return False
    return True


def check_ball_isometry(
    c: SquareComplex | Graph,
    cap: int = DEFAULT_CERT_CAP,
    dist: np.ndarray | None = None,
    modular: bool | None = None,
) -> CheckReport:
    """Every ball around every center embeds isometrically, all radii at once.

    Local form: a ball B(u, r) embeds isometrically exactly when, for all
    x != y in it, some neighbour z of x with d(z,y) = d(x,y) - 1 stays in
    it, so the family passes when for every center u and ordered pair
    (x, y) in u's component such a first step z has
    d(u,z) <= max(d(u,x), d(u,y)).

    Reduced condition: when d(u,y) > d(u,x), every first step z has
    d(u,z) <= d(u,x) + 1 <= d(u,y), so the condition can fail only when
    d(u,y) <= d(u,x). The check therefore asks, for u, x, y in one
    component with y != x and d(u,y) <= d(u,x), for a neighbour z of x
    with d(z,y) < d(x,y) and d(u,z) <= d(u,x). Per x it keeps one n x n
    boolean mask over (u, y) and clears it with one outer product per
    neighbour of x. A failing triple certifies that the smallest ball
    around u containing x and y distorts d(x, y); the certificate carries
    the recomputed in-ball distance.

    ``stat triples`` counts the (u, x, y) with y != x in one component:
    the sum over u of s_u (s_u - 1), s_u the size of u's component. The
    components, here and in the scan, come from the component view
    (``Graph._components``), not from ``D``.

    A modular graph satisfies the reduced condition (``is_modular``, step
    2), so the scan runs only when that certificate fails, and only the
    scan produces certificates. On modular input the check does not read
    ``D``.

    ``dist`` is ``all_pairs`` of the graph and ``modular`` its
    ``is_modular`` verdict, when the caller already has them; None
    computes them here, the matrix only when the verdict needs it.
    """
    g = c if isinstance(c, Graph) else c.graph
    order = g._order
    n = len(order)
    rb = ReportBuilder("ball-isometry", cap)
    rb.set_stat("centers", n)
    D = dist if dist is not None or modular else all_pairs(g)
    root, _ = g._components
    size = np.bincount(root, minlength=n)[root]  # the size of each vertex's component
    rb.set_stat("triples", int((size * (size - 1)).sum()))
    if modular is None:
        modular = is_modular(g, D)
    if modular:
        return rb.build()
    for x in range(n):
        # bad[u, y]: u in x's component, y != x, d(u,y) <= d(u,x), no step yet
        bad = D <= D[:, x][:, None]
        bad &= (root == root[x])[:, None]
        bad[:, x] = False
        for k in g._nbr[g._ptr[x]:g._ptr[x + 1]].tolist():
            bad &= ~np.logical_and.outer(D[:, k] <= D[:, x], D[k] + 1 == D[x])
        if not bad.any():
            continue
        for u, y in zip(*np.nonzero(bad)):
            info = ""
            if rb.violations < cap:  # past the cap a violation is only counted
                r = max(D[u, x], D[u, y])
                ball = np.flatnonzero(D[u] <= r)
                # a ball is connected, so its distances are below the sentinel
                inner = induced_distances(D, ball)
                db = inner[np.searchsorted(ball, x), np.searchsorted(ball, y)]
                info = f"r={r} d_ball={db} d={D[x, y]}"
            rb.violation("ball-isometry", (order[int(u)], order[x], order[int(y)]), info)
    return rb.build()


def check_interval_isometry(
    c: SquareComplex | Graph,
    pairs: Iterable[tuple[int, int]],
    cap: int = DEFAULT_CERT_CAP,
    dist: np.ndarray | None = None,
    modular: bool | None = None,
) -> CheckReport:
    """Each interval of the given vertex pairs embeds isometrically.

    Local form: an interval with ambient distance block S embeds
    isometrically exactly when every ordered pair x != y in it has a
    neighbour z of x in the interval with S[z, y] = S[x, y] - 1. The
    second vertex of an induced geodesic is such a z. Conversely, by
    induction on S[x, y], z reaches y inside the interval in S[x, y] - 1
    steps, so x does in S[x, y], and induced distances are never below
    ambient ones. Only a failing interval has its induced distances
    computed; every pair x < y where they differ is certified.

    In a modular graph every interval satisfies the local form
    (``is_modular``, step 3). When that certificate passes, only the
    ``disconnected`` test runs, one gather of the component view
    (``Graph._components``) per block, and ``D`` is not read. The
    fallback takes its ``disconnected`` test from the same view. Either
    way the pairs are read in blocks of ``_PAIR_BLOCK``, each mapped to
    indices in one pass, and a pair that names no vertex raises
    ``ValueError``.

    ``dist`` is ``all_pairs`` of the graph and ``modular`` its
    ``is_modular`` verdict, when the caller already has them; None
    computes them here, the matrix only when the verdict needs it.
    """
    g = c if isinstance(c, Graph) else c.graph
    order = g._order
    index = g._index  # the pairs name ids
    root, _ = g._components
    D = dist if dist is not None or modular else all_pairs(g)
    if modular is None:
        modular = is_modular(g, D)
    rb = ReportBuilder("interval-isometry", cap)
    pairs = iter(pairs)
    while block := list(islice(pairs, _PAIR_BLOCK)):
        rb.count("intervals", len(block))
        try:
            ij = np.fromiter(map(index.__getitem__, chain.from_iterable(block)),
                             dtype=np.intp, count=2 * len(block))
        except KeyError as e:
            raise ValueError(f"unknown vertex {e.args[0]}") from None
        if modular:  # only the disconnected test: one gather per block of pairs
            for k in np.flatnonzero(root[ij[0::2]] != root[ij[1::2]]).tolist():
                u, v = block[k]
                rb.violation("disconnected", (u, v), "no-path")
            continue
        for (u, v), iu, iv in zip(block, ij[0::2].tolist(), ij[1::2].tolist()):
            if root[iu] != root[iv]:
                rb.violation("disconnected", (u, v), "no-path")
                continue
            sub = np.flatnonzero(D[iu] + D[iv] == D[iu, iv])
            S = D[np.ix_(sub, sub)]
            # nbr[x, j]: the j-th neighbour of x in the interval, padded with x,
            # which never has S[x, y] + 1 == S[x, y]; one j at a time keeps
            # memory O(|S|^2)
            adj = S == 1
            ptr = np.append(0, np.cumsum(adj.sum(axis=1)))
            nbr = _padded(ptr, np.nonzero(adj)[1], np.arange(len(sub)))
            down = np.eye(len(sub), dtype=bool)
            for column in nbr.T:
                down |= S[column] + 1 == S
            if down.all():
                continue
            # an interval is connected (geodesics from u), so no entry is the sentinel
            inner = induced_distances(D, sub)
            for i, j in zip(*np.nonzero(np.triu(inner != S, 1))):
                rb.violation(
                    "interval-isometry",
                    (u, v, order[sub[i]], order[sub[j]]),
                    f"d_interval={inner[i, j]} d={S[i, j]}",
                )
    return rb.build()


def check_flat_intervals(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """No basepoint interval contains a K_{2,3}.

    An interval is an induced subgraph, so a K_{2,3} in it is a pair u < w
    of the interval with three common neighbours in the whole graph that
    all lie in the interval. The pairs with at least three common
    neighbours are therefore read from the graph's common-neighbour view
    (``Graph._common_neighbours``), sorted, each with its sorted common
    neighbours; squaring and ``is_modular`` read the same view. With no
    such pair, no interval is read. Otherwise the interval store
    (``BasedComplex._intervals``) holds every interval on the ends and
    middles of those pairs alone. For each interval in vertex order, every
    such pair with both ends inside emits the 3-subsets of its common
    neighbours inside, in lexicographic order. These are exactly the
    K_{2,3} occurrences of the induced interval, sorted as (pair, triple),
    so the kept certificate prefix is that of a search on each interval in
    turn. The store is read ``_STORE_ROWS`` intervals at a time: k middles
    inside give C(k, 3) triples, and they are listed only while the cap
    has room.
    """
    if not isinstance(b.complex, SquareComplex):
        raise ValueError("check_flat_intervals expects a square complex")
    rb = ReportBuilder("flat-intervals", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    order = b.graph._order
    n = len(order)
    v, w, ptr, common = b.graph._common_neighbours
    rb.set_stat("intervals", n)
    many = np.flatnonzero(np.diff(ptr) >= 3)
    if not len(many):  # no K_{2,3} in the graph, so none in an interval
        return rb.build()
    v, w, lo, hi = v[many], w[many], ptr[many], ptr[many + 1]
    mids = common[_expand(lo, hi)[1]]  # the middles of pair p start at starts[p]
    starts = np.cumsum(hi - lo) - (hi - lo)
    stored = np.unique(np.concatenate([v, w, mids]))
    col = np.full(n, -1, dtype=np.intp)
    col[stored] = np.arange(len(stored))
    bits = b._intervals(col, len(stored))
    total = 0
    for first in range(0, n, _STORE_ROWS):
        inside = np.unpackbits(bits[first:first + _STORE_ROWS], axis=1,
                               count=len(stored)).view(bool)
        # k[i, p]: the middles of pair p in interval first + i, when both ends are
        k = np.add.reduceat(inside[:, col[mids]], starts, axis=1, dtype=np.int64)
        k *= inside[:, col[v]] & inside[:, col[w]]
        triples = k * (k - 1) * (k - 2) // 6
        total += int(triples.sum())
        # each hit gives one triple at least, and the cap keeps the first ones
        for i, p in np.argwhere(triples)[:max(0, cap - rb.violations)].tolist():
            inner = [order[z] for z in common[lo[p]:hi[p]].tolist() if inside[i, col[z]]]
            for triple in islice(combinations(inner, 3), max(0, cap - rb.violations)):
                rb.violation("k23-in-interval", (order[v[p]], order[w[p]]) + triple,
                             f"interval={b.basepoint}->{order[first + i]}")
    rb.uncertified(total - rb.violations)  # past the cap a violation is only counted
    return rb.build()
