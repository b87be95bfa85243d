"""Basepoint intervals and the quadric-complex verification checks.

A square complex is quadric when it is simply connected and both square
replacement rules hold. The checks here verify the rules directly, the
quadrangle condition from a basepoint, that metric balls and intervals
embed isometrically, and that every basepoint interval is K_{2,3}-free
(flat).
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from .complexes import (
    BasedComplex,
    Graph,
    SquareComplex,
    _induced_edges,
    canonical_cycle,
    find_K23,
)
from .metrics import all_pairs, induced_distances, vertex_order
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder


def based_interval(b: BasedComplex, v: int) -> frozenset[int]:
    """Vertices of the interval from the basepoint to v.

    A geodesic from v to the basepoint drops one level per step, so the
    interval is exactly the set reachable from v along ``b.down``, and
    each vertex w in it lies levels[v] - levels[w] steps from v inside it.
    Costs O(interval size), no BFS over the whole complex.
    """
    verts: set[int] = set()
    frontier = {v}
    while frontier:  # one level per round, so the rounds are disjoint
        verts |= frontier
        frontier = {x for w in frontier for x in b.down(w)}
    return frozenset(verts)


def _diagonal_index(c: SquareComplex) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Map each diagonal pair of a square to the sorted middle pairs seen with it."""
    diags: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in sorted(c.squares):
        a, b, cc, d = s
        for diag, mid in ((((a, cc)), (b, d)), (((b, d)), (a, cc))):
            key = (min(diag), max(diag))
            val = (min(mid), max(mid))
            diags.setdefault(key, []).append(val)
    for key in diags:
        diags[key].sort()
    return diags


def check_replacement_rule_A(c: SquareComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two squares over a K_{2,3} force the square on the outer 4-cycle.

    Whenever squares sit on (u0 v0 u1 v1) and (u0 v1 u1 v2), the pattern
    is a K_{2,3} with sides {u0,u1} and {v0,v1,v2}; the rule demands a
    square on (u0 v0 u1 v2) as well.
    """
    rb = ReportBuilder("rule-a", cap)
    for (u0, u1), mids in sorted(_diagonal_index(c).items()):
        for m1, m2 in combinations(mids, 2):
            shared = set(m1) & set(m2)
            if len(shared) != 1:
                continue
            rb.count("patterns")
            v1 = shared.pop()
            v0 = m1[0] if m1[1] == v1 else m1[1]
            v2 = m2[0] if m2[1] == v1 else m2[1]
            if not c.has_square((u0, v0, u1, v2)):
                lo, hi = min(v0, v2), max(v0, v2)
                rb.violation("rule-a", (u0, u1, lo, v1, hi), "missing-outer-square")
    return rb.build()


def _corner_entries(c: SquareComplex, u: int) -> list[tuple[tuple[int, int], int]]:
    """Squares at u seen from u: (sorted pair of corners adjacent to u, opposite corner)."""
    entries = []
    for s in c.squares_at(u):
        i = s.index(u)
        wing = (s[i - 1], s[(i + 1) % 4])
        entries.append(((min(wing), max(wing)), s[(i + 2) % 4]))
    entries.sort()
    return entries


def check_replacement_rule_B(c: SquareComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Three squares around a vertex force a chorded hexagon.

    When squares (u a0 b0 a1), (u a1 b1 a2), (u a2 b2 a0) surround u and
    the hexagon (a0 b0 a1 b1 a2 b2) is embedded, some antipodal pair of
    the hexagon must be joined by an edge with squares on both resulting
    4-cycles. Degenerate (non-embedded) hexagons are skipped.
    """
    rb = ReportBuilder("rule-b", cap)
    g = c.graph
    for u in sorted(g.vertices):
        entries = _corner_entries(c, u)
        if len(entries) < 3:
            continue
        seen = set()  # two square triples can glue to the same hexagon
        for (w0, o0), (w1, o1), (w2, o2) in combinations(entries, 3):
            s01 = set(w0) & set(w1)
            s12 = set(w1) & set(w2)
            s02 = set(w0) & set(w2)
            if len(s01) != 1 or len(s12) != 1 or len(s02) != 1:
                continue
            a1, a2, a0 = s01.pop(), s12.pop(), s02.pop()
            if len({a0, a1, a2}) != 3:
                continue
            # hexagon a0 b0 a1 b1 a2 b2 with b_i opposite u in the i-th square
            b0, b1, b2 = o0, o1, o2
            hexagon = (a0, b0, a1, b1, a2, b2)
            if len(set(hexagon)) != 6:
                rb.count("degenerate")
                continue
            key = canonical_cycle(hexagon)
            if key in seen:
                continue
            seen.add(key)
            rb.count("hexagons")
            options = (
                ((a0, b1), (a0, b0, a1, b1), (b1, a2, b2, a0)),
                ((b0, a2), (b0, a1, b1, a2), (a2, b2, a0, b0)),
                ((a1, b2), (a1, b1, a2, b2), (b2, a0, b0, a1)),
            )
            ok = any(
                g.has_edge(*chord) and c.has_square(c1) and c.has_square(c2)
                for chord, c1, c2 in options
            )
            if not ok:
                rb.violation(
                    "rule-b", (u,) + canonical_cycle(hexagon), "no-chorded-antipode"
                )
    return rb.build()


def check_quadrangle_condition(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two downward neighbours of a vertex see a common vertex two levels down."""
    rb = ReportBuilder("quadrangle", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    for x in sorted(b.graph.vertices):
        for v, w in combinations(b.down(x), 2):
            rb.count("pairs")
            if set(b.down(v)).isdisjoint(b.down(w)):
                rb.violation("quadrangle", (x, v, w), f"level={b.levels[x]}")
    return rb.build()


def check_ball_isometry(
    c: SquareComplex | BasedComplex | Graph,
    cap: int = DEFAULT_CERT_CAP,
    dist: np.ndarray | None = None,
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
    the sum over u of s_u (s_u - 1), s_u the size of u's component.
    """
    g = c if isinstance(c, Graph) else c.graph
    order = vertex_order(g)
    n = len(order)
    idx = {v: i for i, v in enumerate(order)}
    rb = ReportBuilder("ball-isometry", cap)
    rb.set_stat("centers", n)
    if n == 0:
        rb.set_stat("triples", 0)
        return rb.build()
    D = all_pairs(g, order) if dist is None else dist
    finite = D < n
    size = finite.sum(axis=1)
    for x in range(n):
        # bad[u, y]: u in x's component, y != x, d(u,y) <= d(u,x), no step yet
        bad = D <= D[:, x][:, None]
        bad &= finite[:, x][:, None]
        bad[:, x] = False
        for z in g.neighbors(order[x]):
            k = idx[z]
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
    rb.set_stat("triples", int((size * (size - 1)).sum()))
    return rb.build()


def _default_pairs(b: BasedComplex, seed: int = 0) -> list[tuple[int, int]]:
    """Every (basepoint, v) pair, then the new pairs among 2,000 random draws.

    Each draw takes two vertices from an RNG seeded with ``seed``; an
    unordered pair not yet listed is appended in draw order.
    """
    verts = sorted(b.graph.vertices)
    pairs = [(b.basepoint, v) for v in verts]
    rng = random.Random(seed)
    seen = {tuple(sorted(p)) for p in pairs}
    for _ in range(2000):
        u, v = rng.choice(verts), rng.choice(verts)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def check_interval_isometry(
    c: SquareComplex | BasedComplex,
    pairs: list[tuple[int, int]] | None = None,
    cap: int = DEFAULT_CERT_CAP,
    seed: int = 0,
    dist: np.ndarray | None = None,
) -> CheckReport:
    """Each interval of the given vertex pairs embeds isometrically.

    Default sample (the first argument must then be based): every
    (basepoint, v) pair, then the new pairs among 2,000 seeded random
    draws. Passing every pair checks exhaustively.

    Local form: an interval with ambient distance block S embeds
    isometrically exactly when every ordered pair x != y in it has a
    neighbour z of x in the interval with S[z, y] = S[x, y] - 1. The
    second vertex of an induced geodesic is such a z. Conversely, by
    induction on S[x, y], z reaches y inside the interval in S[x, y] - 1
    steps, so x does in S[x, y], and induced distances are never below
    ambient ones. Only a failing interval has its induced distances
    computed; every pair x < y where they differ is certified.
    """
    if pairs is None:
        if not isinstance(c, BasedComplex):
            raise ValueError("default sampling needs a based complex")
        pairs = _default_pairs(c, seed)
    sq = c.complex if isinstance(c, BasedComplex) else c
    g = sq.graph
    order = vertex_order(g)
    idx = {v: i for i, v in enumerate(order)}
    D = all_pairs(g, order) if dist is None else dist
    rb = ReportBuilder("interval-isometry", cap)
    for u, v in pairs:
        rb.count("intervals")
        iu = idx[u]
        iv = idx[v]
        if D[iu, iv] == len(order):
            rb.violation("disconnected", (u, v), "no-path")
            continue
        sub = np.flatnonzero(D[iu] + D[iv] == D[iu, iv])
        S = D[np.ix_(sub, sub)]
        # nbr[x, j]: the j-th neighbour of x in the interval, padded with x,
        # which never has S[x, y] + 1 == S[x, y]; one j at a time keeps
        # memory O(|S|^2)
        adj = S == 1
        deg = adj.sum(axis=1)
        rows, cols = np.nonzero(adj)
        nbr = np.repeat(np.arange(len(sub))[:, None], deg.max(), axis=1)
        nbr[rows, np.arange(len(rows)) - (np.cumsum(deg) - deg)[rows]] = cols
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
    """No basepoint interval contains a K_{2,3}."""
    if not isinstance(b.complex, SquareComplex):
        raise ValueError("check_flat_intervals expects a square complex")
    rb = ReportBuilder("flat-intervals", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    g = b.graph
    for v in sorted(g.vertices):
        rb.count("intervals")
        verts = based_interval(b, v)
        for (u0, u1), triple in find_K23(Graph(verts, _induced_edges(g, verts))):
            rb.violation(
                "k23-in-interval",
                (u0, u1) + triple,
                f"interval={b.basepoint}->{v}",
            )
    return rb.build()
