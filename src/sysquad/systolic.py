"""Verification of the systolic conditions and the basepointed sphere lemmas.

verify_systolic covers the structural conditions: every vertex link has
girth >= 6, the complex is flag (each 3-clique spans a triangle, no
4-clique), and the mod-2 cycle test for simple connectedness passes.

The three basepointed checks cover the sphere geometry that squaring
relies on: spheres are triangle-free, two neighbours of a vertex that
are both one step closer to the basepoint are adjacent, and both ends of
an equidistant edge see a common neighbour one step closer.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import (
    BasedComplex,
    SimplicialComplex2,
    bfs_levels,
    girth,
    h1_rank_mod2,
    link,
)
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder


def verify_systolic(c: SimplicialComplex2, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Link girth, flagness, and the mod-2 simple-connectedness test.

    A vertex the smallest vertex does not reach is a ``disconnected``
    certificate, and the h1 test, which needs a connected complex, is
    skipped.
    """
    g = c.graph
    rb = ReportBuilder("systolic", cap)
    connected = True
    if g.vertices:
        source = min(g.vertices)
        reached = bfs_levels(g, source)
        connected = not rb.disconnected(source, tuple(sorted(g.vertices.difference(reached))))
    rb.set_stat("vertices", len(g.vertices))
    rb.set_stat("edges", len(g.edges))
    rb.set_stat("triangles", len(c.triangles))

    for v in sorted(g.vertices):
        lk = link(c, v)
        gg = girth(lk)
        rb.count("links")
        if gg < 6:
            rb.violation("link-girth", (v,), f"girth={gg}")

    for u, w in sorted(g.edges):
        nbs = g.neighbor_set(u) & g.neighbor_set(w)
        for x in sorted(nbs):
            if x < w:
                continue  # count each 3-clique once, with u < w < x
            rb.count("cliques3")
            if not c.has_triangle((u, w, x)):
                rb.violation("flagness", (u, w, x), "empty-triangle")
            deeper = nbs & g.neighbor_set(x)
            for y in sorted(deeper):
                if y > x:
                    rb.violation("flagness", (u, w, x, y), "4-clique")

    if connected:
        rank = h1_rank_mod2(c)
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
    levels = b.levels
    for t in sorted(b.complex.triangles):
        rb.count("triangles")
        la, lb, lc = (levels[v] for v in t)
        if la == lb == lc:
            rb.violation("sphere-triangle", t, f"r={la}")
    return rb.build()


def check_ball_neighbours(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Two neighbours of v lying one step closer to the basepoint are adjacent."""
    rb = ReportBuilder("ball-neighbours", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    g = b.graph
    for v in sorted(g.vertices):
        for w, x in combinations(b.down(v), 2):
            rb.count("pairs")
            if not g.has_edge(w, x):
                rb.violation("ball-neighbours", (v, w, x), f"level={b.levels[v]}")
    return rb.build()


def check_triangle_condition(b: BasedComplex, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Both ends of an equidistant edge share a neighbour one step closer."""
    rb = ReportBuilder("triangle-condition", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    levels = b.levels
    for v, w in sorted(b.graph.edges):
        if levels[v] != levels[w]:
            continue
        rb.count("equidistant_edges")
        if set(b.down(v)).isdisjoint(b.down(w)):
            rb.violation("triangle-condition", (v, w), f"level={levels[v]}")
    return rb.build()
