"""The basepointed squaring transform and its structural checks.

Squaring keeps exactly the edges whose endpoints sit on different
BFS levels from the basepoint and glues one square onto every embedded
4-cycle of what remains. The result is a square complex on the same
vertex set, bipartite by level parity, with levels preserved and the
metric distorted by a factor of at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    bfs_levels,
    distance,
    enumerate_embedded_4cycles,
)
from .metrics import vertex_order
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder
from .systolic import verify_systolic


@dataclass(frozen=True)
class SquaringResult:
    """Input and output of one squaring run; vertex ids are shared."""

    source: BasedComplex
    squared: BasedComplex


def squaring(b: BasedComplex, precheck: bool = True) -> SquaringResult:
    """Square a based systolic complex.

    With ``precheck`` (the default) the source is verified systolic first
    and a failing source raises ValueError. Callers that have already run
    verify_systolic may pass precheck=False.
    """
    if not isinstance(b.complex, SimplicialComplex2):
        raise ValueError("squaring expects a simplicial complex")
    if precheck:
        rep = verify_systolic(b.complex)
        if not rep.passed:  # the default cap keeps the first certificate
            raise ValueError(
                f"source complex is not systolic: {rep.counterexamples[0]}")
    if b.unreached:
        raise ValueError("basepoint does not reach every vertex")
    levels = b.levels
    g = b.graph
    kept = [(u, w) for u, w in sorted(g.edges) if levels[u] != levels[w]]
    gx = Graph(g.vertices, kept)
    squares = enumerate_embedded_4cycles(gx)
    sx = SquareComplex(gx, squares)
    return SquaringResult(source=b, squared=BasedComplex(sx, b.basepoint))


def check_quasi_isometry(
    result: SquaringResult, cap: int = DEFAULT_CERT_CAP
) -> CheckReport:
    """d_source <= d_squared <= 2 * d_source for every vertex pair, certified locally.

    The bounds hold on all n*n pairs exactly when every squared edge is a
    source edge (so d_source <= d_squared), the ends of every dropped
    source edge share a squared neighbour (so a source path of length L
    gives a squared path of length <= 2L), and the squared graph is
    connected. Each failure is a pair breaking a bound: a squared edge
    outside the source has d_squared = 1 < d_source (stretch-low), a
    dropped edge with no common neighbour has d_squared >= 3
    (stretch-high), and a second component is at d_squared = inf
    (disconnected). Distances are computed only for certificates. On a
    pass ``max_ratio`` is exact: 2/1 once an edge was dropped, else 1/1
    (0/1 below two vertices).
    """
    rb = ReportBuilder("quasi-isometry", cap)
    gy = result.source.graph
    gx = result.squared.graph
    order = vertex_order(gy)
    if vertex_order(gx) != order:
        raise ValueError("squaring must preserve the vertex set")
    n = len(order)
    rb.set_stat("pairs", n * n)
    for u, w in sorted(gx.edges):
        if not gy.has_edge(u, w):
            rb.violation("stretch-low", (u, w),
                         f"d_source={distance(gy, u, w)} d_squared=1")
    dropped = [(u, w) for u, w in sorted(gy.edges) if not gx.has_edge(u, w)]
    for u, w in dropped:
        if gx.neighbor_set(u).isdisjoint(gx.neighbor_set(w)):
            rb.violation("stretch-high", (u, w),
                         f"d_source=1 d_squared={distance(gx, u, w)}")
    if n:
        reached = bfs_levels(gx, order[0])
        for v in order:
            if v not in reached:
                rb.violation("disconnected", (order[0], v), "d_squared=inf")
    rb.set_stat("max_ratio", "0/1" if n < 2 else "2/1" if dropped else "1/1")
    return rb.build()
