"""The basepointed squaring transform and its structural checks.

Squaring keeps exactly the edges whose endpoints sit on different
BFS levels from the basepoint and glues one square onto every embedded
4-cycle of what remains. The result is a square complex on the same
vertex set, bipartite by level parity, with levels preserved and the
metric distorted by a factor of at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    _distance,
    _expand,
    _intersects,
    _isin_sorted,
    _sorted_rows,
)
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder
from .systolic import verify_systolic


@dataclass(frozen=True)
class SquaringResult:
    """Input and output of one squaring run; vertex ids are shared."""

    source: BasedComplex
    squared: BasedComplex


def enumerate_embedded_4cycles(g: Graph) -> list[tuple[int, int, int, int]]:
    """All embedded 4-cycles of g, each once, in canonical form, sorted."""
    order = g._order
    return [(order[a], order[b], order[c], order[d])
            for a, b, c, d in _sorted_rows(_embedded_4cycles(g)).tolist()]


def _embedded_4cycles(g: Graph) -> np.ndarray:
    """The embedded 4-cycles of g, each once, as canonical index rows.

    The diagonals {v, w} and {x, y} of a 4-cycle v x w y each have the
    other's ends as common neighbours, so every cycle comes from a pair
    v < w of the common-neighbour view (``Graph._common_neighbours``) and
    two of its common neighbours x < y, once from each diagonal; only the
    smaller diagonal, (v, w) < (x, y), that is v < x, is kept. Then v is the least vertex and x the smaller
    of its two neighbours on the cycle, so (v, x, w, y) is already the
    canonical form. Indices keep the order of ids, so sorting the index
    rows sorts the cycles.
    """
    v, w, ptr, common = g._common_neighbours
    pair = np.repeat(np.arange(len(v)), np.diff(ptr))
    i, j = _expand(np.arange(1, len(common) + 1), ptr[pair + 1])  # x, y of one pair
    v, w, x, y = v[pair[i]], w[pair[i]], common[i], common[j]
    keep = v < x
    return np.stack([v[keep], x[keep], w[keep], y[keep]], axis=1)


def squaring(b: BasedComplex, precheck: bool = True) -> SquaringResult:
    """Square a based systolic complex.

    With ``precheck`` (the default) the source is verified systolic first
    and a failing source raises ValueError. Callers that have already run
    verify_systolic may pass precheck=False.

    The squared graph keeps the source levels: a kept edge joins levels
    that differ by one, and every vertex keeps its edge to a neighbour one
    level down. So the squared complex takes the source's level array, and
    its squares are the canonical rows of ``_embedded_4cycles``.
    """
    if not isinstance(b.complex, SimplicialComplex2):
        raise ValueError("squaring expects a simplicial complex")
    if precheck:
        rep = verify_systolic(b.complex)
        if not rep.passed:  # the default cap keeps the first certificate
            raise ValueError(
                f"source complex is not systolic: {rep.counterexamples[0]}")
    lev = b._lev
    if (lev < 0).any():
        raise ValueError("basepoint does not reach every vertex")
    g = b.graph
    ends = g._ends
    gx = Graph._of(g._order, ends[lev[ends[:, 0]] != lev[ends[:, 1]]])
    sx = SquareComplex._of(gx, _embedded_4cycles(gx))
    return SquaringResult(source=b, squared=BasedComplex._of(sx, b.basepoint, lev))


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
    (disconnected). On a pass ``max_ratio`` is exact: 2/1 once an edge was
    dropped, else 1/1 (0/1 below two vertices).

    The candidates come from two differences of the sorted edge keys, so
    only dropped edges get a neighbour test. The squared graph is
    connected exactly when its basepoint reaches every vertex, which the
    based complex already knows; only a disconnected one reads the
    component view (``Graph._components``) to name the certificates. A
    distance is read from one ``_levels`` search, only for certificates
    kept under the cap.
    """
    rb = ReportBuilder("quasi-isometry", cap)
    gy = result.source.graph
    gx = result.squared.graph
    order = gy._order
    if gx._order != order:
        raise ValueError("squaring must preserve the vertex set")
    n = len(order)
    rb.set_stat("pairs", n * n)
    low = gx._ends[~_isin_sorted(gy._keys, gx._keys)]
    rb.each_violation("stretch-low", low.tolist(), lambda e: (
        (order[e[0]], order[e[1]]),
        f"d_source={_distance(gy, *e)} d_squared=1"))
    dropped = gy._ends[~_isin_sorted(gx._keys, gy._keys)]
    high = dropped[~_intersects(gx._ptr, gx._nbr, dropped[:, 0], dropped[:, 1])]
    rb.each_violation("stretch-high", high.tolist(), lambda e: (
        (order[e[0]], order[e[1]]),
        f"d_source=1 d_squared={_distance(gx, *e)}"))
    if (result.squared._lev < 0).any():
        for i in np.flatnonzero(gx._components[0]).tolist():  # a root other than index 0
            rb.violation("disconnected", (order[0], order[i]), "d_squared=inf")
    rb.set_stat("max_ratio", "0/1" if n < 2 else "2/1" if len(dropped) else "1/1")
    return rb.build()
