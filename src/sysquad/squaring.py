"""The basepointed squaring transform and its structural checks.

Squaring keeps exactly the edges whose endpoints sit on different
BFS levels from the basepoint and glues one square onto every embedded
4-cycle of what remains. The result is a square complex on the same
vertex set, bipartite by level parity, with levels preserved and the
metric distorted by a factor of at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    enumerate_embedded_4cycles,
)
from .metrics import distance_chunks, vertex_order
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
        if not rep.passed:
            first = rep.counterexamples[0] if rep.counterexamples else None
            raise ValueError(f"source complex is not systolic: {first}")
    levels = b.levels
    g = b.graph
    if len(levels) != len(g.vertices):
        raise ValueError("basepoint does not reach every vertex")
    kept = [(u, w) for u, w in sorted(g.edges) if levels[u] != levels[w]]
    gx = Graph(g.vertices, kept)
    squares = enumerate_embedded_4cycles(gx)
    sx = SquareComplex(gx, squares)
    return SquaringResult(source=b, squared=BasedComplex(sx, b.basepoint))


def check_quasi_isometry(
    result: SquaringResult, cap: int = DEFAULT_CERT_CAP, chunk: int = 512
) -> CheckReport:
    """d_source <= d_squared <= 2 * d_source for every vertex pair."""
    rb = ReportBuilder("quasi-isometry", cap)
    gy = result.source.graph
    gx = result.squared.graph
    order = vertex_order(gy)
    if vertex_order(gx) != order:
        raise ValueError("squaring must preserve the vertex set")
    best_num, best_den = 0, 1  # max of d_squared / d_source over pairs
    pairs = 0
    chunks_x = distance_chunks(gx, order, chunk)
    for (sources, dy), (_, dx) in zip(distance_chunks(gy, order, chunk), chunks_x):
        if not np.all(np.isfinite(dx)):
            for i, j in np.argwhere(~np.isfinite(dx)):
                rb.violation(
                    "disconnected", (order[sources[i]], order[int(j)]), "d_squared=inf"
                )
            rb.count("pairs", int(dx.size))
            continue
        pairs += dx.size
        low = dx < dy
        high = dx > 2.0 * dy
        for mask, kind in ((low, "stretch-low"), (high, "stretch-high")):
            if mask.any():
                for i, j in np.argwhere(mask):
                    rb.violation(
                        kind,
                        (order[sources[i]], order[int(j)]),
                        f"d_source={int(dy[i, j])} d_squared={int(dx[i, j])}",
                    )
        # track the extremal integer ratio exactly
        offdiag = dy > 0
        if offdiag.any():
            ratios = np.where(offdiag, dx, 0.0) / np.where(offdiag, dy, 1.0)
            i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
            num, den = int(dx[i, j]), int(dy[i, j])
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    rb.count("pairs", pairs)
    ratio = Fraction(best_num, best_den) if best_den else Fraction(0)
    rb.set_stat("max_ratio", f"{ratio.numerator}/{ratio.denominator}")
    return rb.build()
