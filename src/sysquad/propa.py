"""Deficiency, weight functions on flat intervals, and exact norm reports.

Weights follow the construction for 2-dimensional CAT(0) square complexes:
on the interval from the basepoint to a center v, each vertex w gets a value
determined by its deficiency (2 minus its downward degree) and its distance
to v. Two closed forms then hold exactly in integer arithmetic, for every
center and every n: the total mass is (n+2)(n+1)/2 and the l1 difference
across any edge is 2(n+1), giving the normalized ratio 4/(n+2) that
witnesses Property A.

The report checks the norm identity on one array of masses, one row per
vertex and one column per n. Weights are nonnegative, so across an edge
|a - b| = a + b - 2 min(a, b) at every vertex, and min(a, b) = 0 wherever
one side is zero; the l1 difference is therefore the two masses minus
twice the sum of minima over the common support of the two profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import BasedComplex, SquareComplex
from .quadric import based_interval
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder


@dataclass(frozen=True)
class PropertyARow:
    """Exact per-n summary: common norm, worst edge difference, their ratio."""

    n: int
    norm: int
    max_diff: int
    ratio: Fraction
    edges_checked: int


@dataclass(frozen=True)
class PropertyAReport:
    rows: tuple[PropertyARow, ...]
    check: CheckReport

    @property
    def passed(self) -> bool:
        return self.check.passed

    def csv_lines(self) -> list[str]:
        lines = ["n,norm,max_diff,ratio_num,ratio_den,edges_checked"]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.norm},{r.max_diff},"
                f"{r.ratio.numerator},{r.ratio.denominator},{r.edges_checked}"
            )
        return lines


def _weight_table(n_max: int) -> np.ndarray:
    """T[delta, m] for m = 0..n_max: the weight of a vertex of deficiency delta.

    With d its distance to the center and m = n - d >= 0, the weight is

        1 (delta = 0),   m + 1 (delta = 1),   (m + 2)(m + 1)/2 (delta = 2),

    and 0 when m < 0.
    """
    m = np.arange(n_max + 1, dtype=np.int64)
    return np.stack([np.ones_like(m), m + 1, (m + 2) * (m + 1) // 2])


def _profile(b: BasedComplex, v: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of center v on its basepoint interval for every n the table covers.

    Returns (ids, W): ids the sorted interval vertices as an int64 array,
    W[n, j] = f_{n,v}(ids[j]) by the table, with d measured inside the
    interval. That distance is d = levels[v] - levels[w], in any graph: the
    descending path from v to w lies in the interval and has that length,
    and the in-interval distance is at least the ambient one, which is at
    least the level difference. So the support sits inside the ambient
    radius-n ball around v.

    The deficiency of w is 2 - len(b.down(w)). Every neighbour one level
    closer to the base lies on a geodesic to the basepoint, so it belongs
    to any basepoint interval through w: the downward degree is the same
    in the whole complex and in the interval. The caller has checked that
    it is at most 2.
    """
    levels = b.levels
    ids = np.array(sorted(based_interval(b, v)), dtype=np.int64)
    d = np.array([levels[v] - levels[w] for w in ids], dtype=np.int64)
    dl = np.array([2 - len(b.down(w)) for w in ids], dtype=np.int64)
    mm = np.arange(table.shape[1])[:, None] - d[None, :]
    return ids, np.where(mm >= 0, table[dl[None, :], np.maximum(mm, 0)], 0)


def property_a_report(b: BasedComplex, n_max: int,
                      cap: int = DEFAULT_CERT_CAP) -> PropertyAReport:
    """Verify both closed forms on every vertex and edge for n = 0..n_max.

    For each n the report row carries the (common) norm, the maximum edge
    difference, and their exact ratio, which must equal 4/(n+2) and decrease
    strictly in n. Any vertex or edge breaking an identity is a certificate.
    A vertex the basepoint does not reach is a ``disconnected`` certificate,
    and a vertex with more than two downward neighbours, outside the flat
    case the weight table covers, is a ``non-flat`` certificate; either way
    the report then has no rows.
    """
    if not isinstance(b.complex, SquareComplex):
        raise ValueError("property_a_report expects a square complex")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rb = ReportBuilder("property-a", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return PropertyAReport(rows=(), check=rb.build())
    g = b.graph
    verts = sorted(g.vertices)
    for w in verts:
        r = len(b.down(w))
        if r > 2:
            rb.violation("non-flat", (w,), f"downward-degree={r}")
    # stop before any profile: deficiency -1 would read row 2 of the table
    if rb.violations:
        return PropertyAReport(rows=(), check=rb.build())
    table = _weight_table(n_max)
    index = {v: i for i, v in enumerate(verts)}
    profiles = [_profile(b, v, table) for v in verts]
    rb.set_stat("vertices", len(verts))
    rb.set_stat("edges", len(g.edges))
    rb.set_stat("n_max", n_max)
    ns = np.arange(n_max + 1)

    # sums[i, n]: the mass of f_{n, verts[i]}
    sums = np.stack([w.sum(axis=1) for _, w in profiles])
    max_norm = sums.max(axis=0)
    want_norm = (ns + 2) * (ns + 1) // 2
    for i, n in zip(*np.nonzero(sums != want_norm)):
        rb.violation("weight-norm", (verts[i],), f"n={n} sum={sums[i, n]} expected={want_norm[n]}")

    # l1 = both masses minus twice the minima on the common support (see above)
    edges = sorted(g.edges)
    diffs = np.zeros((len(edges), n_max + 1), dtype=np.int64)
    for k, (u, v) in enumerate(edges):
        i, j = index[u], index[v]
        (ids_u, w_u), (ids_v, w_v) = profiles[i], profiles[j]
        _, pu, pv = np.intersect1d(ids_u, ids_v, assume_unique=True, return_indices=True)
        diffs[k] = sums[i] + sums[j] - 2 * np.minimum(w_u[:, pu], w_v[:, pv]).sum(axis=1)
    max_diff = diffs.max(axis=0, initial=0)
    want_diff = 2 * (ns + 1)
    for k, n in zip(*np.nonzero(diffs != want_diff)):
        rb.violation("weight-difference", edges[k],
                     f"n={n} diff={diffs[k, n]} expected={want_diff[n]}")

    rows: list[PropertyARow] = []
    for n in range(n_max + 1):
        # the basepoint's mass is positive, so no norm is 0
        ratio = Fraction(int(max_diff[n]), int(max_norm[n]))
        if edges:
            want = Fraction(4, n + 2)
            if ratio != want:
                rb.violation("ratio", (n,), f"ratio={ratio} expected={want}")
            if rows and not ratio < rows[-1].ratio:
                rb.violation("ratio-monotone", (n,), f"ratio={ratio} previous={rows[-1].ratio}")
        rows.append(PropertyARow(n, int(max_norm[n]), int(max_diff[n]), ratio, len(edges)))
    return PropertyAReport(rows=tuple(rows), check=rb.build())
