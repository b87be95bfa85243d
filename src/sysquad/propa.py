"""Deficiency, weight functions on flat intervals, and exact norm reports.

Weights follow the construction for 2-dimensional CAT(0) square complexes:
on the interval from the basepoint to a center v, each vertex w gets a value
determined by its deficiency (2 minus its downward degree) and its distance
to v. Two closed forms then hold exactly in integer arithmetic, for every
center and every n: the total mass is (n+2)(n+1)/2 and the l1 difference
across any edge is 2(n+1), giving the normalized ratio 4/(n+2) that
witnesses Property A.
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
    profiles = {v: _profile(b, v, table) for v in verts}
    rb.set_stat("vertices", len(verts))
    rb.set_stat("edges", len(g.edges))
    rb.set_stat("n_max", n_max)

    max_norm = np.zeros(n_max + 1, dtype=np.int64)
    for v in verts:
        _, w_rows = profiles[v]
        sums = w_rows.sum(axis=1)
        np.maximum(max_norm, sums, out=max_norm)
        for n in range(n_max + 1):
            expected = (n + 2) * (n + 1) // 2
            if int(sums[n]) != expected:
                rb.violation(
                    "weight-norm", (v,),
                    f"n={n} sum={int(sums[n])} expected={expected}",
                )

    edges = sorted(g.edges)
    max_diff = np.zeros(n_max + 1, dtype=np.int64)
    for u, v in edges:
        ids_u, w_u = profiles[u]
        ids_v, w_v = profiles[v]
        union = np.union1d(ids_u, ids_v)
        a = np.zeros((n_max + 1, len(union)), dtype=np.int64)
        bmat = np.zeros_like(a)
        pu = np.searchsorted(union, ids_u)
        pv = np.searchsorted(union, ids_v)
        a[:, pu] = w_u
        bmat[:, pv] = w_v
        diffs = np.abs(a - bmat).sum(axis=1)
        np.maximum(max_diff, diffs, out=max_diff)
        for n in range(n_max + 1):
            expected = 2 * (n + 1)
            if int(diffs[n]) != expected:
                rb.violation(
                    "weight-difference", (u, v),
                    f"n={n} diff={int(diffs[n])} expected={expected}",
                )

    rows = []
    prev_ratio: Fraction | None = None
    for n in range(n_max + 1):
        norm = int(max_norm[n])
        md = int(max_diff[n]) if edges else 0
        ratio = Fraction(md, norm) if norm else Fraction(0, 1)
        if edges:
            want = Fraction(4, n + 2)
            if ratio != want:
                rb.violation(
                    "ratio", (n,),
                    f"ratio={ratio} expected={want}",
                )
            if prev_ratio is not None and not ratio < prev_ratio:
                rb.violation(
                    "ratio-monotone", (n,),
                    f"ratio={ratio} previous={prev_ratio}",
                )
            prev_ratio = ratio
        rows.append(PropertyARow(
            n=n,
            norm=norm,
            max_diff=md,
            ratio=ratio,
            edges_checked=len(edges),
        ))
    return PropertyAReport(rows=tuple(rows), check=rb.build())
