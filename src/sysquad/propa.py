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
twice the sum of minima over the common support I(u) & I(v), the vertices
of both basepoint intervals.

Neither sum needs the weights vertex by vertex. With L the level (the
distance from the base) and delta the deficiency, the weight of center v
at w in I(v) is f_{n,v}(w) = T[delta(w), n - (L(v) - L(w))]: inside the
interval, w lies L(v) - L(w) steps from v. Every neighbour of w one level
lower lies on a geodesic to the base, so it is in every basepoint interval
through w, and delta(w) = 2 - |down(w)| is the same in the interval and in
the whole complex. So f_{n,v}(w) depends on w only through its class
(L(w), delta(w)), and the mass of v is

    sum over classes (l, delta) of |I(v) & class| * T[delta, n - (L(v) - l)].

For the minima: T is nondecreasing in m and 0 below m = 0, so at a common
vertex w the smaller of the two weights is the one seen from the center
farther from the base, the one with the smaller m. The sum of minima over
an edge u v is then

    sum over classes (l, delta) of |I(u) & I(v) & class|
                                   * T[delta, n - (max(L(u), L(v)) - l)].

This holds for every edge, also one whose two ends lie on the same level.

An edge joins two levels or lies within one. Across levels it needs no
count: take u v with L(v) = L(u) + 1. Then u is in down(v), so I(u) lies
inside I(v), and for x in I(u)

    f_{n,v}(x) = T[delta(x), n - (L(v) - L(x))] = f_{n-1,u}(x) <= f_{n,u}(x),

since T is nondecreasing in m. Outside I(u), u's weight is 0. So the sum
of minima is the mass of u at n - 1, and 0 at n = 0. The report
therefore needs only the class counts of each interval and of the common
part of the two intervals of each edge within a level; a squaring has no
such edge. Every interval is one row of the based complex's interval
store (``BasedComplex._intervals``), a packed bitset built level by level
as a down-closure, with the columns ordered so that each class is a
contiguous range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import _STORE_ROWS, BasedComplex, SquareComplex
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


def _class_sums(bits: np.ndarray, starts: np.ndarray, shift: np.ndarray,
                lev: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row k, column n: the weight of I(a_k) & I(b_k) seen from the farther center.

    That is the sum over classes c of |I(a_k) & I(b_k) & c| times
    shift[d, c, n], d = max(lev[a_k], lev[b_k]). Columns of ``bits`` hold
    the classes as contiguous ranges from ``starts``; the bits are counted
    ``_STORE_ROWS`` rows at a time, then one matmul per center level.
    """
    counts = np.empty((len(a), len(starts)), dtype=np.min_scalar_type(len(bits)))
    for lo in range(0, len(a), _STORE_ROWS):
        common = bits[a[lo:lo + _STORE_ROWS]] & bits[b[lo:lo + _STORE_ROWS]]
        counts[lo:lo + _STORE_ROWS] = np.add.reduceat(
            np.unpackbits(common, axis=1, count=len(bits)), starts, axis=1, dtype=counts.dtype)
    far = np.maximum(lev[a], lev[b])
    out = np.empty((len(a), shift.shape[2]), dtype=np.int64)
    for d in range(len(shift)):
        at = far == d
        out[at] = counts[at] @ shift[d]
    return out


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
    order = g._order
    lev = b._lev
    count = np.diff(b._down_ptr)  # the downward degree of each vertex
    rb.each_violation("non-flat", np.flatnonzero(count > 2).tolist(), lambda i: (
        (order[i],), f"downward-degree={count[i]}"))
    # stop before any weight: deficiency -1 would read row 2 of the table
    if rb.violations:
        return PropertyAReport(rows=(), check=rb.build())
    ends = g._ends
    rb.set_stat("vertices", len(order))
    rb.set_stat("edges", len(ends))
    rb.set_stat("n_max", n_max)
    ns = np.arange(n_max + 1)
    every = np.arange(len(order))
    # columns hold the classes 3 * level + deficiency in order, each a contiguous range
    cls = 3 * lev + 2 - count
    by_class = np.argsort(cls, kind="stable")
    col = np.empty_like(by_class)
    col[by_class] = every
    keys, starts = np.unique(cls[by_class], return_index=True)
    # shift[d, c, n] = T[delta_c, n - (d - level_c)], the weight a center on level d gives class c
    m = ns - (np.arange(lev.max() + 1)[:, None, None] - keys[:, None] // 3)
    shift = np.where(m >= 0, _weight_table(n_max)[keys[:, None] % 3, np.clip(m, 0, n_max)], 0)
    bits = b._intervals(col, len(order))

    # sums[i, n]: the mass of f_{n, order[i]}
    sums = _class_sums(bits, starts, shift, lev, every, every)
    max_norm = sums.max(axis=0)
    want_norm = (ns + 2) * (ns + 1) // 2
    for i, n in zip(*np.nonzero(sums != want_norm)):
        rb.violation("weight-norm", (order[i],), f"n={n} sum={sums[i, n]} expected={want_norm[n]}")

    # l1 = both masses minus twice the minima on the common support (see
    # above): across levels the lower end's mass at n - 1, within one counted
    eu, ev = ends.T
    minima = np.pad(sums[np.where(lev[eu] < lev[ev], eu, ev), :-1], ((0, 0), (1, 0)))
    level = np.flatnonzero(lev[eu] == lev[ev])
    minima[level] = _class_sums(bits, starts, shift, lev, eu[level], ev[level])
    diffs = sums[eu] + sums[ev] - 2 * minima
    max_diff = diffs.max(axis=0, initial=0)
    want_diff = 2 * (ns + 1)
    for k, n in zip(*np.nonzero(diffs != want_diff)):
        rb.violation("weight-difference", (order[eu[k]], order[ev[k]]),
                     f"n={n} diff={diffs[k, n]} expected={want_diff[n]}")

    rows: list[PropertyARow] = []
    for n in range(n_max + 1):
        # the basepoint's mass is positive, so no norm is 0
        ratio = Fraction(int(max_diff[n]), int(max_norm[n]))
        if len(ends):
            want = Fraction(4, n + 2)
            if ratio != want:
                rb.violation("ratio", (n,), f"ratio={ratio} expected={want}")
            if rows and not ratio < rows[-1].ratio:
                rb.violation("ratio-monotone", (n,), f"ratio={ratio} previous={rows[-1].ratio}")
        rows.append(PropertyARow(n, int(max_norm[n]), int(max_diff[n]), ratio, len(ends)))
    return PropertyAReport(rows=tuple(rows), check=rb.build())
