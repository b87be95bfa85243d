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
from .quadric import _restricted_bfs, descending_reachable
from .reports import DEFAULT_CERT_CAP, CheckReport, ReportBuilder


class NonFlatIntervalError(ValueError):
    """More than two downward neighbours at a vertex: the interval is not flat.

    The weight formula table only covers deficiencies 0, 1 and 2, so this
    is raised instead of clamping; the offending vertex is the certificate.
    """

    def __init__(self, vertex: int, downward_degree: int,
                 endpoints: tuple[int, int] | None = None):
        self.vertex = vertex
        self.downward_degree = downward_degree
        self.endpoints = endpoints
        where = f" in interval {endpoints[0]}->{endpoints[1]}" if endpoints else ""
        super().__init__(
            f"vertex {vertex} has downward degree {downward_degree}{where}; "
            f"flat intervals allow at most 2"
        )


@dataclass(frozen=True)
class WeightFunction:
    """Sparse nonnegative weights around a center, zero outside the stored map.

    Support is contained in the interval from the basepoint to the center and
    in the radius-n ball around the center.
    """

    n: int
    center: int
    values: dict[int, int]

    def value(self, w: int) -> int:
        return self.values.get(w, 0)

    def support(self) -> frozenset[int]:
        return frozenset(self.values)

    def norm(self) -> int:
        return sum(self.values.values())

    def l1_distance(self, other: "WeightFunction") -> int:
        keys = self.values.keys() | other.values.keys()
        return sum(abs(self.value(k) - other.value(k)) for k in keys)


def weight_at(b: BasedComplex, v: int, n: int) -> WeightFunction:
    """The weight function f_{n,v}: row n of the profile of center v, zeros dropped."""
    if not isinstance(b.complex, SquareComplex):
        raise ValueError("weight_at expects a square complex")
    if n < 0:
        raise ValueError("n must be nonnegative")
    verts = descending_reachable(b.graph, b.levels, v)
    delta_of = _deficiencies(b, verts, (b.basepoint, v))
    ids, w_rows = _profile(b, v, verts, delta_of, _weight_table(n))
    values = {int(w): int(x) for w, x in zip(ids, w_rows[n]) if x}
    return WeightFunction(n, v, values)


def norm_check(wf: WeightFunction, cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """Total mass must be (n+2)(n+1)/2 exactly."""
    rb = ReportBuilder("weight-norm", cap)
    expected = (wf.n + 2) * (wf.n + 1) // 2
    actual = wf.norm()
    rb.set_stat("n", wf.n)
    rb.set_stat("expected", expected)
    rb.set_stat("actual", actual)
    if actual != expected:
        rb.violation(
            "weight-norm", (wf.center,),
            f"n={wf.n} sum={actual} expected={expected}",
        )
    return rb.build()


def difference_check(b: BasedComplex, edge: tuple[int, int], n: int,
                     cap: int = DEFAULT_CERT_CAP) -> CheckReport:
    """l1 difference across one edge must be 2(n+1) exactly.

    Both weights are computed on their own intervals and compared after
    zero extension.
    """
    v, w = edge
    if not b.graph.has_edge(v, w):
        raise ValueError(f"({v}, {w}) is not an edge")
    rb = ReportBuilder("weight-difference", cap)
    expected = 2 * (n + 1)
    actual = weight_at(b, v, n).l1_distance(weight_at(b, w, n))
    rb.set_stat("n", n)
    rb.set_stat("expected", expected)
    rb.set_stat("actual", actual)
    if actual != expected:
        rb.violation(
            "weight-difference", (min(v, w), max(v, w)),
            f"n={n} diff={actual} expected={expected}",
        )
    return rb.build()


@dataclass(frozen=True)
class PropertyARow:
    """Exact per-n summary: common norm, worst edge difference, their ratio."""

    n: int
    norm: int
    max_diff: int
    ratio: Fraction
    vertices_checked: int
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


def _deficiencies(b: BasedComplex, verts,
                  endpoints: tuple[int, int] | None = None) -> dict[int, int]:
    """Deficiency 2 - rho of each vertex in ``verts``, rho its downward degree.

    Every neighbour one level closer to the base lies on a geodesic to the
    basepoint, so it belongs to any basepoint interval through the vertex:
    the count is the same on the whole complex and inside an interval.
    Downward degree above 2 raises NonFlatIntervalError, naming
    ``endpoints`` when given.
    """
    g = b.graph
    levels = b.levels
    delta_of: dict[int, int] = {}
    for w in sorted(verts):
        lw = levels[w]
        r = sum(1 for x in g.neighbors(w) if levels[x] == lw - 1)
        if r > 2:
            raise NonFlatIntervalError(w, r, endpoints)
        delta_of[w] = 2 - r
    return delta_of


def _weight_table(n_max: int) -> np.ndarray:
    """T[delta, m] for m = 0..n_max: the weight of a vertex of deficiency delta.

    With d its distance to the center and m = n - d >= 0, the weight is

        1 (delta = 0),   m + 1 (delta = 1),   (m + 2)(m + 1)/2 (delta = 2),

    and 0 when m < 0.
    """
    m = np.arange(n_max + 1, dtype=np.int64)
    return np.stack([np.ones_like(m), m + 1, (m + 2) * (m + 1) // 2])


def _profile(b: BasedComplex, v: int, verts: frozenset[int],
             delta_of: dict[int, int], table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of center v on its interval ``verts`` for every n the table covers.

    Returns (ids, W): ids the sorted interval vertices as an int64 array,
    W[n, j] = f_{n,v}(ids[j]) by the table, with d measured inside the
    interval. Interval distances dominate ambient ones, so the support sits
    inside the ambient radius-n ball around v; they agree exactly when the
    interval embeds isometrically, which the quadric checks verify.
    """
    dist_v = _restricted_bfs(b.graph, verts, v)
    ids = np.array(sorted(verts), dtype=np.int64)
    d = np.array([dist_v[w] for w in ids], dtype=np.int64)
    dl = np.array([delta_of[w] for w in ids], dtype=np.int64)
    mm = np.arange(table.shape[1])[:, None] - d[None, :]
    return ids, np.where(mm >= 0, table[dl[None, :], np.maximum(mm, 0)], 0)


def property_a_report(b: BasedComplex, n_max: int,
                      cap: int = DEFAULT_CERT_CAP) -> PropertyAReport:
    """Verify both closed forms on every vertex and edge for n = 0..n_max.

    For each n the report row carries the (common) norm, the maximum edge
    difference, and their exact ratio, which must equal 4/(n+2) and decrease
    strictly in n. Any vertex or edge breaking an identity is a certificate.
    """
    if not isinstance(b.complex, SquareComplex):
        raise ValueError("property_a_report expects a square complex")
    g = b.graph
    levels = b.levels
    if len(levels) != len(g.vertices):
        raise ValueError("basepoint does not reach every vertex")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rb = ReportBuilder("property-a", cap)
    verts = sorted(g.vertices)
    delta_of = _deficiencies(b, verts)
    table = _weight_table(n_max)
    profiles = {
        v: _profile(b, v, descending_reachable(g, levels, v), delta_of, table)
        for v in verts
    }
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
            vertices_checked=len(verts),
            edges_checked=len(edges),
        ))
    return PropertyAReport(rows=tuple(rows), check=rb.build())
