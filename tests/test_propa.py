"""Weight functions, the deficiencies behind them, and the exact mass identities.

Per-vertex weights come from ``conftest.weights``, a view of the
``brute_profile`` oracle; ``brute_property_a_report`` builds the whole
report from those profiles and is compared with ``property_a_report``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sysquad import (
    BasedComplex,
    Graph,
    SquareComplex,
    enumerate_embedded_4cycles,
    property_a_report,
)
from sysquad.propa import PropertyARow, _weight_table
from sysquad.reports import Certificate

from bruteforce import (
    adjacency,
    bfs_dist,
    brute_property_a_report,
    brute_weight_diff,
    brute_weight_map,
    brute_weight_norm,
    random_connected_graph,
    random_graph,
    random_k23_complex,
)
from conftest import interval, k23_complex_based, l1, weights


def square_based():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    return BasedComplex(SquareComplex(g, [(0, 1, 2, 3)]), 0)


def path_based():
    g = Graph(range(3), [(0, 1), (1, 2)])
    return BasedComplex(SquareComplex(g, []), 0)


# ------------------------------------------------------------------ deficiency


def test_deficiency_cases_on_a_filled_square():
    # at n = 4 the three deficiency cases give distinct values at each distance:
    # distance 0 -> 1 / 5 / 15, distance 1 -> 1 / 4 / 10, distance 2 -> 1 / 3 / 6
    assert weights(square_based(), 2, 4) == {2: 1, 1: 4, 3: 4, 0: 6}  # delta 0, 1, 1, 2


def test_deficiency_of_basepoint_interval():
    # the base has no downward neighbour: delta 2 at distance 0
    b = square_based()
    for n in range(4):
        assert weights(b, 0, n) == {0: (n + 2) * (n + 1) // 2}


def test_deficiency_rejects_three_downward_neighbours():
    # base 0 below 2, 3, 4, 5; vertex 1 sits over three of them, vertex 6
    # over all four: one certificate each, in vertex order
    edges = [(0, m) for m in (2, 3, 4, 5)]
    edges += [(1, m) for m in (2, 3, 4)] + [(6, m) for m in (2, 3, 4, 5)]
    g = Graph(range(7), edges)
    rep = property_a_report(BasedComplex(SquareComplex(g, []), 0), 2)
    assert not rep.passed
    assert rep.rows == ()
    assert rep.check.violations == 2
    assert [str(c) for c in rep.check.counterexamples] == [
        "non-flat 1 :: downward-degree=3",
        "non-flat 6 :: downward-degree=4",
    ]


# --------------------------------------------------------------------- weights


def test_weight_table_rows_nondecreasing_in_m():
    # the report takes the minimum of two weights of one vertex from the
    # farther center; that needs T[delta, m] nondecreasing in m
    for n_max in (0, 1, 5, 12, 40):
        table = _weight_table(n_max)
        assert table.shape == (3, n_max + 1)
        assert (table >= 1).all()
        assert (np.diff(table, axis=1) >= 0).all()


def test_weight_values_on_diamond():
    b = square_based()
    wf = weights(b, 2, 3)
    assert wf[2] == 1  # the center, no deficit
    assert wf[1] == 3 and wf[3] == 3  # distance 1, deficit 1
    assert wf[0] == 3  # distance 2, deficit 2: triangular count
    assert sum(wf.values()) == 10


def test_weight_truncates_outside_radius():
    b = square_based()
    wf = weights(b, 2, 1)
    assert 0 not in wf
    assert sum(wf.values()) == 3


def test_weight_at_basepoint_is_one_atom():
    b = square_based()
    assert weights(b, 0, 4) == {0: 15}


def test_weight_on_length_two_path():
    wf = weights(path_based(), 2, 5)
    assert wf == {2: 6, 1: 5, 0: 10}
    assert sum(wf.values()) == 21


def test_weight_support_inside_ball_and_interval(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices):
        iv = interval(b, v)
        dist_v = bfs_dist(adjacency(b.graph), v)
        for n in (0, 1, 3):
            support = weights(b, v, n).keys()
            assert support <= iv
            assert support <= {w for w, d in dist_v.items() if d <= n}


def test_weight_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    g = b.graph
    for v in sorted(g.vertices):
        for n in (0, 2, 5):
            got = weights(b, v, n)
            want = brute_weight_map(g, b.basepoint, v, n)
            assert got == want, f"v={v} n={n}"


# ------------------------------------------------------------------ identities


def test_norm_check_passes_everywhere(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices):
        assert sum(weights(b, v, 3).values()) == 10


def test_difference_identity_examples():
    b = square_based()
    for n, expected in ((0, 2), (3, 8), (4, 10)):
        assert l1(weights(b, 0, n), weights(b, 1, n)) == expected


def test_difference_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    g = b.graph
    edges = sorted(g.edges)[::7]  # sampled, the bulk report covers the rest
    for v, w in edges:
        for n in (0, 4):
            diff = l1(weights(b, v, n), weights(b, w, n))
            assert diff == brute_weight_diff(g, b.basepoint, v, w, n)
            assert diff == 2 * (n + 1)


def test_norm_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices)[::3]:
        got = sum(weights(b, v, 6).values())
        assert got == brute_weight_norm(b.graph, b.basepoint, v, 6)


# ----------------------------------------------------------------- bulk report


def test_property_a_report_identities(small_squaring):
    b = small_squaring.squared
    rep = property_a_report(b, 6)
    assert rep.passed
    assert rep.check.passed
    assert len(rep.rows) == 7
    n_edges = len(b.graph.edges)
    for n, row in enumerate(rep.rows):
        assert row.n == n
        assert row.norm == (n + 2) * (n + 1) // 2
        assert row.max_diff == 2 * (n + 1)
        assert row.ratio == Fraction(4, n + 2)
        assert row.edges_checked == n_edges


def test_property_a_ratio_landmarks(small_squaring):
    rep = property_a_report(small_squaring.squared, 6)
    by_n = {row.n: row.ratio for row in rep.rows}
    assert by_n[0] == 2
    assert by_n[2] == 1
    assert by_n[6] == Fraction(1, 2)
    ratios = [row.ratio for row in rep.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_property_a_csv_shape(small_squaring):
    rep = property_a_report(small_squaring.squared, 4)
    lines = rep.csv_lines()
    assert lines[0] == "n,norm,max_diff,ratio_num,ratio_den,edges_checked"
    assert len(lines) == 6
    n_edges = len(small_squaring.squared.graph.edges)
    assert lines[3] == f"2,6,6,1,1,{n_edges}"


def test_property_a_counts_cover_instance(small_squaring):
    b = small_squaring.squared
    rep = property_a_report(b, 2)
    assert rep.check.stats["vertices"] == len(b.graph.vertices)
    assert rep.check.stats["edges"] == len(b.graph.edges)
    assert rep.check.stats["n_max"] == 2


def test_property_a_report_certifies_broken_identities():
    # the bare hexagon is not quadric: its far vertex has deficiency 0, so
    # the norm, difference and ratio identities all fail
    g = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    rep = property_a_report(BasedComplex(SquareComplex(g, []), 0), 4)
    text = rep.check.to_text()
    assert "passed false" in text
    assert "violations 11" in text
    first = rep.check.counterexamples[0]
    assert (first.kind, first.vertices, first.info) == ("ratio", (3,), "ratio=5/6 expected=4/5")
    assert "cert weight-norm 3 :: n=2 sum=7 expected=6" in text
    assert "cert weight-difference 2 3 :: n=2 diff=7 expected=6" in text


def test_property_a_report_certifies_unreached_vertex():
    # filled square plus an isolated vertex: one certificate, no rows
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = property_a_report(BasedComplex(SquareComplex(g, [(0, 1, 2, 3)]), 0), 3)
    assert not rep.passed
    assert rep.rows == ()
    assert rep.check.violations == 1
    assert [str(c) for c in rep.check.counterexamples] == ["disconnected 0 4 :: no-path"]
    assert rep.csv_lines() == ["n,norm,max_diff,ratio_num,ratio_den,edges_checked"]


def test_property_a_rejects_non_flat_input():
    # bare K_{2,3} from 0: vertex 1 has three downward neighbours, so no
    # weight is computed and the report carries only that certificate
    rep = property_a_report(k23_complex_based(), 3)
    assert not rep.passed
    assert rep.rows == ()
    assert rep.check.violations == 1
    assert [str(c) for c in rep.check.counterexamples] == [
        "non-flat 1 :: downward-degree=3"
    ]
    assert rep.csv_lines() == ["n,norm,max_diff,ratio_num,ratio_den,edges_checked"]


def test_property_a_rejects_negative_horizon(small_squaring):
    with pytest.raises(ValueError):
        property_a_report(small_squaring.squared, -1)


def test_bulk_report_agrees_with_single_vertex_api(small_squaring):
    # the report's common norm per n and each vertex's own weights agree
    b = small_squaring.squared
    rep = property_a_report(b, 5)
    for v in sorted(b.graph.vertices)[::5]:
        for row in rep.rows:
            assert sum(weights(b, v, row.n).values()) == row.norm


def brute_property_a(g, base, n_max):
    """Rows and every violation in scan order, recomputed from the brute weights."""
    adj = adjacency(g)
    levels = bfs_dist(adj, base)
    verts = sorted(g.vertices)
    unreached = [v for v in verts if v not in levels]
    if unreached:
        return [], [Certificate("disconnected", (base, v), "no-path") for v in unreached]
    down = {v: sum(levels[x] == levels[v] - 1 for x in adj[v]) for v in verts}
    if any(r > 2 for r in down.values()):
        return [], [Certificate("non-flat", (v,), f"downward-degree={r}")
                    for v, r in down.items() if r > 2]
    ns = range(n_max + 1)
    edges = sorted(g.edges)
    norms = {(v, n): brute_weight_norm(g, base, v, n) for v in verts for n in ns}
    diffs = {(e, n): brute_weight_diff(g, base, *e, n) for e in edges for n in ns}
    viol = [Certificate("weight-norm", (v,), f"n={n} sum={norms[v, n]} expected={want}")
            for v in verts for n in ns
            if norms[v, n] != (want := (n + 2) * (n + 1) // 2)]
    viol += [Certificate("weight-difference", e, f"n={n} diff={diffs[e, n]} expected={want}")
             for e in edges for n in ns
             if diffs[e, n] != (want := 2 * (n + 1))]
    rows = []
    for n in ns:
        norm = max(norms[v, n] for v in verts)
        md = max((diffs[e, n] for e in edges), default=0)
        ratio = Fraction(md, norm)
        if edges:
            want = Fraction(4, n + 2)
            if ratio != want:
                viol.append(Certificate("ratio", (n,), f"ratio={ratio} expected={want}"))
            if rows and not ratio < rows[-1].ratio:
                viol.append(Certificate("ratio-monotone", (n,),
                                        f"ratio={ratio} previous={rows[-1].ratio}"))
        rows.append(PropertyARow(n, norm, md, ratio, len(edges)))
    return rows, viol


def assert_report_matches_brute(g, base, n_max):
    rows, viol = brute_property_a(g, base, n_max)
    for cap in (1, 25):
        rep = property_a_report(BasedComplex(SquareComplex(g, []), base), n_max, cap)
        assert rep.rows == tuple(rows)
        assert rep.check.violations == len(viol)
        assert rep.check.counterexamples == tuple(sorted(viol[:cap])), cap


@pytest.mark.parametrize("edges, base", [
    # equal-level edge 1-2: the supports {0, 1} and {0, 2} are not nested
    ([(0, 1), (1, 2), (0, 2)], 0),
    # odd cycle: equal-level edge 2-3 at the far side
    ([(i, (i + 1) % 5) for i in range(5)], 0),
    # the bare hexagon fails the norm, difference and ratio identities
    ([(i, (i + 1) % 6) for i in range(6)], 0),
    # hexagon with far vertex 6 and pendant 5: 6 fails the norm from n = 2,
    # 5 only from n = 3, so cap 1 keeps the row-major (vertex, n) first; at
    # n_max = 8, cap 25 cuts inside the failing edges 2-6, 4-6 and 5-6
    ([(0, 1), (1, 2), (2, 6), (6, 4), (4, 3), (3, 0), (6, 5)], 0),
    # 4-cycle 0-1-2-3 with chord 1-3 and vertex 4 over 1 and 3; from base 2
    # the chord joins two vertices of level 1
    ([(0, 1), (0, 3), (1, 2), (2, 3), (1, 4), (3, 4), (1, 3)], 2),
], ids=["triangle", "pentagon", "hexagon", "hexagon-pendant", "square-triangle"])
def test_property_a_report_matches_brute_cases(edges, base):
    g = Graph(range(1 + max(max(e) for e in edges)), edges)
    assert_report_matches_brute(g, base, 8)


# two connected draws per general one, which may leave vertices unreached
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([random_connected_graph, random_connected_graph, random_graph]),
    st.integers(min_value=1, max_value=9),
    st.sampled_from([0.1, 0.2, 0.3, 0.45]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=4),
)
def test_property_a_report_matches_brute(make, n, p, seed, pick, n_max):
    assert_report_matches_brute(make(n, p, seed), pick % n, n_max)


def test_property_a_report_c5_equal_level_edge():
    # the pentagon from 0 has levels 0, 1, 2, 2, 1: edge 2-3 joins two
    # level-2 vertices, whose weights at 2 and 3 come from the same level
    g = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    rep = property_a_report(BasedComplex(SquareComplex(g, []), 0), 3)
    assert rep.csv_lines()[1:] == ["0,1,2,2,1,5", "1,3,6,2,1,5", "2,6,10,5,3,5", "3,10,14,7,5,5"]
    assert rep.check.violations == 7
    assert str(rep.check.counterexamples[0]) == "ratio 1 :: ratio=2 expected=4/3"
    assert "weight-difference 2 3 :: n=1 diff=6 expected=4" in map(str, rep.check.counterexamples)


def assert_report_matches_oracle(c, bases, n_maxes):
    for base in bases:
        b = BasedComplex(c, base)
        for n_max in n_maxes:
            for cap in (0, 1, 25):
                got = property_a_report(b, n_max, cap)
                want = brute_property_a_report(b, n_max, cap)
                # the check holds the violation count, kept certificates and stats
                assert got.rows == want.rows, (base, n_max, cap)
                assert got.check == want.check, (base, n_max, cap)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=5, max_value=12),
    st.sampled_from([0.1, 0.2, 0.3]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=6),
)
def test_property_a_report_matches_profile_oracle_k23(n, p, plants, seed, n_max):
    c = random_k23_complex(n, p, plants, seed)
    assert_report_matches_oracle(c, sorted(c.graph.vertices), (n_max,))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.1, 0.2, 0.3, 0.45]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=6),
)
def test_property_a_report_matches_profile_oracle_connected(n, p, seed, n_max):
    c = SquareComplex(random_connected_graph(n, p, seed), [])
    assert_report_matches_oracle(c, sorted(c.graph.vertices), (n_max,))


def random_grid_graph(k, p, seed):
    """A seeded subgraph of the k x k grid, each edge kept with probability p."""
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k and rng.random() < p]
    edges += [(v, v + k) for v in range(k * k - k) if rng.random() < p]
    return Graph(range(k * k), edges)


def test_property_a_report_matches_profile_oracle_on_grids():
    # a grid is bipartite, so every edge joins two levels and the report
    # takes each sum of minima from a mass at n - 1; the random graphs above
    # have odd cycles, whose edges within a level take the class counts
    edges = 0
    for seed in range(10):
        g = random_grid_graph(4, 0.8, seed)
        rng = random.Random(seed)
        c = SquareComplex(g, [q for q in enumerate_embedded_4cycles(g) if rng.random() < 0.5])
        bases = sorted(g.vertices)[::3]
        assert_report_matches_oracle(c, bases, (0, 5))
        edges += sum(len(g.edges) for base in bases
                     if property_a_report(BasedComplex(c, base), 0).rows)
    assert edges > 500


@pytest.mark.parametrize("name", ["flat6_squared", "hyper7_squared"])
def test_property_a_report_matches_profile_oracle_benchmark_squarings(name, request):
    # more than 64 vertices and edges, so the counts span several blocks
    b = request.getfixturevalue(name)
    verts = sorted(b.graph.vertices)
    assert len(verts) > 64
    assert_report_matches_oracle(b.complex, [b.basepoint, *verts[::150]], (0, 6))
    assert property_a_report(b, 6).passed


@pytest.mark.parametrize("vertices, edges, reached", [
    # one vertex, no edge: the interval bitset has one level and one row
    (1, [], True),
    # a star from its center: the levels stop at 1
    (4, [(0, 1), (0, 2), (0, 3)], True),
    # a triangle: the levels stop at 1 and the edge 1-2 lies on level 1
    (3, [(0, 1), (0, 2), (1, 2)], True),
    # an edge and an isolated vertex: one disconnected certificate, no rows
    (3, [(0, 1)], False),
], ids=["single-vertex", "star", "triangle", "unreached"])
@pytest.mark.parametrize("n_max", [0, 4])
def test_property_a_report_matches_profile_oracle_edge_cases(vertices, edges, reached, n_max):
    c = SquareComplex(Graph(range(vertices), edges), [])
    assert_report_matches_oracle(c, [0], (n_max,))
    rep = property_a_report(BasedComplex(c, 0), n_max)
    assert len(rep.rows) == (n_max + 1 if reached else 0)
    assert all(row.edges_checked == len(edges) for row in rep.rows)
    if not reached:
        assert [str(x) for x in rep.check.counterexamples] == ["disconnected 0 2 :: no-path"]
