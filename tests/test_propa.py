"""Weight functions, the deficiencies behind them, and the exact mass identities.

Per-vertex weights come from ``conftest.weights``, a view of the profiles
that ``property_a_report`` computes.
"""

from fractions import Fraction

import pytest

from sysquad import (
    BasedComplex,
    Graph,
    SquareComplex,
    based_interval,
    bfs_levels,
    property_a_report,
)

from bruteforce import brute_weight_diff, brute_weight_map, brute_weight_norm
from conftest import k23_complex_based, l1, weights


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
        iv = based_interval(b, v)
        dist_v = bfs_levels(b.graph, v)
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
