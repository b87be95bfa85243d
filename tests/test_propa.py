"""Weight functions, the deficiencies behind them, and the exact mass identities."""

from fractions import Fraction

import pytest

from sysquad import (
    BasedComplex,
    Graph,
    NonFlatIntervalError,
    SquareComplex,
    WeightFunction,
    ball,
    based_interval,
    difference_check,
    norm_check,
    property_a_report,
    weight_at,
)

from bruteforce import brute_weight_diff, brute_weight_map, brute_weight_norm
from conftest import k23_complex_based


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
    wf = weight_at(square_based(), 2, 4)
    assert wf.values == {2: 1, 1: 4, 3: 4, 0: 6}  # delta 0, 1, 1, 2


def test_deficiency_of_basepoint_interval():
    # the base has no downward neighbour: delta 2 at distance 0
    b = square_based()
    for n in range(4):
        assert weight_at(b, 0, n).values == {0: (n + 2) * (n + 1) // 2}


def test_deficiency_rejects_three_downward_neighbours():
    b = k23_complex_based()
    with pytest.raises(NonFlatIntervalError) as ei:
        weight_at(b, 1, 0)
    err = ei.value
    assert err.vertex == 1
    assert err.downward_degree == 3
    assert err.endpoints == (0, 1)


# --------------------------------------------------------------------- weights


def test_weight_values_on_diamond():
    b = square_based()
    wf = weight_at(b, 2, 3)
    assert wf.value(2) == 1  # the center, no deficit
    assert wf.value(1) == 3 and wf.value(3) == 3  # distance 1, deficit 1
    assert wf.value(0) == 3  # distance 2, deficit 2: triangular count
    assert wf.norm() == 10


def test_weight_truncates_outside_radius():
    b = square_based()
    wf = weight_at(b, 2, 1)
    assert wf.value(0) == 0
    assert 0 not in wf.support()
    assert wf.norm() == 3


def test_weight_at_basepoint_is_one_atom():
    b = square_based()
    wf = weight_at(b, 0, 4)
    assert wf.values == {0: 15}
    assert wf.norm() == 15


def test_weight_on_length_two_path():
    wf = weight_at(path_based(), 2, 5)
    assert wf.value(2) == 6
    assert wf.value(1) == 5
    assert wf.value(0) == 10
    assert wf.norm() == 21


def test_weight_support_inside_ball_and_interval(small_squaring):
    b = small_squaring.squared
    sq = b.complex
    for v in sorted(b.graph.vertices):
        iv = based_interval(b, v)
        for n in (0, 1, 3):
            wf = weight_at(b, v, n)
            assert wf.support() <= iv.vertices
            assert wf.support() <= ball(sq, v, n).vertices


def test_weight_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    g = b.graph
    for v in sorted(g.vertices):
        for n in (0, 2, 5):
            got = weight_at(b, v, n)
            want = brute_weight_map(g, b.basepoint, v, n)
            assert got.values == want, f"v={v} n={n}"


# ------------------------------------------------------------------ identities


def test_norm_check_passes_everywhere(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices):
        rep = norm_check(weight_at(b, v, 3))
        assert rep.passed
        assert rep.stats["expected"] == rep.stats["actual"] == 10


def test_norm_check_flags_wrong_mass():
    rep = norm_check(WeightFunction(3, 0, {0: 9}))
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "weight-norm"
    assert cert.vertices == (0,)
    assert cert.info == "n=3 sum=9 expected=10"


def test_difference_identity_examples():
    b = square_based()
    for n, expected in ((0, 2), (3, 8), (4, 10)):
        rep = difference_check(b, (0, 1), n)
        assert rep.passed, rep.to_text()
        assert rep.stats["actual"] == expected


def test_difference_check_needs_an_edge():
    with pytest.raises(ValueError, match="not an edge"):
        difference_check(square_based(), (0, 2), 3)


def test_difference_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    g = b.graph
    edges = sorted(g.edges)[::7]  # sampled, the bulk report covers the rest
    for v, w in edges:
        for n in (0, 4):
            wa = weight_at(b, v, n)
            wb = weight_at(b, w, n)
            assert wa.l1_distance(wb) == brute_weight_diff(g, b.basepoint, v, w, n)
            assert wa.l1_distance(wb) == 2 * (n + 1)


def test_l1_distance_symmetry():
    a = WeightFunction(1, 0, {0: 2, 1: 1})
    c = WeightFunction(1, 1, {1: 4})
    assert a.l1_distance(c) == c.l1_distance(a) == 5
    assert a.l1_distance(a) == 0


def test_norm_matches_bruteforce(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices)[::3]:
        assert weight_at(b, v, 6).norm() == brute_weight_norm(b.graph, b.basepoint, v, 6)


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


def test_property_a_rejects_non_flat_input():
    with pytest.raises(NonFlatIntervalError):
        property_a_report(k23_complex_based(), 3)


def test_property_a_rejects_negative_horizon(small_squaring):
    with pytest.raises(ValueError):
        property_a_report(small_squaring.squared, -1)


def test_bulk_report_agrees_with_single_vertex_api(small_squaring):
    # the vectorized table path and the per-vertex path must tell one story
    b = small_squaring.squared
    rep = property_a_report(b, 5)
    for v in sorted(b.graph.vertices)[::5]:
        for row in rep.rows:
            assert weight_at(b, v, row.n).norm() == row.norm
