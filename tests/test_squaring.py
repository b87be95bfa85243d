"""The basepointed squaring transform and its metric guarantees."""

import pytest

from sysquad import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    SquaringResult,
    bfs_levels,
    check_quasi_isometry,
    check_replacement_rule_A,
    check_replacement_rule_B,
    distance,
    enumerate_embedded_4cycles,
    format_complex,
    h1_rank_mod2,
    squaring,
)


def single_triangle_based():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    return BasedComplex(SimplicialComplex2(g, [(0, 1, 2)]), 0)


def test_single_triangle_squares_to_a_path():
    res = squaring(single_triangle_based())
    sq = res.squared.complex
    assert set(sq.graph.edges) == {(0, 1), (0, 2)}
    assert not sq.squares
    assert res.squared.basepoint == 0


def test_single_triangle_distance_doubles():
    res = squaring(single_triangle_based())
    assert distance(res.source.complex, 1, 2) == 1
    assert distance(res.squared.complex, 1, 2) == 2
    rep = check_quasi_isometry(res)
    assert rep.passed
    assert rep.stats["max_ratio"] == "2/1"


def test_kept_edges_are_exactly_level_crossing(small_disk, small_squaring):
    b = BasedComplex(small_disk.complex, small_disk.center)
    levels = b.levels
    src_edges = set(small_disk.complex.graph.edges)
    kept = {e for e in src_edges if levels[e[0]] != levels[e[1]]}
    assert set(small_squaring.squared.graph.edges) == kept


def test_squares_are_all_embedded_4cycles(small_squaring):
    sq = small_squaring.squared.complex
    assert sorted(sq.squares) == enumerate_embedded_4cycles(sq.graph)


def test_squared_graph_is_level_bipartite(small_squaring):
    levels = small_squaring.squared.levels
    for u, w in small_squaring.squared.graph.edges:
        assert abs(levels[u] - levels[w]) == 1


def test_levels_preserved_by_squaring(small_squaring):
    b = small_squaring
    src_levels = b.source.levels
    sq_levels = bfs_levels(b.squared.graph, b.squared.basepoint)
    assert sq_levels == src_levels


def test_squaring_keeps_h1_trivial(small_squaring):
    assert h1_rank_mod2(small_squaring.squared.complex) == 0


def test_quasi_isometry_bounds_hold(small_squaring):
    rep = check_quasi_isometry(small_squaring)
    assert rep.passed
    n = len(small_squaring.source.graph.vertices)
    assert rep.stats["pairs"] == n * n
    assert rep.stats["max_ratio"] == "2/1"


def test_squaring_is_deterministic(small_disk):
    b = BasedComplex(small_disk.complex, small_disk.center)
    a = squaring(b).squared.complex
    c = squaring(b).squared.complex
    assert a == c
    assert format_complex(a) == format_complex(c)


def test_precheck_rejects_non_systolic_source():
    rim = [1, 2, 3, 4]
    edges = [(0, v) for v in rim] + [(1, 2), (2, 3), (3, 4), (1, 4)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]
    b = BasedComplex(SimplicialComplex2(Graph(range(5), edges), tris), 0)
    with pytest.raises(ValueError, match="systolic"):
        squaring(b)
    res = squaring(b, precheck=False)  # forced through
    assert res.squared.graph.vertices == b.graph.vertices


def test_squaring_requires_reachable_vertices():
    c = SimplicialComplex2(Graph(range(3), [(0, 1)]), [])
    with pytest.raises(ValueError, match="reach"):
        squaring(BasedComplex(c, 0), precheck=False)


def test_quadric_rules_hold_on_squaring(small_squaring):
    sq = small_squaring.squared.complex
    for rep in (check_replacement_rule_A(sq), check_replacement_rule_B(sq)):
        assert rep.passed, rep.to_text()


def test_quasi_isometry_flags_disconnection():
    src = BasedComplex(SimplicialComplex2(Graph(range(3), [(0, 1), (1, 2)]), []), 0)
    bad = BasedComplex(SquareComplex(Graph(range(3), [(0, 1)]), []), 0)
    rep = check_quasi_isometry(SquaringResult(source=src, squared=bad))
    assert not rep.passed
    assert any(c.kind == "disconnected" for c in rep.counterexamples)


def test_quasi_isometry_flags_shortcuts():
    # fabricated squared graph with an extra chord: distance drops below source
    src_g = Graph(range(3), [(0, 1), (1, 2)])
    src = BasedComplex(SimplicialComplex2(src_g, []), 0)
    fake = BasedComplex(SquareComplex(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), []), 0)
    rep = check_quasi_isometry(SquaringResult(source=src, squared=fake))
    assert not rep.passed
    low = [c for c in rep.counterexamples if c.kind == "stretch-low"]
    assert low and set(low[0].vertices) == {0, 2}


def test_quasi_isometry_flags_overstretch():
    # fabricated squared graph missing a cycle edge: one distance triples
    cyc = [(i, (i + 1) % 4) for i in range(4)]
    src = BasedComplex(SimplicialComplex2(Graph(range(4), cyc), []), 0)
    fake = BasedComplex(
        SquareComplex(Graph(range(4), [(0, 1), (1, 2), (2, 3)]), []), 0
    )
    rep = check_quasi_isometry(SquaringResult(source=src, squared=fake))
    assert not rep.passed
    high = [c for c in rep.counterexamples if c.kind == "stretch-high"]
    assert high and set(high[0].vertices) == {0, 3}
    assert "d_source=1 d_squared=3" in high[0].info


def test_vertex_set_must_match():
    src = BasedComplex(SimplicialComplex2(Graph(range(2), [(0, 1)]), []), 0)
    other = BasedComplex(SquareComplex(Graph(range(3), [(0, 1), (1, 2)]), []), 0)
    with pytest.raises(ValueError, match="vertex set"):
        check_quasi_isometry(SquaringResult(source=src, squared=other))


def test_lemma_disk_squarings_pass_everything(lemma_disks):
    for d in lemma_disks[:2]:
        res = squaring(BasedComplex(d.complex, d.center))
        assert check_quasi_isometry(res).passed
        assert check_replacement_rule_A(res.squared.complex).passed
        assert check_replacement_rule_B(res.squared.complex).passed
