"""The basepointed squaring transform and its metric guarantees."""

import importlib
import random

import pytest

from sysquad import complexes
from sysquad import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    SquaringResult,
    check_quasi_isometry,
    check_replacement_rule_A,
    check_replacement_rule_B,
    distance,
    enumerate_embedded_4cycles,
    format_complex,
    squaring,
)

from bruteforce import (
    adjacency,
    bfs_dist,
    brute_is_connected,
    brute_quasi_isometry_ok,
    brute_quasi_isometry_report,
    random_graph,
)
from conftest import h1_rank


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
    sq_levels = bfs_dist(adjacency(b.squared.graph), b.squared.basepoint)
    assert sq_levels == src_levels


def test_squaring_keeps_h1_trivial(small_squaring):
    assert h1_rank(small_squaring.squared.complex) == 0


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


def test_quasi_isometry_flags_bridge_between_source_components():
    # the squared graph joins two source components: a pair at d_source=inf
    src_g = Graph(range(4), [(0, 1), (2, 3)])
    src = BasedComplex(SimplicialComplex2(src_g, []), 0)
    fake = BasedComplex(SquareComplex(Graph(range(4), [(0, 1), (1, 2), (2, 3)]), []), 0)
    rep = check_quasi_isometry(SquaringResult(source=src, squared=fake))
    assert not rep.passed
    assert rep.counterexamples[0].kind == "stretch-low"
    assert rep.counterexamples[0].vertices == (1, 2)
    assert rep.counterexamples[0].info == "d_source=inf d_squared=1"


def test_quasi_isometry_ratio_without_dropped_edges():
    path = Graph(range(3), [(0, 1), (1, 2)])
    src = BasedComplex(SimplicialComplex2(path, []), 0)
    same = BasedComplex(SquareComplex(path, []), 0)
    rep = check_quasi_isometry(SquaringResult(source=src, squared=same))
    assert rep.passed
    assert rep.stats == {"pairs": 9, "max_ratio": "1/1"}
    point = Graph([0], [])
    rep = check_quasi_isometry(SquaringResult(
        source=BasedComplex(SimplicialComplex2(point, []), 0),
        squared=BasedComplex(SquareComplex(point, []), 0)))
    assert rep.passed
    assert rep.stats == {"pairs": 1, "max_ratio": "0/1"}


def test_quasi_isometry_agrees_with_bruteforce():
    # random source graphs; squared graph = a random subset of the source
    # edges, sometimes plus one edge the source lacks
    verdicts = set()
    disconnected = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.8]), seed)
        keep = rng.choice([0.6, 0.9, 1.0])
        edges = [e for e in sorted(g.edges) if rng.random() < keep]
        missing = [(u, w) for u in range(n) for w in range(u + 1, n)
                   if not g.has_edge(u, w)]
        if missing and rng.random() < 0.3:
            edges.append(rng.choice(missing))
        sub = Graph(range(n), edges)
        disconnected += not brute_is_connected(g)
        rep = check_quasi_isometry(SquaringResult(
            source=BasedComplex(SimplicialComplex2(g, []), 0),
            squared=BasedComplex(SquareComplex(sub, []), 0)))
        assert rep.passed == brute_quasi_isometry_ok(g, sub), f"seed={seed}"
        assert rep.stats["pairs"] == n * n
        # the report, whichever vertex the squared side is based at
        res = SquaringResult(
            source=BasedComplex(SimplicialComplex2(g, []), 0),
            squared=BasedComplex(SquareComplex(sub, []), rng.randrange(n)))
        assert_quasi_isometry_matches(res)
        verdicts.add(rep.passed)
    assert verdicts == {True, False}
    assert disconnected > 0


def assert_quasi_isometry_matches(res):
    """The report is byte for byte the one of a scan of every edge."""
    for cap in (0, 2, 25):
        want = brute_quasi_isometry_report(res, cap).to_text()
        assert check_quasi_isometry(res, cap).to_text() == want, cap


def squared_mutant(res, add=(), remove=()):
    """``res`` with its squared graph's edges changed, based where it was."""
    gx = res.squared.graph
    edges = (set(gx.edges) | set(add)) - set(remove)
    g = Graph(gx.vertices, edges)
    return SquaringResult(source=res.source, squared=BasedComplex(SquareComplex(g, []), res.squared.basepoint))


def test_quasi_isometry_mutants_match_the_full_scan(lemma_disks):
    d = lemma_disks[0]
    res = squaring(BasedComplex(d.complex, d.center))
    gy, gx = res.source.graph, res.squared.graph
    assert_quasi_isometry_matches(res)
    # an extra squared edge between two vertices at source distance 2
    levels = res.source.levels
    far = next((u, w) for u in sorted(gy.vertices) for w in sorted(gy.vertices)
               if u < w and distance(gy, u, w) == 2)
    low = squared_mutant(res, add=[far])
    assert check_quasi_isometry(low).counterexamples[0].kind == "stretch-low"
    assert_quasi_isometry_matches(low)
    # a dropped edge whose ends keep no common squared neighbour
    u, w = min(e for e in gy.edges if levels[e[0]] == levels[e[1]])
    cut = [tuple(sorted((u, x))) for x in set(gx.neighbors(u)) & set(gx.neighbors(w))]
    high = squared_mutant(res, remove=cut)
    assert any(c.kind == "stretch-high" and c.vertices == (u, w)
               for c in check_quasi_isometry(high, 10**6).counterexamples)
    assert_quasi_isometry_matches(high)
    # a disconnected squaring: the basepoint, then another vertex, cut off
    for v in (res.squared.basepoint, max(gx.vertices)):
        cut = [tuple(sorted((v, x))) for x in gx.neighbors(v)]
        apart = squared_mutant(res, remove=cut)
        assert any(c.kind == "disconnected" for c in check_quasi_isometry(apart, 10**6).counterexamples)
        assert_quasi_isometry_matches(apart)


def test_quasi_isometry_certificates_read_level_rows(monkeypatch):
    # the path 0 .. 5 squared, with 2 5 added, against the path with 0 5 and
    # 1 4 added: one stretch-low and two stretch-high certificates, each
    # distance from one level search and none from distance()
    source = Graph(range(6), [(i, i + 1) for i in range(5)] + [(0, 5), (1, 4)])
    squared = Graph(range(6), [(i, i + 1) for i in range(5)] + [(2, 5)])
    res = SquaringResult(source=BasedComplex(SimplicialComplex2(source, []), 0),
                         squared=BasedComplex(SquareComplex(squared, []), 0))
    calls, searches = [], []

    def no_distance(*args):
        calls.append(args)
        return distance(*args)

    def counted(g, s):
        searches.append(s)
        return levels(g, s)

    levels = complexes._levels
    monkeypatch.setattr(complexes, "distance", no_distance)
    # the module, which the package's squaring() shadows as an attribute
    monkeypatch.setattr(importlib.import_module("sysquad.squaring"), "distance",
                        no_distance, raising=False)
    monkeypatch.setattr(complexes, "_levels", counted)
    for cap in (0, 1, 2, 3, 25):
        searches.clear()
        rep = check_quasi_isometry(res, cap)
        assert rep.to_text() == brute_quasi_isometry_report(res, cap).to_text()
        assert len(searches) == min(cap, 3)
    assert [str(c) for c in rep.counterexamples] == [
        "stretch-high 0 5 :: d_source=1 d_squared=3",
        "stretch-high 1 4 :: d_source=1 d_squared=3",
        "stretch-low 2 5 :: d_source=3 d_squared=1",
    ]
    assert calls == []


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
