"""Verification of the triangle-complex conditions and their level lemmas."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sysquad import complexes, systolic
from sysquad import (
    BasedComplex,
    DiskSpec,
    Graph,
    SimplicialComplex2,
    check_ball_neighbours,
    check_quadrangle_condition,
    check_spheres_triangle_free,
    check_triangle_condition,
    triangulated_disk,
    verify_systolic,
)

from bruteforce import (
    brute_ball_neighbours_report,
    brute_quadrangle_report,
    brute_spheres_report,
    brute_triangle_condition_report,
    brute_verify_systolic,
    non_systolic_counterexamples,
    random_graph,
)


def four_wheel():
    rim = [1, 2, 3, 4]
    edges = [(0, v) for v in rim] + [(1, 2), (2, 3), (3, 4), (1, 4)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]
    return SimplicialComplex2(Graph(range(5), edges), tris)


def c6_complex():
    g = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    return SimplicialComplex2(g, [])


# -------------------------------------------------------------- verify_systolic


def test_disks_pass(small_disk, lemma_disks):
    for d in [small_disk] + list(lemma_disks):
        rep = verify_systolic(d.complex)
        assert rep.passed
        assert rep.stats["h1_rank_mod2"] == 0
        assert not rep.counterexamples


def test_four_wheel_fails_link_girth():
    rep = verify_systolic(four_wheel())
    assert not rep.passed
    certs = [c for c in rep.counterexamples if c.kind == "link-girth"]
    assert certs and certs[0].vertices == (0,)
    assert "girth=4" in certs[0].info


def test_empty_triangle_fails_flagness():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    rep = verify_systolic(SimplicialComplex2(g, []))
    assert not rep.passed
    certs = [c for c in rep.counterexamples if c.kind == "flagness"]
    assert certs[0].vertices == (0, 1, 2)
    assert certs[0].info == "empty-triangle"


def test_four_clique_reported():
    k4_edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    rep = verify_systolic(SimplicialComplex2(Graph(range(4), k4_edges), tris))
    assert not rep.passed
    kinds = {c.kind for c in rep.counterexamples}
    assert "flagness" in kinds  # the 4-clique itself
    assert "link-girth" in kinds  # every link is a 3-cycle
    clique = [c for c in rep.counterexamples if c.info == "4-clique"]
    assert clique[0].vertices == (0, 1, 2, 3)


def test_bare_cycle_fails_h1():
    rep = verify_systolic(c6_complex())
    assert not rep.passed
    h1 = [c for c in rep.counterexamples if c.kind == "h1"]
    assert h1 and h1[0].info == "rank=1"


def test_disconnected_input_rejected():
    # a vertex the smallest vertex (or the base) misses is a certificate;
    # verify_systolic skips h1, the level checks stop there
    c = SimplicialComplex2(Graph(range(4), [(0, 1), (2, 3)]), [])
    want = [("disconnected", (0, 2), "no-path"), ("disconnected", (0, 3), "no-path")]
    systolic = verify_systolic(c)
    assert "h1_rank_mod2" not in systolic.stats
    b = BasedComplex(c, 0)
    for rep in (
        systolic,
        check_spheres_triangle_free(b),
        check_ball_neighbours(b),
        check_triangle_condition(b),
    ):
        assert not rep.passed
        assert [(x.kind, x.vertices, x.info) for x in rep.counterexamples] == want


def test_verify_systolic_searches_the_graph_once(monkeypatch):
    # the component view's search for disconnected certificates also lets h1
    # skip its own; the disk is built here, since a shared one may already
    # hold the view
    disk = triangulated_disk(DiskSpec(radius=2, degrees=6))
    sources = []

    def counted(g, s, lev, slot):
        sources.append(g._order[s])
        return search(g, s, lev, slot)

    search = complexes._search
    monkeypatch.setattr(complexes, "_search", counted)
    rep = verify_systolic(disk.complex)
    assert rep.passed and rep.stats["h1_rank_mod2"] == 0
    assert sources == [min(disk.complex.graph.vertices)]


def complex_of(triangles, edges=()):
    """The complex on the given triangles plus extra edges, with their vertices."""
    es = {tuple(sorted(e)) for e in edges}
    for t in triangles:
        es.update(tuple(sorted(p)) for p in combinations(t, 2))
    vs = {v for e in es for v in e}
    return SimplicialComplex2(Graph(vs, es), triangles)


def cone(edges):
    """The cone over a graph with apex 0: the link of the apex is that graph."""
    return cone_at(0, edges)


def cone_at(apex, edges):
    return complex_of([(apex, a, b) for a, b in edges])


def relabel(c, f):
    g = c.graph
    return SimplicialComplex2(
        Graph(map(f, g.vertices), [(f(a), f(b)) for a, b in g.edges]),
        [tuple(map(f, t)) for t in c.triangles],
    )


def petersen(s=1):
    outer = [(s + i, s + (i + 1) % 5) for i in range(5)]
    inner = [(s + 5 + i, s + 5 + (i + 2) % 5) for i in range(5)]
    return outer + inner + [(s + i, s + 5 + i) for i in range(5)]


def heawood(s=1):
    """The incidence graph of the Fano plane: cubic, girth 6."""
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    return [(s + p, s + 7 + i) for i, line in enumerate(lines) for p in line]


def k_nn(n, s=1):
    return [(s + a, s + n + b) for a in range(n) for b in range(n)]


def mixed_violations():
    """More than 25 violations of all three kinds, ids in reverse vertex order.

    K6 with the ten triangles at one vertex (link K5, girth 3; ten empty
    triangles, fifteen 4-cliques), two 4-wheels and a 5-wheel, joined by
    bare edges.
    """
    k6 = [(0, a, b) for a, b in combinations(range(1, 6), 2)]
    wheels = []
    for hub, rim in ((6, range(7, 11)), (11, range(12, 16)), (16, range(17, 22))):
        rim = list(rim)
        wheels += [(hub, a, b) for a, b in zip(rim, rim[1:] + rim[:1])]
    c = complex_of(k6 + wheels, edges=[(a, b) for a, b in combinations(range(1, 6), 2)]
                   + [(5, 7), (10, 12), (15, 17)])
    return relabel(c, lambda v: 100 - 3 * v)


@st.composite
def triangle_complexes(draw):
    """Random 2-complexes with non-contiguous vertex ids.

    Up to two parts (none: the empty complex; two: disconnected input).
    A part is a random graph with a random share of its 3-cliques filled,
    none to all (edges in three or more triangles, links with no
    triangles, empty triangles, 4-cliques), or a bouquet: a hub whose link
    is disjoint cycles of lengths 3 to 7, with extra triangles on one
    spoke so that the link branches there.
    """
    edges, tris, size = set(), [], 0
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            n = draw(st.integers(1, 9))
            p = draw(st.sampled_from([0.3, 0.6, 0.9]))
            q = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
            rng = random.Random(draw(st.integers(0, 10**6)))
            es = {e for e in combinations(range(n), 2) if rng.random() < p}
            ts = [t for t in combinations(range(n), 3)
                  if set(combinations(t, 2)) <= es and rng.random() < q]
        else:
            es, ts, n = set(), [], 1
            for length in draw(st.lists(st.integers(3, 7), min_size=1, max_size=3)):
                rim = list(range(n, n + length))
                n += length
                ts += [(0, a, b) for a, b in zip(rim, rim[1:] + rim[:1])]
            for _ in range(draw(st.integers(0, 3))):  # pages on the spoke (0, 1)
                ts.append((0, 1, n))
                n += 1
            es = {tuple(sorted(e)) for t in ts for e in combinations(t, 2)}
        edges |= {(a + size, b + size) for a, b in es}
        tris += [tuple(v + size for v in t) for t in ts]
        size += n
    ids = draw(st.permutations(range(size)))
    return relabel(SimplicialComplex2(Graph(range(size), edges), tris), lambda v: 2 * ids[v] + 1)


@settings(max_examples=300, deadline=None)
@given(triangle_complexes())
@example(SimplicialComplex2(Graph([]), []))
@example(SimplicialComplex2(Graph([7]), []))
@example(SimplicialComplex2(Graph(range(4), [(0, 1), (1, 2), (1, 3)]), []))
@example(SimplicialComplex2(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), [(0, 1, 2)]))
@example(SimplicialComplex2(Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4)]), []))
@example(cone(heawood(2**64)))  # ids beyond any fixed-width integer
def test_verify_systolic_agrees_with_oracle(c):
    # the whole report: verdict, stats, violation count and kept
    # certificates, searched in one block and in blocks of one item; the
    # examples leave some of the searches' sorted keys empty
    for cap in (0, 1, 25):
        want = brute_verify_systolic(c, cap)
        assert verify_systolic(c, cap) == want
        with pytest.MonkeyPatch.context() as m:
            m.setattr(systolic, "_BLOCK_ENTRIES", 1)
            assert verify_systolic(c, cap) == want


@pytest.mark.parametrize("link_edges, want", [
    (k_nn(3), "girth=4"),
    (petersen(), "girth=5"),
    (heawood(), None),
    (petersen(1) + heawood(11), "girth=5"),  # a link of two components
    (heawood(1) + [(1, 50), (50, 51), (51, 52), (52, 1)], "girth=4"),
])
def test_branched_links(link_edges, want):
    # every rim vertex of a cone has degree >= 3 in the apex link
    c = cone(link_edges)
    rep = verify_systolic(c)
    assert rep == brute_verify_systolic(c, 25)
    got = [x.info for x in rep.counterexamples if x.kind == "link-girth"]
    assert got == ([want] if want else [])


def test_scan_order_under_every_cap():
    c = mixed_violations()
    full = brute_verify_systolic(c, 10**6)
    kinds = {(x.kind, x.info.split("=")[0]) for x in full.counterexamples}
    assert {("link-girth", "girth"), ("flagness", "empty-triangle"),
            ("flagness", "4-clique")} <= kinds
    assert full.violations > 25
    for cap in range(full.violations + 2):
        assert verify_systolic(c, cap) == brute_verify_systolic(c, cap), cap
    # the link scan comes first, by vertex: the least violating id is the
    # 5-wheel's hub, 100 - 3 * 16
    first = verify_systolic(c, 1).counterexamples
    assert [str(x) for x in first] == ["link-girth 52 :: girth=5"]


def expansions(monkeypatch):
    """The length of every expansion the systolic searches make, as they make them."""
    sizes = []
    expand = systolic._expand

    def spy(lo, hi):
        row, col = expand(lo, hi)
        sizes.append(len(row))
        return row, col

    monkeypatch.setattr(systolic, "_expand", spy)
    return sizes


def test_link_search_is_blocked_on_branched_links(monkeypatch):
    # the apex link K_{40,40} has 128,000 two-step paths out of its 80
    # vertices; a search of all of them at once, or a walk from every
    # directed link edge (3,200 x 39^3 entries at step 3), is far more
    # than one block
    sizes = expansions(monkeypatch)
    c = cone(k_nn(40))
    rep = verify_systolic(c)
    assert [str(x) for x in rep.counterexamples] == ["link-girth 0 :: girth=4"]
    assert sum(sizes) > 2 * systolic._BLOCK_ENTRIES
    assert max(sizes) <= systolic._BLOCK_ENTRIES


def test_clique_search_is_blocked_on_a_fan(monkeypatch):
    # the apex sits in the middle of the ids, below 2,000 of its
    # neighbours and above 2,000; listing the 3-cliques from the edges
    # (u, apex) and the neighbours of the apex above it would expand
    # 2,000 x 2,000 entries, while both searches expand about 18 entries
    # per vertex when edges point towards the higher degree
    sizes = expansions(monkeypatch)
    rim = [v for v in range(4001) if v != 2000]
    rep = verify_systolic(cone_at(2000, zip(rim, rim[1:])))
    assert rep.passed
    assert rep.stats["cliques3"] == 3999
    assert sum(sizes) < 100_000


def test_flagness_holds_few_rows_on_a_complete_graph(monkeypatch):
    # K_20 with no triangle: 1,140 empty triangles and 4,845 4-cliques;
    # the scan holds the rows of one block and at most twice the cap plus
    # a block besides, not all 5,985
    monkeypatch.setattr(systolic, "_BLOCK_ENTRIES", 64)
    held = []
    sorted_rows = systolic._sorted_rows

    def spy(rows):
        held.append(len(rows))
        return sorted_rows(rows)

    monkeypatch.setattr(systolic, "_sorted_rows", spy)
    c = SimplicialComplex2(Graph(range(20), combinations(range(20), 2)), [])
    for cap in (0, 1, 25):
        held.clear()
        rep = verify_systolic(c, cap)
        assert rep == brute_verify_systolic(c, cap)
        assert rep.violations == 1140 + 4845 + 1  # and the h1 rank
        assert max(held) <= 2 * (cap + 64) + 64


def test_link_search_work_is_linear_in_the_link_rows(monkeypatch):
    # one block per root: the entries that np.diff and _cumsum read stay a
    # fixed multiple of the link rows, so no block recomputes a whole array
    # (a degree per root recomputed in every block made the search quadratic)
    monkeypatch.setattr(systolic, "_BLOCK_ENTRIES", 1)
    touched = []
    diff, cumsum = np.diff, systolic._cumsum

    def count_diff(a, *args, **kwargs):
        touched.append(np.size(a))
        return diff(a, *args, **kwargs)

    def count_cumsum(a):
        touched.append(np.size(a))
        return cumsum(a)

    monkeypatch.setattr(np, "diff", count_diff)
    monkeypatch.setattr(systolic, "_cumsum", count_cumsum)
    for radius in (3, 5):
        tri = triangulated_disk(DiskSpec(radius=radius, degrees=7)).complex._rows
        links = np.concatenate([tri, tri[:, [1, 0, 2]], tri[:, [2, 0, 1]]])
        touched.clear()
        assert not systolic._link_girths(links, int(tri.max()) + 1).any()
        assert sum(touched) <= 12 * len(links), (radius, len(links), sum(touched))


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_every_block_size_agrees_with_oracle(monkeypatch, budget):
    # blocks of one item upwards split roots, paths and 3-cliques at
    # every boundary
    monkeypatch.setattr(systolic, "_BLOCK_ENTRIES", budget)
    sizes = expansions(monkeypatch)
    for c in (mixed_violations(), cone(petersen(1) + heawood(11)), cone(k_nn(4)),
              cone(heawood(1) + [(1, 50), (50, 51), (51, 52), (52, 1)])):
        sizes.clear()
        for cap in (0, 1, 25):
            assert verify_systolic(c, cap) == brute_verify_systolic(c, cap)
        # a block holds one item, or items costing at most the budget
        assert max(sizes) <= max(budget, 16)


def test_verify_report_idempotent(small_disk):
    a = verify_systolic(small_disk.complex)
    b = verify_systolic(small_disk.complex)
    assert a.to_text() == b.to_text()
    assert a.to_csv_rows() == b.to_csv_rows()


# ----------------------------------------------------------------- level lemmas


def all_basepoint_reports(c, check):
    return [check(BasedComplex(c, p)) for p in sorted(c.graph.vertices)]


def test_level_checks_pass_on_disk_every_basepoint(small_disk):
    c = small_disk.complex
    for check in (
        check_spheres_triangle_free,
        check_ball_neighbours,
        check_triangle_condition,
    ):
        for rep in all_basepoint_reports(c, check):
            assert rep.passed, rep.to_text()


def test_sphere_triangle_negative():
    # cone over a filled triangle: the rim is one triangle on the 1-sphere
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)]
    c = SimplicialComplex2(Graph(range(4), edges), [(1, 2, 3)])
    rep = check_spheres_triangle_free(BasedComplex(c, 0))
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "sphere-triangle"
    assert cert.vertices == (1, 2, 3)
    assert cert.info == "r=1"


def test_ball_neighbours_negative_on_c6():
    rep = check_ball_neighbours(BasedComplex(c6_complex(), 0))
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "ball-neighbours"
    assert cert.vertices == (3, 2, 4)
    assert cert.info == "level=3"


def test_ball_neighbours_negative_after_edge_removal(small_disk):
    # drop one edge between two downward neighbours of a level-2 vertex
    c = small_disk.complex
    b = BasedComplex(c, small_disk.center)
    levels = b.levels
    target = None
    for v in sorted(c.graph.vertices):
        if levels[v] != 2:
            continue
        down = [w for w in c.graph.neighbors(v) if levels[w] == 1]
        if len(down) >= 2:
            target = (v, down[0], down[1])
            break
    assert target is not None
    v, w, x = target
    dropped = {(min(w, x), max(w, x))}
    g2 = Graph(c.graph.vertices, set(c.graph.edges) - dropped)
    tris = [t for t in c.triangles if not (w in t and x in t)]
    rep = check_ball_neighbours(BasedComplex(SimplicialComplex2(g2, tris), small_disk.center))
    assert not rep.passed
    assert any(cert.vertices == (v, w, x) for cert in rep.counterexamples)


def test_triangle_condition_negative_on_c5():
    g = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    rep = check_triangle_condition(BasedComplex(SimplicialComplex2(g, []), 0))
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "triangle-condition"
    assert cert.vertices == (2, 3)
    assert cert.info == "level=2"


def test_triangle_condition_vacuous_on_c6():
    # no edge of C6 joins two vertices on the same level around 0
    rep = check_triangle_condition(BasedComplex(c6_complex(), 0))
    assert rep.passed
    assert not rep.counterexamples


def test_unreachable_basepoint_levels_are_partial():
    c = SimplicialComplex2(Graph(range(3), [(0, 1)]), [])
    b = BasedComplex(c, 0)
    assert 2 not in b.levels


def test_counterexample_corpus_is_connected_and_small():
    for c, _tag in non_systolic_counterexamples():
        assert len(c.graph.vertices) <= 8
        rep = verify_systolic(c)
        assert not rep.passed


# ------------------------------------------------------- level checks vs oracles


LEVEL_CHECKS = {
    "spheres": (check_spheres_triangle_free, brute_spheres_report),
    "neighbours": (check_ball_neighbours, brute_ball_neighbours_report),
    "triangle": (check_triangle_condition, brute_triangle_condition_report),
    "quadrangle": (check_quadrangle_condition, brute_quadrangle_report),
}


def filled(g):
    """The complex on g with every 3-clique filled."""
    tris = [t for t in combinations(sorted(g.vertices), 3)
            if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
    return SimplicialComplex2(g, tris)


def level_check_cases(small_disk):
    """(name, based complex): random graphs with every triangle filled, some
    disconnected, based at each of three vertices; a mutant failing each
    check; and a based path, on which every counted stat is zero."""
    cases = []
    for seed in range(30):
        c = filled(random_graph(9, 0.25 + 0.02 * (seed % 10), seed=300 + seed))
        cases += [(f"random{seed}@{v}", BasedComplex(c, v)) for v in (0, 4, 8)]
    k4 = filled(Graph(range(4), list(combinations(range(4), 2))))
    cases.append(("k4: triangle 1 2 3 on sphere 1", BasedComplex(k4, 0)))
    hexagon = SimplicialComplex2(Graph(range(6), [(i, (i + 1) % 6) for i in range(6)]), [])
    cases.append(("c6: 3 has down 2, 4, not adjacent, no common down", BasedComplex(hexagon, 0)))
    pentagon = SimplicialComplex2(Graph(range(5), [(i, (i + 1) % 5) for i in range(5)]), [])
    cases.append(("c5: edge 2 3 has no common down", BasedComplex(pentagon, 0)))
    path = SimplicialComplex2(Graph(range(3), [(0, 1), (1, 2)]), [])
    cases.append(("path: nothing counted", BasedComplex(path, 0)))
    cases.append(("disk", BasedComplex(small_disk.complex, small_disk.center)))
    return cases


@pytest.mark.parametrize("name", LEVEL_CHECKS)
def test_level_checks_match_their_loop_oracles(small_disk, name):
    check, brute = LEVEL_CHECKS[name]
    failed = 0
    for label, b in level_check_cases(small_disk):
        for cap in (0, 1, 25):
            assert check(b, cap).to_text() == brute(b, cap).to_text(), (label, cap)
        failed += not check(b).passed
    assert failed >= 3


def test_level_checks_leave_out_zero_counts():
    # a counted stat that stays zero is not written, as ReportBuilder.count leaves it out
    b = BasedComplex(SimplicialComplex2(Graph(range(3), [(0, 1), (1, 2)]), []), 0)
    for check, _brute in LEVEL_CHECKS.values():
        text = check(b).to_text()
        assert "stat" not in text and "passed true" in text, text
