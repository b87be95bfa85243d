"""Verification of the triangle-complex conditions and their level lemmas."""

import pytest

from sysquad import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    check_ball_neighbours,
    check_spheres_triangle_free,
    check_triangle_condition,
    non_systolic_counterexamples,
    verify_systolic,
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
    c = SimplicialComplex2(Graph(range(4), [(0, 1), (2, 3)]), [])
    with pytest.raises(ValueError, match="connected"):
        verify_systolic(c)


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
