"""Intervals, replacement rules, and the local metric checks on squared complexes."""

import math
from functools import cached_property
from itertools import combinations, cycle

import numpy as np
import pytest

from sysquad import (
    BasedComplex,
    Graph,
    SquareComplex,
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_quadrangle_condition,
    check_replacement_rule_A,
    check_replacement_rule_B,
    distance,
    squaring,
)
from sysquad.metrics import all_pairs, vertex_order
from sysquad import complexes, quadric, systolic
from sysquad.quadric import is_modular

from bruteforce import (
    adjacency,
    based_interval,
    bfs_dist,
    brute_flat_intervals_text,
    brute_interval_isometry_ok,
    brute_is_modular,
    brute_interval_vertices,
    random_graph,
    random_k23_complex,
)
from conftest import interval, k23_complex_based, k55_two_thirds, rule_a_mutant, rule_b_mutant


def c6_square_complex():
    return SquareComplex(Graph(range(6), [(i, (i + 1) % 6) for i in range(6)]), [])


def filled_square():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    return SquareComplex(g, [(0, 1, 2, 3)])


def modular(g):
    order = vertex_order(g)
    return is_modular(g, all_pairs(g, order))


# -------------------------------------------------------------------- intervals


def test_interval_of_equal_endpoints_is_a_point(small_squaring):
    b = small_squaring.squared
    assert interval(b, b.basepoint) == frozenset({b.basepoint})


def test_interval_of_a_filled_square_is_the_square():
    assert interval(BasedComplex(filled_square(), 0), 2) == frozenset(range(4))


def test_interval_rejects_separated_endpoints():
    g = SquareComplex(Graph(range(4), [(0, 1), (2, 3)]), [])
    b = BasedComplex(g, 0)
    for walk in (interval, based_interval):
        with pytest.raises(ValueError, match="unreachable from the basepoint"):
            walk(b, 3)
    # the store's row of a vertex the base does not reach holds only that vertex
    assert np.unpackbits(b._intervals(np.arange(4), 4)[3], count=4).tolist() == [0, 0, 0, 1]


def test_descending_reachable_is_the_interval(small_squaring):
    b = small_squaring.squared
    for v in sorted(b.graph.vertices):
        got = interval(b, v)
        assert got == brute_interval_vertices(b.graph, b.basepoint, v), f"v={v}"


def test_interval_matches_distance_sum_oracle(small_squaring):
    # any vertex may serve as the base: the interval is symmetric in its endpoints
    sq = small_squaring.squared.complex
    g = sq.graph
    for u in sorted(g.vertices):
        rebased = BasedComplex(sq, u)
        for v in sorted(g.vertices):
            got = interval(rebased, v)
            assert got == brute_interval_vertices(g, u, v), f"u={u} v={v}"


def test_level_two_interval_is_a_diamond(small_squaring):
    # any level-2 vertex of a squared disk spans exactly one square with the base
    b = small_squaring.squared
    base = b.basepoint
    levels = b.levels
    two = [v for v in sorted(b.graph.vertices) if levels[v] == 2]
    assert two
    picked = 0
    for v in two:
        mids = interval(b, v) - {base, v}
        if len(mids) == 2:
            m0, m1 = sorted(mids)
            assert b.complex.has_square((base, m0, v, m1))
            assert all(levels[m] == 1 for m in mids)
            picked += 1
    assert picked > 0


def test_interval_monotone_along_descending_edges(small_squaring):
    b = small_squaring.squared
    levels = b.levels
    cache = {v: interval(b, v) for v in b.graph.vertices}
    for u, w in b.graph.edges:
        hi, lo = (u, w) if levels[u] > levels[w] else (w, u)
        assert cache[lo] <= cache[hi], f"edge {(u, w)}"


# ------------------------------------------------------------------ rule A


def test_rule_a_mutant_fails():
    rep = check_replacement_rule_A(rule_a_mutant())
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "rule-a"
    assert cert.vertices == (0, 1, 2, 3, 4)
    assert cert.info == "missing-outer-square"
    assert rep.stats["patterns"] == 1


def test_rule_a_passes_once_completed():
    g = Graph(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    sq = SquareComplex(g, [(0, 2, 1, 3), (0, 3, 1, 4), (0, 2, 1, 4)])
    rep = check_replacement_rule_A(sq)
    assert rep.passed
    assert rep.stats["patterns"] == 3


def test_rule_a_vacuous_on_disk_squarings(small_squaring):
    rep = check_replacement_rule_A(small_squaring.squared.complex)
    assert rep.passed
    # squared disks never two squares over one diagonal; rely on mutants above
    assert rep.stats.get("patterns", 0) == 0


# ------------------------------------------------------------------ rule B


def test_rule_b_mutant_fails():
    rep = check_replacement_rule_B(rule_b_mutant())
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "rule-b"
    assert cert.vertices == (0, 1, 2, 3, 4, 5, 6)
    assert cert.info == "no-chorded-antipode"
    assert rep.stats["hexagons"] == 1


def test_rule_b_passes_with_chord_and_squares():
    base = rule_b_mutant()
    edges = set(base.graph.edges) | {(1, 4)}
    squares = list(base.squares) + [(1, 6, 5, 4), (1, 2, 3, 4)]
    fixed = SquareComplex(Graph(base.graph.vertices, edges), squares)
    rep = check_replacement_rule_B(fixed)
    assert rep.passed
    assert rep.stats["hexagons"] >= 1


def test_rule_b_degenerate_hexagon_skipped():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (0, 5), (2, 5)]
    sq = SquareComplex(
        Graph(range(6), edges), [(0, 1, 2, 3), (0, 3, 4, 5), (0, 5, 2, 1)]
    )
    rep = check_replacement_rule_B(sq)
    assert rep.passed
    assert rep.stats["degenerate"] == 1
    assert rep.stats.get("hexagons", 0) == 0


def test_rule_b_ignores_hexagon_without_hub():
    hexagon = [(i, i % 6 + 1) for i in range(1, 7)]
    edges = hexagon + [(1, 4)]
    sq = SquareComplex(
        Graph(range(1, 7), edges), [(1, 2, 3, 4), (1, 4, 5, 6)]
    )
    rep = check_replacement_rule_B(sq)
    assert rep.passed
    assert rep.stats.get("hexagons", 0) == 0


def test_rule_b_link_search_is_blocked(monkeypatch):
    # hub 0 with a square (0, a, o, b) for each odd a and even b in 1..80,
    # each with its own opposite o: the square-link of 0 is K_{40,40} on 80
    # neighbours, its sides interleaved in rank, with about 21,000 oriented
    # two-step paths and no triangle, far more than one block
    sizes = []
    expand = systolic._expand

    def spy(lo, hi):
        row, col = expand(lo, hi)
        sizes.append(len(row))
        return row, col

    monkeypatch.setattr(systolic, "_expand", spy)
    wings = [(a, b) for a in range(1, 81, 2) for b in range(2, 81, 2)]
    squares = [(0, a, o, b) for o, (a, b) in enumerate(wings, start=81)]
    edges = {(0, v) for v in range(1, 81)} | {(min(a, o), max(a, o)) for _, a, o, _ in squares}
    edges |= {(b, o) for *_, o, b in squares}
    c = SquareComplex(Graph(range(81 + len(wings)), edges), squares)
    assert len(c.squares) == 1600
    rep = check_replacement_rule_B(c)
    assert rep.to_text() == "check rule-b\npassed true\nviolations 0\n"
    assert sum(sizes) > 2 * systolic._BLOCK_ENTRIES
    assert max(sizes) <= systolic._BLOCK_ENTRIES


def test_rules_pass_on_lemma_squaring(squaring6):
    sq = squaring6.squared.complex
    assert check_replacement_rule_A(sq).passed
    assert check_replacement_rule_B(sq).passed


# ------------------------------------------------------------------ quadrangle


def test_quadrangle_holds_on_filled_square():
    b = BasedComplex(filled_square(), 0)
    rep = check_quadrangle_condition(b)
    assert rep.passed
    assert rep.stats["pairs"] == 1


def test_quadrangle_fails_on_bare_hexagon():
    rep = check_quadrangle_condition(BasedComplex(c6_square_complex(), 0))
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "quadrangle"
    assert cert.vertices == (3, 2, 4)
    assert cert.info == "level=3"


def test_quadrangle_requires_full_reachability():
    # each vertex the base misses is a certificate, for quad and flat alike
    b = BasedComplex(SquareComplex(Graph(range(4), [(0, 1), (2, 3)]), []), 0)
    for rep in (check_quadrangle_condition(b), check_flat_intervals(b)):
        assert not rep.passed
        assert rep.violations == 2
        assert [(c.kind, c.vertices, c.info) for c in rep.counterexamples] == [
            ("disconnected", (0, 2), "no-path"),
            ("disconnected", (0, 3), "no-path"),
        ]


def test_quadrangle_passes_on_squaring(small_squaring):
    assert check_quadrangle_condition(small_squaring.squared).passed


# ---------------------------------------------------------------- ball isometry


def test_ball_isometry_fails_on_bare_hexagon():
    rep = check_ball_isometry(c6_square_complex())
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.vertices == (0, 2, 4)
    assert cert.info == "r=2 d_ball=4 d=2"


def test_ball_isometry_passes_on_filled_square_and_path():
    assert check_ball_isometry(filled_square()).passed
    path = SquareComplex(Graph(range(4), [(0, 1), (1, 2), (2, 3)]), [])
    assert check_ball_isometry(path).passed


def test_ball_isometry_stays_inside_components():
    # a path, an edge and an isolated vertex: no ball crosses components,
    # and triples counts sum_u s_u (s_u - 1) over component sizes s_u
    g = Graph(range(6), [(0, 1), (1, 2), (3, 4)])
    rep = check_ball_isometry(SquareComplex(g, []))
    assert rep.passed
    assert rep.stats["triples"] == 3 * 3 * 2 + 2 * 2 * 1 + 0


def test_isometry_checks_on_the_empty_graph():
    assert check_ball_isometry(Graph([])).to_text() == (
        "check ball-isometry\npassed true\nstat centers 0\nstat triples 0\n"
        "violations 0\n"
    )
    assert check_interval_isometry(Graph([]), []).to_text() == (
        "check interval-isometry\npassed true\nviolations 0\n"
    )


def test_ball_isometry_passes_on_squaring(small_squaring):
    rep = check_ball_isometry(small_squaring.squared.complex)
    assert rep.passed
    n = len(small_squaring.squared.graph.vertices)
    assert rep.stats["centers"] == n


# ------------------------------------------------------------ interval isometry


def test_interval_isometry_detects_outside_shortcut():
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (0, 5), (5, 6), (6, 7), (7, 4),
        (2, 8), (6, 8),
    ]
    g = SquareComplex(Graph(range(9), edges), [])
    rep = check_interval_isometry(g, pairs=[(0, 4)])
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "interval-isometry"
    assert cert.vertices == (0, 4, 2, 6)
    assert cert.info == "d_interval=4 d=2"


def test_interval_isometry_accepts_plain_graph():
    # a bare Graph works as it does for check_ball_isometry: the shortcut
    # through 8 lies outside I(0, 4), and 9 is in another component
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (0, 5), (5, 6), (6, 7), (7, 4),
        (2, 8), (6, 8),
    ]
    rep = check_interval_isometry(Graph(range(10), edges), pairs=[(0, 4), (0, 9), (1, 3)])
    assert rep.stats == {"intervals": 3}
    assert [str(c) for c in rep.counterexamples] == [
        "disconnected 0 9 :: no-path",
        "interval-isometry 0 4 2 6 :: d_interval=4 d=2",
    ]


def test_interval_isometry_reports_disconnected_pairs():
    g = SquareComplex(Graph(range(4), [(0, 1), (2, 3)]), [])
    rep = check_interval_isometry(g, pairs=[(0, 2)])
    assert not rep.passed
    assert rep.counterexamples[0].kind == "disconnected"
    assert rep.counterexamples[0].info == "no-path"


def test_interval_isometry_exhaustive_on_small_squaring(small_squaring):
    sq = small_squaring.squared.complex
    pairs = list(combinations(sorted(sq.graph.vertices), 2))
    rep = check_interval_isometry(sq, pairs=pairs)
    assert rep.passed
    assert rep.stats["intervals"] == len(pairs)


def test_interval_isometry_matches_bruteforce_on_every_pair():
    # dense and sparse random graphs, bipartite or not, every connected pair:
    # the failing intervals are exactly the ones the all-pairs oracle rejects
    sizes = cycle(range(4, 12))
    densities = cycle([0.25, 0.4, 0.55])
    failing = 0
    for seed in range(60):
        g = random_graph(next(sizes), next(densities), seed)
        pairs = [(u, v) for u, v in combinations(sorted(g.vertices), 2)
                 if math.isfinite(distance(g, u, v))]
        rep = check_interval_isometry(SquareComplex(g, []), pairs=pairs, cap=10**6)
        got = {c.vertices[:2] for c in rep.counterexamples}
        want = {(u, v) for u, v in pairs if not brute_interval_isometry_ok(g, u, v)}
        assert got == want, f"seed={seed}"
        failing += len(want)
    assert failing > 0


# -------------------------------------------------------------- interval shapes


def test_intervals_of_squarings_satisfy_both_rules(small_squaring):
    b = small_squaring.squared
    g = b.graph
    for v in sorted(g.vertices):
        verts = interval(b, v)
        edges = [e for e in g.edges if set(e) <= verts]
        squares = [s for s in b.complex.squares if set(s) <= verts]
        sub = SquareComplex(Graph(verts, edges), squares)
        assert check_replacement_rule_A(sub).passed, f"v={v}"
        assert check_replacement_rule_B(sub).passed, f"v={v}"


def test_flat_intervals_pass_on_squaring(small_squaring):
    rep = check_flat_intervals(small_squaring.squared)
    assert rep.passed
    n = len(small_squaring.squared.graph.vertices)
    assert rep.stats["intervals"] == n


def k24_pendant():
    """K_{2,4} (0,1 | 2,3,4,5) with the square 0 2 1 3 and a pendant 6 on 1, based at 0."""
    edges = [(u, m) for u in (0, 1) for m in (2, 3, 4, 5)] + [(1, 6)]
    return BasedComplex(SquareComplex(Graph(range(7), edges), [(0, 2, 1, 3)]), 0)


def test_interval_store_takes_any_downward_degree():
    # 1 has four downward neighbours and 6 one; a subset of columns stores
    # only 0, 1 and 6
    b = k24_pendant()
    assert b.down(1) == (2, 3, 4, 5) and b.down(6) == (1,)
    assert interval(b, 1) == frozenset(range(6))
    assert interval(b, 6) == frozenset(range(7))
    col = np.array([0, 1, -1, -1, -1, -1, 2])
    rows = np.unpackbits(b._intervals(col, 3), axis=1).tolist()
    assert rows == [
        [1, 0, 0, 0, 0, 0, 0, 0],  # 0
        [1, 1, 0, 0, 0, 0, 0, 0],  # 1
        [1, 0, 0, 0, 0, 0, 0, 0],  # 2 to 5 store only the base
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0, 0],  # 6
    ]


def test_flat_intervals_reject_k23():
    rep = check_flat_intervals(k23_complex_based())
    assert not rep.passed
    cert = rep.counterexamples[0]
    assert cert.kind == "k23-in-interval"
    assert cert.vertices == (0, 1, 2, 3, 4)
    assert cert.info == "interval=0->1"


# the cached properties that map indices to ids, and those that hold index arrays
ID_VIEWS = {"_index", "_vertices", "_edges", "_adj", "_cells", "_cells_at", "_levels", "_down"}
INDEX_VIEWS = {"_components", "_common_neighbours", "_corners", "_square_table"}


def spy_on_views(monkeypatch):
    """The names of the id views built from now on: each id view of a graph,
    a cell store or a based complex records its first build.

    Every cached property must be named as an id view or an index view, so
    a new view cannot escape the spy unnamed.
    """
    built, views = [], set()
    for cls in (complexes.Graph, complexes._CellComplex, complexes.SquareComplex,
                complexes.BasedComplex):
        for name, view in vars(cls).items():
            if isinstance(view, cached_property):
                views.add(name)
            if name in ID_VIEWS:
                monkeypatch.setattr(view, "func", lambda obj, f=view.func, name=name: (
                    built.append(name), f(obj))[1])
    assert views == ID_VIEWS | INDEX_VIEWS
    return built


def test_flat_intervals_build_no_id_view(monkeypatch):
    # non-flat inputs fill the interval store and list certificates from
    # index arrays; the complexes are made before the spy, with no view built
    based = [k24_pendant()]
    for seed in range(6):
        c = random_k23_complex(9, 0.25, 2, seed)
        based += [BasedComplex(c, base) for base in (0, 4, 8)]
    built = spy_on_views(monkeypatch)
    caps = (0, 3, 25)  # K_{2,4}: 3 cuts into the first interval's four K_{2,3}s
    reports = [check_flat_intervals(b, cap) for b in based for cap in caps]
    assert built == []
    assert reports[0].violations == 8 and sum(not rep.passed for rep in reports) > 20
    # the oracle reads the views
    want = [brute_flat_intervals_text(b.complex, b.basepoint, cap) for b in based for cap in caps]
    assert [rep.to_text() for rep in reports] == want
    assert "_adj" in built


def test_rules_build_no_id_view(monkeypatch):
    # K_{5,5} with two thirds of its squares has patterns, hexagons,
    # degenerate hexagons and violations of both rules; the complexes are
    # made before the spy, with no view built
    inputs = [rule_a_mutant(), rule_b_mutant(), k55_two_thirds()]
    inputs += [random_k23_complex(9, 0.4, 3, seed) for seed in range(4)]
    built = spy_on_views(monkeypatch)
    # both rules read one square table per complex
    table = vars(complexes.SquareComplex)["_square_table"]
    tables = []
    monkeypatch.setattr(table, "func", lambda c, f=table.func: (tables.append(c), f(c))[1])
    reports = [(check_replacement_rule_A(c, cap), check_replacement_rule_B(c, cap))
               for c in inputs for cap in (0, 3, 25)]
    assert built == []
    assert tables == inputs
    a, b = reports[8]  # K_{5,5} at cap 25
    assert {"patterns"} <= set(a.stats) and {"degenerate", "hexagons"} <= set(b.stats)
    assert [a.violations, b.violations] == [84, 132]
    assert not any(a.passed and b.passed for a, b in reports[:9])


@pytest.mark.parametrize("g", [
    Graph([]),
    Graph([0]),
    Graph(range(6), [(0, 1), (2, 3), (4, 5)]),
    Graph(range(9), [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7)]),
    Graph(range(7), [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)]),
], ids=["empty", "point", "matching", "square-path-isolated", "c5-edge"])
def test_component_sizes_count_the_ball_triples(g):
    # (u, x, y) with y != x in u's component: s (s - 1) per vertex of a
    # component of size s, the components read from one BFS each
    adj = adjacency(g)
    size = {v: len(bfs_dist(adj, v)) for v in g.vertices}
    rep = check_ball_isometry(g)
    assert rep.stats == {"centers": len(size), "triples": sum(s * (s - 1) for s in size.values())}


# ------------------------------------------------------ modularity certificate


def test_lemma_squarings_are_modular(lemma_disks):
    for d in lemma_disks:
        b = BasedComplex(d.complex, d.center)
        assert modular(squaring(b).squared.graph), d


def test_certificate_reads_every_pair_block():
    # a 2 x 40 grid is modular and gives over 64 pairs with a common
    # neighbour; the hexagon after it sorts last and fails the quadrangle test
    grid = [(i, i + 1) for i in range(39)] + [(i + 40, i + 41) for i in range(39)]
    grid += [(i, i + 40) for i in range(40)]
    hexagon = [(80 + i, 80 + (i + 1) % 6) for i in range(6)]
    assert modular(Graph(range(80), grid))
    g = Graph(range(86), grid + hexagon)
    assert not modular(g)
    rep = check_ball_isometry(g)
    assert str(rep.counterexamples[0]) == "ball-isometry 80 82 84 :: r=2 d_ball=4 d=2"


def ladder(k, first=0):
    """The 2 x k grid on first .. first + 2k - 1."""
    rails = [(first + i, first + i + 1) for i in range(k - 1)]
    rails += [(first + k + i, first + k + i + 1) for i in range(k - 1)]
    return rails + [(first + i, first + k + i) for i in range(k)]


def complete_bipartite(a, b, first=0):
    return [(first + i, first + a + j) for i in range(a) for j in range(b)]


@pytest.mark.parametrize("n, edges", [
    (6, complete_bipartite(3, 3)),
    (6, complete_bipartite(2, 4)),
    (6, [e for e in complete_bipartite(3, 3) if e != (0, 3)]),
    (85, ladder(40) + complete_bipartite(2, 3, 80)),
    (21, ladder(5) + complete_bipartite(2, 3, 10)
     + [(15 + i, 15 + (i + 1) % 6) for i in range(6)]),
    (6, [(0, 1), (2, 3), (4, 5)]),
    (3, []),
], ids=["k33", "k24", "k33-minus-edge", "ladder40-k23", "ladder5-k23-hexagon",
        "matching", "edgeless"])
def test_certificate_agrees_with_brute_at_every_block_size(monkeypatch, n, edges):
    # common-neighbour rows of multiplicity 1, 2, 3 and 4 in one padded table;
    # the matching and the edgeless graph have no pair with a common neighbour
    g = Graph(range(n), edges)
    order = vertex_order(g)
    D = all_pairs(g, order)
    expected = brute_is_modular(g)
    for pairs_per_block in (None, 1, 2, 3, 7):
        if pairs_per_block is not None:
            monkeypatch.setattr(quadric, "_BLOCK_ENTRIES", pairs_per_block * n)
        assert is_modular(g, D) == expected, pairs_per_block


def test_odd_cycle_takes_the_exact_fallback():
    # C5 is not bipartite, so the certificate fails; its balls and intervals
    # still embed isometrically, which only the exact scans can tell
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert not modular(c5)
    assert check_ball_isometry(c5).to_text() == (
        "check ball-isometry\npassed true\nstat centers 5\nstat triples 100\n"
        "violations 0\n"
    )
    pairs = list(combinations(range(5), 2))
    assert check_interval_isometry(c5, pairs=pairs).to_text() == (
        "check interval-isometry\npassed true\nstat intervals 10\nviolations 0\n"
    )


def test_certificate_keeps_mutant_reports():
    # rule-A and K23 mutants are modular (K_{2,3}) and pass on the certificate;
    # the rule-B mutant is not, and its ball certificates come from the scan
    a, bmut, k = rule_a_mutant(), rule_b_mutant(), k23_complex_based().complex
    assert [modular(c.graph) for c in (a, bmut, k)] == [True, False, True]
    for c in (a, k):
        pairs = list(combinations(range(5), 2))
        assert check_ball_isometry(c).passed
        assert check_interval_isometry(c, pairs=pairs).stats == {"intervals": 10}
    rep = check_ball_isometry(bmut)
    assert rep.violations == 6
    assert [str(c) for c in rep.counterexamples[:2]] == [
        "ball-isometry 2 4 6 :: r=2 d_ball=4 d=2",
        "ball-isometry 2 6 4 :: r=2 d_ball=4 d=2",
    ]
    pairs = list(combinations(range(7), 2))
    assert check_interval_isometry(bmut, pairs=pairs).passed


@pytest.mark.parametrize("edges, is_mod", [
    ([(0, 1), (1, 2), (2, 3), (0, 3)], True),
    ([(i, (i + 1) % 5) for i in range(5)], False),
])
def test_interval_isometry_names_an_unknown_vertex(edges, is_mod):
    # the certificate's gather and the exact fallback both name the id, as
    # distance() and neighbors() do
    g = Graph(range(5), edges)
    assert modular(g) == is_mod
    for pairs in ([(0, 9)], [(0, 1), (9, 0)], [(0, 1)] * 5 + [(2, 9)]):
        with pytest.raises(ValueError, match="^unknown vertex 9$"):
            check_interval_isometry(g, pairs)


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_modular_interval_pairs_gather_in_blocks(monkeypatch, block):
    # two filled squares apart: modular, and half the pairs are disconnected;
    # the gather per block reports what the per-pair loop reports
    monkeypatch.setattr(quadric, "_PAIR_BLOCK", block)
    g = Graph(range(8), [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    c = SquareComplex(g, [(0, 1, 2, 3), (4, 5, 6, 7)])
    pairs = [(u, v) for u in range(8) for v in range(u, 8)]
    for cap in (0, 2, 25):
        got = check_interval_isometry(c, iter(pairs), cap, modular=True)
        assert got == check_interval_isometry(c, pairs, cap, modular=False)
        assert got.violations == 16 and got.stats == {"intervals": 36}
    assert check_interval_isometry(c, [], modular=True).stats == {}
