"""Property-based agreement between the fast paths and the brute oracles."""

import math
import random
import re
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sysquad import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_replacement_rule_A,
    check_replacement_rule_B,
    distance,
    enumerate_embedded_4cycles,
)
from sysquad import metrics, systolic
from sysquad.complexes import _canonical_rows
from sysquad.metrics import all_pairs, induced_distances
from sysquad.quadric import _link_triples, is_modular

from bruteforce import (
    adjacency,
    based_interval,
    bfs_dist,
    brute_ball_isometry_violations,
    brute_canonical_cycle,
    brute_embedded_4cycles,
    brute_flat_intervals_text,
    brute_girth,
    brute_h1_rank_mod2,
    brute_interval_isometry_ok,
    brute_interval_vertices,
    brute_is_connected,
    brute_is_modular,
    brute_k23,
    brute_link_triples,
    brute_rule_a_report,
    brute_rule_a_violations,
    brute_rule_b_report,
    brute_rule_b_violations,
    cycle_edges,
    find_K23,
    four_cycles_by_subsets,
    girth,
    random_bipartite_graph,
    random_graph,
    random_k23_complex,
    random_square_complex,
    relabelled,
)
from conftest import h1_rank, interval, k23_complex_based, k55_two_thirds, rule_a_mutant, rule_b_mutant

graph_params = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.15, 0.3, 0.45, 0.6]),
    st.integers(min_value=0, max_value=10**6),
)

square_params = st.tuples(
    st.integers(min_value=4, max_value=10),
    st.sampled_from([0.3, 0.45, 0.6]),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_girth_agrees(params):
    g = random_graph(*params)
    assert girth(g) == brute_girth(g)


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_four_cycles_agree(params):
    g = random_graph(*params)
    got = {cycle_edges(c) for c in enumerate_embedded_4cycles(g)}
    assert got == four_cycles_by_subsets(g)


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_four_cycles_match_the_common_neighbour_loop(params):
    g = random_graph(*params)
    assert enumerate_embedded_4cycles(g) == brute_embedded_4cycles(g)
    # ids of any size, in reverse order: the canonical forms change
    big = Graph((2**70 - v for v in g.vertices), ((2**70 - u, 2**70 - w) for u, w in g.edges))
    assert enumerate_embedded_4cycles(big) == brute_embedded_4cycles(big)


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_k23_agrees(params):
    g = random_graph(*params)
    assert find_K23(g) == brute_k23(g)


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_networkx_agrees_on_distances_girth_and_4_cycles(params):
    # a third oracle, independent of both the library and bruteforce.py
    g = random_graph(*params)
    h = nx_graph(g)
    order = g._order
    D = all_pairs(g)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            assert D[i, j] == lengths[u].get(v, len(order)), (u, v)
    assert girth(g) == nx.girth(h)
    squares = [brute_canonical_cycle(c) for c in nx.simple_cycles(h, length_bound=4)
               if len(c) == 4]
    assert enumerate_embedded_4cycles(g) == sorted(squares)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.sampled_from([0.0, 0.01, 0.03, 0.06]),
       st.integers(min_value=0, max_value=10**6))
def test_components_agree_with_networkx(n, p, seed):
    # sparse graphs: many components, isolated vertices among them
    g = random_graph(n, p, seed)
    h = nx_graph(g)
    root, depth = g._components
    pos = dict(zip(g._order, range(n)))
    for component in nx.connected_components(h):
        least = min(component)
        lengths = nx.single_source_shortest_path_length(h, least)
        for v in component:
            assert g._order[root[pos[v]]] == least and depth[pos[v]] == lengths[v], v


def test_all_pairs_long_path_matches_bfs_levels():
    # 302 vertices need a dtype wider than uint8: distances reach 299 and
    # the two isolated vertices hold the sentinel 302
    g = Graph(range(302), [(v, v + 1) for v in range(299)])
    order = g._order
    D = all_pairs(g)
    assert D.dtype == np.min_scalar_type(2 * 302)
    assert D.max() == 302 and D[0, 299] == 299
    adj = adjacency(g)
    for i, u in enumerate(order):
        levels = bfs_dist(adj, u)
        assert D[i].tolist() == [levels.get(v, 302) for v in order], u


@settings(max_examples=60, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=10**6))
def test_induced_distances_agree_with_networkx(params, seed):
    g = random_graph(*params)
    order = g._order
    rng = np.random.default_rng(seed)
    sub = np.flatnonzero(rng.random(len(order)) < 0.6)
    inner = induced_distances(all_pairs(g), sub)
    assert inner.dtype == np.min_scalar_type(2 * len(sub))
    h = nx_graph(g).subgraph([order[i] for i in sub])
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    for i, a in enumerate(sub):
        for j, b in enumerate(sub):
            assert inner[i, j] == lengths[order[a]].get(order[b], len(sub))


def star(center, n):
    return Graph(range(n), [(center, v) for v in range(n) if v != center])


# the distance kernel's padded neighbour table and packed rows at their edges:
# one wide row sets the padding width, isolated vertices gather only padding,
# and at n = 9 a packed row ends in a byte with seven unused bits; small
# unpacking blocks end on and off the last row. The matrix counts the levels
# before a search meets a vertex: an edgeless graph stops after one level,
# and two paths of different lengths keep counting the short one's pairs
@pytest.mark.parametrize("g", [
    Graph([]),
    Graph([0]),
    Graph(range(9), [(v, v + 1) for v in range(8)]),
    star(5, 13),
    Graph(range(14), [(5, v) for v in range(13) if v != 5]),
    Graph(range(7), [(1, 4), (4, 6)]),
    Graph(range(9), [(2, 7)]),
    Graph(range(5)),
    Graph(range(12), [(v, v + 1) for v in range(7)] + [(8, 9), (9, 10), (10, 11)]),
], ids=["n0", "n1", "path9", "star", "star-isolated", "isolated", "edge9", "edgeless",
        "two-paths"])
def test_distance_kernel_edge_cases_agree_with_networkx(monkeypatch, g):
    order = g._order
    n = len(order)
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    expected = [[lengths[u].get(v, n) for v in order] for u in order]
    for rows in (None, 1, 3):
        if rows is not None:
            monkeypatch.setattr(metrics, "_UNPACK_ROWS", rows)
        D = all_pairs(g)
        assert D.shape == (n, n) and D.dtype == np.min_scalar_type(2 * n)
        assert D.tolist() == expected, rows
        for sub in (np.arange(n), np.arange(0, n, 2), np.arange(1, n, 2), np.arange(0)):
            inner = induced_distances(D, sub)
            assert inner.shape == (len(sub), len(sub))
            assert inner.dtype == np.min_scalar_type(2 * len(sub))
            h = nx_graph(g).subgraph([order[i] for i in sub])
            inner_lengths = dict(nx.all_pairs_shortest_path_length(h))
            assert inner.tolist() == [
                [inner_lengths[order[a]].get(order[b], len(sub)) for b in sub]
                for a in sub
            ], (rows, sub)


@settings(max_examples=40, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=11))
def test_bfs_levels_agree(params, src):
    g = random_graph(*params)
    verts = sorted(g.vertices)
    source = verts[src % len(verts)]
    assert BasedComplex(SquareComplex(g, []), source).levels == bfs_dist(adjacency(g), source)


@settings(max_examples=30, deadline=None)
@given(graph_params)
def test_distance_is_a_metric(params):
    g = random_graph(*params)
    verts = sorted(g.vertices)
    d = {(u, v): distance(g, u, v) for u in verts for v in verts}
    for u in verts:
        assert d[u, u] == 0
        for v in verts:
            assert d[u, v] == d[v, u]
            if u != v:
                assert d[u, v] >= 1
            for w in verts:
                if math.isfinite(d[u, w]) and math.isfinite(d[w, v]):
                    assert d[u, v] <= d[u, w] + d[w, v]


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))))
def test_canonical_cycle_orbit_invariance(perm):
    # the twelve rotations and reflections of a hexagon, as one array
    seq = tuple(perm)
    orbit = [seq[i:] + seq[:i] for i in range(6)]
    orbit += [tuple(reversed(t)) for t in orbit]
    forms = {tuple(row) for row in _canonical_rows(np.array(orbit)).tolist()}
    assert forms == {brute_canonical_cycle(seq)}
    assert forms.pop()[0] == min(seq)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=3, max_value=8).flatmap(lambda k: st.lists(
    st.lists(st.integers(min_value=0, max_value=2 * k), min_size=k, max_size=k, unique=True),
    min_size=1, max_size=20)))
def test_canonical_cycle_matches_oracle(rows):
    # rows of distinct vertices, widths 3 to 8, canonicalised together
    got = _canonical_rows(np.array(rows)).tolist()
    assert [tuple(row) for row in got] == [brute_canonical_cycle(row) for row in rows]


@settings(max_examples=60, deadline=None)
@given(square_params, st.integers(min_value=0, max_value=10**6))
def test_cell_lookups_agree_with_the_cell_sets(params, seed):
    # rotations and reflections of every cell, and random cycles that repeat
    # a vertex, name an unknown id or have the wrong length
    c = relabelled(random_square_complex(*params), lambda v: 2**64 + 9 - v)
    g = c.graph
    t = SimplicialComplex2(g, [x for x in combinations(sorted(g.vertices), 3)
                               if all(g.has_edge(u, w) for u, w in combinations(x, 2))][::2])
    rng = random.Random(seed)
    ids = sorted(g.vertices) + [-1, 2**70]
    cycles = [s[i:] + s[:i] for s in c.squares for i in (0, 2)] + [s[::-1] for s in c.squares]
    cycles += [tuple(rng.choice(ids) for _ in range(rng.randint(2, 5))) for _ in range(200)]
    for cycle in cycles:
        assert c.has_square(cycle) == (brute_canonical_cycle(cycle) in c.squares), cycle
        assert t.has_triangle(cycle) == (tuple(sorted(cycle)) in t.triangles), cycle
    for x in t.triangles:
        assert t.has_triangle(x[::-1]) and t.has_triangle(list(x[1:] + x[:1]))


@settings(max_examples=40, deadline=None)
@given(square_params)
def test_h1_agrees_on_connected_square_complexes(params):
    c = random_square_complex(*params)
    if not brute_is_connected(c.graph):
        return
    assert h1_rank(c) == brute_h1_rank_mod2(c)


@settings(max_examples=40, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=200))
def test_interval_agrees_with_distance_sum(params, pick):
    g = random_graph(*params)
    verts = sorted(g.vertices)
    u = verts[pick % len(verts)]
    v = verts[(pick * 7 + 1) % len(verts)]
    if not math.isfinite(distance(g, u, v)):
        return
    b = BasedComplex(SquareComplex(g, []), u)
    assert interval(b, v) == brute_interval_vertices(g, u, v)


@settings(max_examples=60, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=11))
def test_down_is_the_neighbours_one_level_closer(params, src):
    g = random_graph(*params)
    verts = sorted(g.vertices)
    b = BasedComplex(SquareComplex(g, []), verts[src % len(verts)])
    adj = adjacency(g)
    oracle = bfs_dist(adj, b.basepoint)
    for v in verts:
        if v in oracle:
            want = tuple(x for x in adj[v] if oracle[x] == oracle[v] - 1)
            assert b.down(v) == want, v
        else:
            with pytest.raises(ValueError, match="unreachable"):
                b.down(v)


@settings(max_examples=60, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=11))
def test_interval_distance_is_level_difference(params, src):
    # the identity propa's weight profile relies on
    g = random_graph(*params)
    verts = sorted(g.vertices)
    b = BasedComplex(SquareComplex(g, []), verts[src % len(verts)])
    levels = b.levels
    for v in sorted(levels):
        inside = interval(b, v)
        sub = {w: [x for x in g.neighbors(w) if x in inside] for w in inside}
        inner = bfs_dist(sub, v)
        assert inner == {w: levels[v] - levels[w] for w in inside}, v


# up to three planted K_{2,3}s over a random graph
k23_params = st.tuples(
    st.integers(min_value=5, max_value=10),
    st.sampled_from([0.1, 0.25, 0.4]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)

# ids as given, past 2^64, and in reverse
relabels = st.sampled_from([None, lambda v: 2**70 + 3 * v, lambda v: 100 - v])


@settings(max_examples=60, deadline=None)
@given(square_params, k23_params, relabels, st.integers(min_value=0, max_value=10**6))
def test_interval_store_matches_the_set_walk(square, k23, relabel, seed):
    # row by row against the set walk: every column permuted, as propa stores
    # them, and a random subset with the other vertices at col = -1; a vertex
    # the base does not reach keeps only its own bit
    rng = np.random.default_rng(seed)
    for c in (random_square_complex(*square), random_k23_complex(*k23)):
        if relabel is not None:
            c = relabelled(c, relabel)
        order = c.graph._order
        n = len(order)
        pos = dict(zip(order, range(n)))
        b = BasedComplex(c, order[int(rng.integers(n))])
        keep = rng.random(n) < 0.5
        for col in (rng.permutation(n), np.where(keep, np.cumsum(keep) - 1, -1)):
            width = int((col >= 0).sum())
            bits = b._intervals(col, width)
            assert bits.shape == (n, (width + 7) // 8) and bits.dtype == np.uint8
            rows = np.unpackbits(bits, axis=1)
            assert not rows[:, width:].any()
            for i, v in enumerate(order):
                walk = based_interval(b, v) if v in b.levels else {v}
                want = sorted(col[pos[w]] for w in walk if col[pos[w]] >= 0)
                assert np.flatnonzero(rows[i]).tolist() == want, v


@settings(max_examples=60, deadline=None)
@given(k23_params)
def test_flat_intervals_agree_with_per_interval_search(params):
    c = random_k23_complex(*params)
    for base in sorted(c.graph.vertices):
        b = BasedComplex(c, base)
        for cap in (1, 25):
            want = brute_flat_intervals_text(c, base, cap)
            assert check_flat_intervals(b, cap).to_text() == want, (base, cap)


@settings(max_examples=40, deadline=None)
@given(square_params)
def test_rule_a_agrees(params):
    c = random_square_complex(*params)
    rep = check_replacement_rule_A(c, cap=10**6)
    brute = brute_rule_a_violations(c)
    assert rep.passed == (not brute)
    got = sorted(cert.vertices for cert in rep.counterexamples)
    assert got == brute


@settings(max_examples=40, deadline=None)
@given(square_params)
def test_rule_b_agrees(params):
    c = random_square_complex(*params)
    rep = check_replacement_rule_B(c, cap=10**6)
    brute = brute_rule_b_violations(c)
    assert rep.passed == (not brute)
    got = sorted(cert.vertices for cert in rep.counterexamples)
    assert got == brute


def assert_rule_reports_match(c):
    """Rules A and B report byte for byte what the full scans report."""
    for cap in (0, 2, 25):
        assert check_replacement_rule_A(c, cap).to_text() == brute_rule_a_report(c, cap).to_text()
        assert check_replacement_rule_B(c, cap).to_text() == brute_rule_b_report(c, cap).to_text()


@settings(max_examples=60, deadline=None)
@given(square_params, relabels)
def test_rule_reports_match_full_scans(params, relabel):
    c = random_square_complex(*params)
    assert_rule_reports_match(c if relabel is None else relabelled(c, relabel))


@settings(max_examples=60, deadline=None)
@given(k23_params)
def test_rule_reports_match_full_scans_over_planted_k23s(params):
    assert_rule_reports_match(random_k23_complex(*params))


def test_rule_reports_match_full_scans_on_mutants_and_squarings():
    import sysquad as sq

    assert_rule_reports_match(rule_a_mutant())
    assert_rule_reports_match(rule_b_mutant())
    # the hub moved to the largest index: its corners are the last rows
    assert_rule_reports_match(relabelled(rule_b_mutant(), lambda v: 6 - v))
    assert_rule_reports_match(k23_complex_based().complex)
    k55 = k55_two_thirds()
    assert len(k55.squares) == 65
    assert [check_replacement_rule_A(k55).violations, check_replacement_rule_B(k55).violations] == [84, 132]
    assert_rule_reports_match(k55)
    for degrees, radius in ((6, 3), (7, 3), (frozenset({6, 7, 8}), 3)):
        disk = sq.triangulated_disk(sq.DiskSpec(radius=radius, degrees=degrees, seed=2))
        res = sq.squaring(BasedComplex(disk.complex, disk.center))
        assert_rule_reports_match(res.squared.complex)


@settings(max_examples=60, deadline=None)
@given(square_params, k23_params, relabels)
def test_link_triples_match_the_wing_scan(square, k23, relabel):
    for c in (random_square_complex(*square), random_k23_complex(*k23)):
        if relabel is not None:
            c = relabelled(c, relabel)
        rows, triples = brute_link_triples(c)
        assert c._corners.tolist() == [list(row) for row in rows]
        assert _link_triples(c).tolist() == [list(t) for t in triples]


@pytest.mark.parametrize("budget", [1, 7, None])
def test_link_triples_take_one_of_each_run_of_parallel_squares(monkeypatch, budget):
    # K_{5,5} gives up to four squares on one pair of wings; blocks of one
    # edge upwards split the square-link triangles at every boundary
    if budget is not None:
        monkeypatch.setattr(systolic, "_BLOCK_ENTRIES", budget)
    c = k55_two_thirds()
    rows, triples = brute_link_triples(c)
    assert max(sum(r[:3] == s[:3] for s in rows) for r in rows) == 4
    got = _link_triples(c).tolist()
    assert got == [list(t) for t in triples] and len(got) > 1000


def test_rule_oracles_agree_on_the_mutants():
    a = rule_a_mutant()
    rep = check_replacement_rule_A(a)
    assert sorted(c.vertices for c in rep.counterexamples) == brute_rule_a_violations(a)
    bmut = rule_b_mutant()
    rep = check_replacement_rule_B(bmut)
    assert sorted(c.vertices for c in rep.counterexamples) == brute_rule_b_violations(bmut)
    k = k23_complex_based().complex
    assert check_replacement_rule_A(k).passed == (not brute_rule_a_violations(k))


@settings(max_examples=25, deadline=None)
@given(graph_params)
def test_ball_isometry_agrees(params):
    g = random_graph(*params)
    c = SquareComplex(g, [])
    rep = check_ball_isometry(c, cap=10**6)
    brute = set(brute_ball_isometry_violations(g))
    assert rep.passed == (not brute)
    for cert in rep.counterexamples:
        u, x, y = cert.vertices
        r = int(re.match(r"r=(\d+)", cert.info).group(1))
        assert (u, r, x, y) in brute or (u, r, y, x) in brute, cert


@settings(max_examples=30, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=200))
def test_interval_isometry_agrees(params, pick):
    g = random_graph(*params)
    verts = sorted(g.vertices)
    u = verts[pick % len(verts)]
    v = verts[(pick * 3 + 2) % len(verts)]
    if not math.isfinite(distance(g, u, v)):
        return
    c = SquareComplex(g, [])
    rep = check_interval_isometry(c, pairs=[(u, v)])
    assert rep.passed == brute_interval_isometry_ok(g, u, v)


# two bipartite draws per general one; sparse draws leave graphs disconnected
modular_params = st.tuples(
    st.sampled_from([random_bipartite_graph, random_bipartite_graph, random_graph]),
    st.integers(min_value=1, max_value=11),
    st.sampled_from([0.15, 0.3, 0.5, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=120, deadline=None)
@given(modular_params)
def test_modularity_certificate_is_sound_and_exact(params):
    make, *args = params
    g = make(*args)
    passed = is_modular(g, all_pairs(g))
    assert passed == brute_is_modular(g)
    if passed:
        assert brute_ball_isometry_violations(g) == []
        verts = sorted(g.vertices)
        for i, u in enumerate(verts):
            for v in verts[i:]:
                if math.isfinite(distance(g, u, v)):
                    assert brute_interval_isometry_ok(g, u, v), (u, v)
