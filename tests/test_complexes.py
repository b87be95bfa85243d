"""Core graph and complex machinery against hand examples and oracles."""

import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sysquad import complexes
from sysquad import (
    BasedComplex,
    DiskSpec,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    distance,
    enumerate_embedded_4cycles,
    squaring,
    triangulated_disk,
    verify_systolic,
)
from sysquad.complexes import CellError, _canonical_rows, _levels

from bruteforce import (
    bfs_dist,
    adjacency,
    brute_based_complex,
    brute_canonical_cycle,
    brute_cell_store,
    brute_common_neighbours,
    brute_graph,
    brute_girth,
    brute_h1_rank_mod2,
    brute_is_connected,
    brute_k23,
    cycle_edges,
    find_K23,
    four_cycles_by_subsets,
    girth,
    link,
    random_graph,
)
from conftest import h1_rank, k23_graph


def cycle_graph(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------- graph basics


def test_graph_rejects_loops():
    with pytest.raises(ValueError, match="loop edge"):
        Graph([0, 1], [(0, 0)])


def test_graph_rejects_undeclared_endpoint():
    with pytest.raises(ValueError, match="undeclared endpoint"):
        Graph([0, 1], [(0, 2)])


def test_graph_dedupes_edges():
    g = Graph(range(2), [(0, 1), (1, 0)])
    assert len(g.edges) == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_neighbors_sorted_and_set_agree():
    g = k23_graph()
    assert list(g.neighbors(0)) == [2, 3, 4]
    assert frozenset(g.neighbors(0)) == {2, 3, 4}


def test_unknown_vertex_errors():
    g = path_graph(3)
    with pytest.raises(ValueError, match="unknown vertex"):
        g.neighbors(7)
    with pytest.raises(ValueError, match="unknown vertex"):
        distance(g, 0, 7)
    # ids that are no vertex, hashable or not, one id map for every lookup
    for v in (7, -1, 1.5, "a", (0,), [1]):
        assert not g.has_vertex(v)
        assert not g.has_edge(v, 1) and not g.has_edge(1, v)
        for u, w in ((v, 0), (0, v)):
            with pytest.raises(ValueError, match=f"^unknown vertex {re.escape(str(v))}$"):
                distance(g, u, w)
        with pytest.raises(ValueError, match="is not a vertex"):
            BasedComplex(SquareComplex(g, []), v)
    assert g.has_vertex(1.0) and g.has_edge(0, True)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.sampled_from([0.0, 0.1, 0.25, 0.5]),
       st.integers(min_value=0, max_value=10**6))
def test_components_give_each_vertex_its_root_and_depth(n, p, seed):
    # the root is the least vertex of the component, the depth its BFS distance
    g = random_graph(n, p, seed)
    root, depth = g._components
    adj = adjacency(g)
    for i, v in enumerate(g._order):
        reach = bfs_dist(adj, v)
        r = min(reach)
        assert g._order[root[i]] == r and depth[i] == bfs_dist(adj, r)[v], v


def test_components_scan_the_whole_graph_a_fixed_number_of_times(monkeypatch):
    # 3,000 indices in 2,610 components: isolated ones, a matching of 300
    # edges and ten paths of ten; a search or scan per component over all n
    # entries would make thousands of whole-array calls
    n = 3000
    edges = [(2 * k, 2 * k + 1) for k in range(300)]
    edges += [(v, v + 1) for v in range(1000, 1100) if v % 10]
    g = Graph(range(n), edges)
    whole = []

    class CountingNumpy:
        """numpy, noting each call with an array argument or result of n entries or more."""

        def __getattr__(self, name):
            f = getattr(np, name)
            if not callable(f) or isinstance(f, type):
                return f

            def call(*args, **kwargs):
                out = f(*args, **kwargs)
                if any(isinstance(a, np.ndarray) and a.size >= n for a in (*args, out)):
                    whole.append(name)
                return out
            return call

    monkeypatch.setattr(complexes, "np", CountingNumpy())
    root, depth = g._components
    assert len(whole) <= 6, whole
    assert len(set(root.tolist())) == n - 300 - 90
    # the ten paths are 1001-1010, 1011-1020, ..., 1091-1100
    assert root[1010] == 1001 and depth[1010] == depth.max() == 9


def assert_components_match_bfs(g):
    """Each vertex's root is the least vertex it reaches, its depth the BFS distance from there."""
    root, depth = g._components
    adj = adjacency(g)
    for i, v in enumerate(g._order):
        r = min(bfs_dist(adj, v))
        assert g._order[root[i]] == r and depth[i] == bfs_dist(adj, r)[v], v


@st.composite
def forests_and_unions(draw):
    """A random forest, or a union of random graphs, on shuffled vertices.

    A forest vertex joins an earlier one or starts a tree; a union puts
    random graphs of 1 to 8 vertices side by side. The shuffle puts the
    least vertex of a component anywhere in it.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 60))
        start = draw(st.sampled_from([0.05, 0.2, 0.5]))
        edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() > start]
    else:
        n, edges = 0, []
        for _ in range(draw(st.integers(1, 8))):
            part = random_graph(draw(st.integers(1, 8)), draw(st.sampled_from([0.2, 0.5, 0.9])),
                                rng.randrange(10**6))
            edges += [(n + a, n + b) for a, b in part.edges]
            n += len(part.vertices)
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph(range(n), [(ids[a], ids[b]) for a, b in edges])


@settings(max_examples=100, deadline=None)
@given(forests_and_unions())
def test_components_match_bfs_on_forests_and_unions(g):
    assert_components_match_bfs(g)


def test_components_of_many_edges_take_a_bounded_number_of_passes(monkeypatch):
    # 8,000 disjoint edges on 32,000 vertices: one search from index 0, then
    # a fixed number of array passes over the indices it leaves and one
    # search from all their roots at once, not a search per component
    g = Graph(range(32000), [(4 * k + 1, 4 * k + 3) for k in range(8000)])
    calls, searches = [], []

    class CountingNumpy:
        """numpy, noting each call."""

        def __getattr__(self, name):
            f = getattr(np, name)
            if not callable(f) or isinstance(f, type):
                return f
            return lambda *args, **kwargs: (calls.append(name), f(*args, **kwargs))[1]

    search = complexes._search
    monkeypatch.setattr(complexes, "_search", lambda g, s, lev, slot: (
        searches.append(np.size(s)), search(g, s, lev, slot))[1])
    monkeypatch.setattr(complexes, "np", CountingNumpy())
    root, depth = g._components
    assert searches == [1, 7999]
    assert len(calls) <= 80, len(calls)
    assert root[3] == 1 and depth[3] == 1 and root[31999] == 31997 and depth[31999] == 1
    assert root[0] == 0 and depth[0] == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([None, lambda v: 2**70 + 3 * v, lambda v: 2**64 + 100 - v]))
@example(0, 0.5, 0, None)  # empty
@example(7, 0.0, 0, lambda v: 2**64 + 100 - v)  # edgeless
@example(12, 0.1, 3, lambda v: 2**70 + 3 * v)  # disconnected
def test_common_neighbour_view_matches_the_pair_scan(n, p, seed, relabel):
    # ids past 2^64, increasing or reversed, must keep index order as id order
    g = random_graph(n, p, seed)
    if relabel is not None:
        g = Graph(map(relabel, g.vertices), [(relabel(u), relabel(w)) for u, w in g.edges])
    order = g._order
    v, w, ptr, common = g._common_neighbours
    got = [(order[a], order[b], tuple(order[c] for c in common[lo:hi].tolist()))
           for a, b, lo, hi in zip(v.tolist(), w.tolist(), ptr[:-1].tolist(), ptr[1:].tolist())]
    assert got == brute_common_neighbours(g)
    # one entry per pair of neighbours of each vertex
    degree = np.diff(g._ptr)
    assert len(common) == int((degree * (degree - 1) // 2).sum()) and ptr[0] == 0


def test_is_connected():
    # a complex is connected when one level search reaches every index
    for g, connected in ((path_graph(4), True), (Graph(range(3), [(0, 1)]), False)):
        assert bool((_levels(g, 0) >= 0).all()) == brute_is_connected(g) == connected


# --------------------------------------------------------------- canonical_cycle


def canonical(*cycles):
    """``_canonical_rows`` of the cycles, as tuples."""
    return [tuple(row) for row in _canonical_rows(np.array(cycles)).tolist()]


def test_canonical_cycle_starts_at_min():
    assert canonical((3, 0, 2, 1)) == [(0, 2, 1, 3)] == [brute_canonical_cycle((3, 0, 2, 1))]


def test_canonical_cycle_rotation_and_reflection_invariant():
    base = (0, 2, 1, 3)
    seqs = [base[i:] + base[:i] for i in range(4)]
    seqs += [tuple(reversed(s)) for s in seqs]
    assert canonical(*seqs) == [base] * 8 == [brute_canonical_cycle(s) for s in seqs]


def test_canonical_cycle_hexagon():
    hx = (5, 4, 3, 2, 1, 0)
    assert canonical(hx) == [(0, 1, 2, 3, 4, 5)] == [brute_canonical_cycle(hx)]


# -------------------------------------------------------------------- distances


def test_distance_examples():
    g = path_graph(5)
    assert distance(g, 0, 4) == 4
    assert distance(g, 2, 2) == 0
    assert distance(cycle_graph(6), 0, 3) == 3


def test_distance_disconnected_is_inf():
    g = Graph(range(3), [(0, 1)])
    assert distance(g, 0, 2) == math.inf


def test_bfs_levels_match_oracle():
    g = random_graph(14, 0.3, seed=5)
    levels = BasedComplex(SquareComplex(g, []), 0).levels
    oracle = bfs_dist(adjacency(g), 0)
    assert levels == oracle


def test_bfs_levels_cover_only_reachable():
    g = Graph(range(4), [(0, 1), (2, 3)])
    levels = BasedComplex(SquareComplex(g, []), 0).levels
    assert set(levels) == {0, 1}


def test_disk_levels_equal_layer_index(small_disk):
    c = small_disk.complex
    for r, layer in enumerate(small_disk.layers):
        for v in layer:
            assert distance(c, small_disk.center, v) == r


# ------------------------------------------------------------------------ links


def test_link_of_interior_vertex_is_cycle(small_disk):
    lk = link(small_disk.complex, small_disk.center)
    assert len(lk.vertices) == 6
    assert girth(lk) == 6


def test_link_single_triangle():
    c = SimplicialComplex2(
        Graph(range(3), [(0, 1), (0, 2), (1, 2)]), [(0, 1, 2)]
    )
    lk = link(c, 0)
    assert lk.vertices == frozenset({1, 2})
    assert lk.has_edge(1, 2)


def test_link_without_triangles_has_no_edges():
    c = SimplicialComplex2(cycle_graph(5), [])
    lk = link(c, 0)
    assert lk.vertices == frozenset({1, 4})
    assert not lk.edges


# ------------------------------------------------------------------------ girth


def test_girth_examples():
    assert girth(cycle_graph(6)) == 6
    assert girth(cycle_graph(3)) == 3
    assert girth(path_graph(4)) == math.inf
    assert girth(Graph([0], [])) == math.inf
    assert girth(k23_graph()) == 4


def test_girth_matches_oracle_on_random_graphs():
    for seed in range(12):
        g = random_graph(10, 0.35, seed=seed)
        assert girth(g) == brute_girth(g), f"seed={seed}"


# --------------------------------------------------------------------- 4-cycles


def test_four_cycles_c4_c6_k23():
    assert len(enumerate_embedded_4cycles(cycle_graph(4))) == 1
    assert enumerate_embedded_4cycles(cycle_graph(6)) == []
    assert len(enumerate_embedded_4cycles(k23_graph())) == 3


def test_four_cycles_are_canonical_sorted_and_distinct():
    cycles = enumerate_embedded_4cycles(k23_graph())
    assert cycles == sorted(cycles)
    assert all(c == brute_canonical_cycle(c) for c in cycles)
    assert len(set(cycles)) == len(cycles)


def test_four_cycles_match_subset_oracle():
    for seed in range(15):
        g = random_graph(11, 0.35, seed=seed)
        got = {cycle_edges(c) for c in enumerate_embedded_4cycles(g)}
        assert got == four_cycles_by_subsets(g), f"seed={seed}"


# ------------------------------------------------------------------------- K23


def test_k23_on_k23():
    found = find_K23(k23_graph())
    assert found == [((0, 1), (2, 3, 4))]


def test_k23_absent_in_square():
    assert find_K23(cycle_graph(4)) == []


def test_k23_matches_oracle():
    for seed in range(15):
        g = random_graph(10, 0.4, seed=seed)
        assert find_K23(g) == brute_k23(g), f"seed={seed}"


# ----------------------------------------------------------------- cell checks


def test_triangle_needs_all_edges():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=re.escape("triangle (0, 1, 2) misses edge (0, 2)")):
        SimplicialComplex2(g, [(0, 1, 2)])


def test_triangle_needs_distinct_vertices():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="distinct"):
        SimplicialComplex2(g, [(0, 1, 1)])


def test_square_needs_distinct_vertices():
    with pytest.raises(ValueError, match="distinct"):
        SquareComplex(cycle_graph(4), [(0, 1, 0, 3)])


def test_square_needs_boundary_edges():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=re.escape("square (0, 1, 2, 3) misses edge (0, 3)")):
        SquareComplex(g, [(0, 1, 2, 3)])


def test_cell_error_names_the_cell_and_its_index():
    # a triangle names its sorted vertices and least missing edge, a square
    # its given order and the first missing edge along it
    g = Graph(range(4), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(CellError) as ei:
        SimplicialComplex2(g, [(2, 1, 0), (3, 1, 0)])
    assert (ei.value.index, str(ei.value)) == (1, "triangle (0, 1, 3) misses edge (0, 3)")
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    with pytest.raises(CellError) as ei:
        SquareComplex(g, [(3, 2, 1, 0), (5, 4, 1, 0)])
    assert (ei.value.index, str(ei.value)) == (1, "square (5, 4, 1, 0) misses edge (1, 4)")


@st.composite
def graph_and_cells(draw):
    """Vertices among 0..7, edges and cells among 0..8: loops, undeclared
    endpoints, repeated edges, cells of the wrong length, repeated vertices
    and cells, missing boundary edges and cells naming unknown vertices all
    occur, and so do stores that build, isolated vertices and several
    components. Half the cases move every id v to 2**64 + 7 v, which keeps
    the order and the gaps; the basepoint may be no vertex."""
    verts = draw(st.sets(st.integers(0, 7), min_size=4))
    pool = sorted(verts)
    some = st.sampled_from(pool)
    endpoint = st.one_of(some, some, st.integers(0, 8))
    complete = [(u, w) for u in pool for w in pool if u < w]
    edges = draw(st.one_of(
        st.lists(st.tuples(endpoint, endpoint), max_size=24),
        # all but k edges among the vertices, two of them given twice reversed,
        # so most cells are glued
        st.tuples(st.permutations(complete), st.integers(0, 3)).map(
            lambda t: t[0][t[1]:] + [(w, u) for u, w in t[0][t[1]:t[1] + 2]]),
    ))
    length = draw(st.sampled_from([3, 4]))
    distinct = st.permutations(pool).map(lambda p: p[:length])
    cell = st.one_of(
        distinct,
        st.lists(some, min_size=length, max_size=length),
        st.lists(endpoint, min_size=2, max_size=5),
    )
    cells = draw(st.one_of(
        st.lists(distinct, min_size=1, max_size=10), st.lists(cell, max_size=10)))
    base = draw(endpoint)
    if draw(st.booleans()):
        verts = {2**64 + 7 * v for v in verts}
        edges, cells = ([tuple(2**64 + 7 * v for v in row) for row in rows]
                        for rows in (edges, cells))
        base = 2**64 + 7 * base
    return verts, edges, length, cells, base


@settings(max_examples=300, deadline=None)
@given(graph_and_cells())
def test_constructors_match_their_loop_oracles(case):
    verts, edges, length, cells, base = case
    try:
        adj, want_edges = brute_graph(verts, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            Graph(verts, edges)
        assert str(ei.value) == str(exc)
        return
    g = Graph(verts, iter(edges))
    assert g.vertices == frozenset(verts)
    assert g.edges == want_edges
    assert {v: g.neighbors(v) for v in verts} == adj
    assert all(frozenset(g.neighbors(v)) == set(adj[v]) for v in verts)

    cls, noun, at, cells_of = (
        (SimplicialComplex2, "triangle", "triangles_at", "triangles") if length == 3
        else (SquareComplex, "square", "squares_at", "squares"))
    try:
        want_cells, want_at = brute_cell_store(g, cells, length, noun)
    except CellError as exc:
        with pytest.raises(CellError) as ei:
            cls(g, iter(cells))
        assert (ei.value.index, str(ei.value)) == (exc.index, str(exc))
        return
    c = cls(g, iter(cells))
    assert getattr(c, cells_of) == want_cells
    assert {v: getattr(c, at)(v) for v in verts} == {v: want_at.get(v, ()) for v in verts}

    try:
        want_levels, want_down = brute_based_complex(adj, base)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            BasedComplex(c, base)
        assert str(ei.value) == str(exc)
        return
    b = BasedComplex(c, base)
    assert b.levels == want_levels
    assert b.unreached == tuple(sorted(set(verts) - want_levels.keys()))
    for v in sorted(verts):
        if v in want_down:
            assert b.down(v) == want_down[v]
        else:
            with pytest.raises(ValueError, match="unreachable from the basepoint"):
                b.down(v)


def read_views(b):
    """Every id view of a based square complex, read vertex by vertex."""
    c, g = b.complex, b.graph
    order = sorted(g.vertices)
    return (g.vertices, g.edges, [g.neighbors(v) for v in order], c.squares,
            [c.squares_at(v) for v in order], b.levels, [b.down(v) for v in order],
            [g.has_edge(u, w) for u, w in zip(order, order[1:])])


def test_lazy_views_are_built_whole_under_threads():
    # more threads than cores, switching often: each reader sees whole views
    # equal to a single-threaded read, however the first builds interleave
    spec = DiskSpec(radius=4, degrees=frozenset({6, 7}), seed=3)
    disk = triangulated_disk(spec)
    want = read_views(squaring(BasedComplex(disk.complex, disk.center)).squared)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            b = squaring(BasedComplex(disk.complex, disk.center)).squared
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(read_views, b) for _ in range(8)]
                assert all(f.result(timeout=60) == want for f in futures)
    finally:
        sys.setswitchinterval(old)


def test_triangle_and_square_complexes_differ():
    g = cycle_graph(4)
    assert SimplicialComplex2(g, []) != SquareComplex(g, [])
    assert SquareComplex(g, []) != SimplicialComplex2(g, [])
    assert SquareComplex(g, []) == SquareComplex(g, [])


@pytest.mark.parametrize("ptr, fill, want", [
    ([0], 9, []),  # an empty CSR
    ([0], [], []),
    ([0, 0], 9, [[9]]),  # one zero-length row
    ([0, 0, 0], [4, 5], [[4], [5]]),
    ([0, 2, 2, 3], 9, [[1, 2], [9, 9], [3, 9]]),
    ([0, 2, 2, 3], [4, 5, 6], [[1, 2], [5, 5], [3, 6]]),
    ([0, 1, 2], 9, [[1], [2]]),  # no padding needed
])
def test_padded_rows(ptr, fill, want):
    ptr = np.array(ptr)
    table = complexes._padded(ptr, np.arange(1, ptr[-1] + 1), np.array(fill))
    assert table.shape == (len(ptr) - 1, max(1, max(np.diff(ptr), default=0)))
    assert table.tolist() == want


def test_cells_at_are_sorted():
    # the wheel with hub 0 and rim 1..5: every triangle and 4-cycle meets the hub
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    g = Graph(range(6), [(0, i) for i in range(1, 6)] + rim)
    tris = [(0, b, a) for a, b in reversed(rim)]
    c = SimplicialComplex2(g, tris)
    assert c.triangles_at(0) == tuple(sorted(tuple(sorted(t)) for t in tris))
    assert c.triangles_at(1) == ((0, 1, 2), (0, 1, 5))
    sqs = [(1, 2, 3, 0), (5, 4, 3, 0), (2, 3, 4, 0), (1, 0, 4, 5)]
    sc = SquareComplex(g, sqs)
    assert sc.squares_at(0) == ((0, 1, 2, 3), (0, 1, 5, 4), (0, 2, 3, 4), (0, 3, 4, 5))
    assert sc.squares_at(3) == ((0, 1, 2, 3), (0, 2, 3, 4), (0, 3, 4, 5))
    assert sc.squares_at(5) == ((0, 1, 5, 4), (0, 3, 4, 5))


def test_square_complex_lookup():
    c = SquareComplex(cycle_graph(4), [(0, 1, 2, 3)])
    assert c.has_square((1, 2, 3, 0))
    assert c.has_square((0, 3, 2, 1))
    assert not c.has_square((0, 2, 1, 3))
    assert c.squares_at(2) == ((0, 1, 2, 3),)
    # a wrong length, a repeated vertex, an unknown or unhashable id name no square
    for cycle in ((0, 1, 2), (0, 1, 2, 3, 0), (0, 1, 0, 3), (0, 1, 2, 7), (0, 1, 2, [3])):
        assert not c.has_square(cycle), cycle
    t = SimplicialComplex2(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), [(0, 1, 2)])
    assert t.has_triangle((2, 0, 1)) and t.has_triangle([1, 2, 0])
    for tri in ((0, 1), (0, 1, 2, 0), (0, 1, 1), (0, 1, None), (0, 1, [2])):
        assert not t.has_triangle(tri), tri


# ------------------------------------------------------------------- homology


def test_h1_rank_examples():
    filled = SquareComplex(cycle_graph(4), [(0, 1, 2, 3)])
    empty = SquareComplex(cycle_graph(4), [])
    assert h1_rank(filled) == 0
    assert h1_rank(empty) == 1

    tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    assert h1_rank(SimplicialComplex2(tri, [(0, 1, 2)])) == 0
    assert h1_rank(SimplicialComplex2(tri, [])) == 1


@pytest.mark.parametrize("cls", [SimplicialComplex2, SquareComplex])
def test_h1_rank_of_empty_complex_is_zero(cls):
    c = cls(Graph([]), [])
    assert h1_rank(c) == 0
    assert brute_h1_rank_mod2(c) == 0


def test_h1_rank_tree_is_zero():
    c = SimplicialComplex2(path_graph(6), [])
    assert h1_rank(c) == 0


def test_h1_rank_two_independent_cycles():
    # two 4-cycles sharing one vertex, nothing filled
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    c = SquareComplex(Graph(range(7), edges), [])
    assert h1_rank(c) == 2


def test_h1_requires_connected():
    # the rank is taken on connected input only: a disconnected complex
    # gets certificates and no rank
    c = SimplicialComplex2(Graph(range(4), [(0, 1), (2, 3)]), [])
    rep = verify_systolic(c)
    assert [x.kind for x in rep.counterexamples] == ["disconnected", "disconnected"]
    assert "h1_rank_mod2" not in rep.stats


def test_h1_of_disk_is_zero(small_disk):
    assert h1_rank(small_disk.complex) == 0


def triangulated(triangles):
    """The simplicial complex spanned by the given triangles."""
    edges = {(min(a, b), max(a, b)) for t in triangles for a, b in zip(t, t[1:] + t[:1])}
    return SimplicialComplex2(Graph({v for t in triangles for v in t}, edges), triangles)


def dunce_hat():
    """A disk whose boundary, three arcs of three edges each, is glued by
    the word x x x^-1 onto one arc P q1 q2 P, with a ring of nine vertices
    and a center inside: every edge lies in two or three triangles."""
    p, q1, q2 = 0, 1, 2
    rim = [p, q1, q2, p, q1, q2, p, q2, q1]  # the boundary, corners at 0, 3, 6
    ring = list(range(3, 12))
    tris = []
    for i in range(9):
        j = (i + 1) % 9
        tris += [(rim[i], rim[j], ring[i]), (rim[j], ring[i], ring[j]), (ring[i], ring[j], 12)]
    return triangulated(tris)


def free_edges(c):
    """Edges of c that lie in exactly one cell."""
    count = {}
    for cell in getattr(c, "triangles", None) or c.squares:
        for a, b in zip(cell, cell[1:] + cell[:1]):
            e = (min(a, b), max(a, b))
            count[e] = count.get(e, 0) + 1
    return [e for e, k in count.items() if k == 1]


PEEL_CASES = {
    # name: (complex, h1, whether some edge is free)
    "annulus": (triangulated([(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]), 1, True),
    "moebius": (triangulated([(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]), 1, True),
    "torus": (triangulated([t for i in range(7) for t in (
        (i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))]), 2, False),
    "octahedron": (triangulated([(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]), 0, False),
    "dunce-hat": (dunce_hat(), 0, False),
    "theta": (SquareComplex(k23_graph(), [(0, 2, 1, 3), (0, 3, 1, 4), (0, 2, 1, 4)]), 0, False),
    "fan": (triangulated([(0, v, v + 1) for v in range(1, 30)]), 0, True),
}


@pytest.mark.parametrize("name", PEEL_CASES)
def test_h1_peels_to_the_oracle_rank(name):
    c, h1, free = PEEL_CASES[name]
    assert bool(free_edges(c)) == free
    assert h1_rank(c) == brute_h1_rank_mod2(c) == h1


def test_h1_matches_oracle_on_triangulations():
    # random graphs with every triangle filled, connected samples only
    filled = 0
    for seed in range(30):
        g = random_graph(9, 0.35, seed=100 + seed)
        if not brute_is_connected(g):
            continue
        adj = {v: frozenset(g.neighbors(v)) for v in g.vertices}
        tris = [
            (a, b, c)
            for a in sorted(g.vertices)
            for b in sorted(adj[a])
            if b > a
            for c in sorted(adj[a] & adj[b])
            if c > b
        ]
        c = SimplicialComplex2(g, tris)
        assert h1_rank(c) == brute_h1_rank_mod2(c), f"seed={seed}"
        filled += 1
    assert filled >= 10
