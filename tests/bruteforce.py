"""Slow reference implementations, independent of the library internals.

Everything here recomputes from plain adjacency dicts with its own BFS, so
agreement with the optimized code is meaningful. Costs range from quadratic
to exponential; callers keep instances small.
"""

from collections import deque
from itertools import chain, combinations

import numpy as np

INF = float("inf")


def adjacency(g):
    """Plain dict-of-lists adjacency from a library Graph."""
    return {v: sorted(g.neighbors(v)) for v in g.vertices}


def brute_is_connected(g):
    """Whether one BFS from the least vertex reaches every vertex."""
    adj = adjacency(g)
    return not adj or len(bfs_dist(adj, min(adj))) == len(adj)


def bfs_dist(adj, source):
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def dist_between(adj, u, v):
    return bfs_dist(adj, u).get(v, INF)


def cycle_edges(seq):
    """The edge set of a cyclic vertex sequence."""
    k = len(seq)
    return frozenset(
        (min(seq[i], seq[(i + 1) % k]), max(seq[i], seq[(i + 1) % k]))
        for i in range(k)
    )


def four_cycles_by_subsets(g):
    """Embedded 4-cycles as boundary edge sets, from all 4-vertex subsets."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    out = set()
    for a, b, c, d in combinations(sorted(g.vertices), 4):
        # three distinct cyclic arrangements of four labels
        for seq in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if all(seq[(i + 1) % 4] in adj[seq[i]] for i in range(4)):
                out.add(cycle_edges(seq))
    return out


def count_4cycles_trace(g):
    """Number of embedded 4-cycles via the closed-walk count of length 4."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    a = np.zeros((n, n), dtype=np.int64)
    for u, w in g.edges:
        a[idx[u], idx[w]] = 1
        a[idx[w], idx[u]] = 1
    walks = int(np.trace(np.linalg.matrix_power(a, 4)))
    m = len(g.edges)
    degsq = sum(int(d) * (int(d) - 1) for d in a.sum(axis=0))
    return (walks - 2 * m - 2 * degsq) // 8


def brute_girth(g):
    """Shortest cycle through each edge, with that edge removed."""
    adj = adjacency(g)
    best = INF
    for u, v in sorted(g.edges):
        adj[u].remove(v)
        adj[v].remove(u)
        d = dist_between(adj, u, v)
        if d + 1 < best:
            best = d + 1
        adj[u].append(v)
        adj[v].append(u)
    return best


def brute_k23(g):
    """All (pair, triple) K_{2,3} occurrences by direct subset search."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    verts = sorted(g.vertices)
    found = []
    for u0, u1 in combinations(verts, 2):
        rest = [w for w in verts if w != u0 and w != u1]
        for triple in combinations(rest, 3):
            if all(m in adj[u0] and m in adj[u1] for m in triple):
                found.append(((u0, u1), triple))
    return sorted(found)


def brute_interval_vertices(g, u, v):
    """{w : d(u,w) + d(w,v) = d(u,v)} with plain BFS."""
    adj = adjacency(g)
    du = bfs_dist(adj, u)
    dv = bfs_dist(adj, v)
    if v not in du:
        raise ValueError("disconnected pair")
    total = du[v]
    return {w for w in du if w in dv and du[w] + dv[w] == total}


def based_interval(b, v):
    """Vertices of the interval from the basepoint of ``b`` to v, as a set walk.

    A geodesic from v to the basepoint drops one level per step, so the
    interval is exactly the set reachable from v along ``b.down``. Raises
    ``b.down``'s ``ValueError`` when the basepoint does not reach v.
    """
    verts = set()
    frontier = {v}
    while frontier:  # one level per round, so the rounds are disjoint
        verts |= frontier
        frontier = {x for w in frontier for x in b.down(w)}
    return frozenset(verts)


def brute_weight_map(g, base, v, n):
    """Weight values around v, everything recomputed from scratch.

    Interval membership by distance sums, downward degree by level
    counting, distances to v inside the interval subgraph.
    """
    adj = adjacency(g)
    dbase = bfs_dist(adj, base)
    zv = brute_interval_vertices(g, base, v)
    sub = {w: [x for x in adj[w] if x in zv] for w in zv}
    dv_in = bfs_dist(sub, v)
    out = {}
    for w in zv:
        rho = sum(1 for x in sub[w] if dbase[x] == dbase[w] - 1)
        if rho > 2:
            raise ValueError(f"downward degree {rho} at {w}")
        delta = 2 - rho
        d = dv_in[w]
        if d > n:
            val = 0
        elif delta == 0:
            val = 1
        elif delta == 1:
            val = n - d + 1
        else:
            val = (n - d + 2) * (n - d + 1) // 2
        if val:
            out[w] = val
    return out


def brute_weight_norm(g, base, v, n):
    return sum(brute_weight_map(g, base, v, n).values())


def brute_weight_diff(g, base, v, w, n):
    fv = brute_weight_map(g, base, v, n)
    fw = brute_weight_map(g, base, w, n)
    keys = set(fv) | set(fw)
    return sum(abs(fv.get(k, 0) - fw.get(k, 0)) for k in keys)


def brute_profile(b, v, table):
    """Weights of center v on its basepoint interval for every n the table covers.

    Returns (ids, W): ids the sorted interval vertices as an int64 array,
    W[n, j] = f_{n,v}(ids[j]) by the table, with d measured inside the
    interval. That distance is d = levels[v] - levels[w], in any graph: the
    descending path from v to w lies in the interval and has that length,
    and the in-interval distance is at least the ambient one, which is at
    least the level difference. So the support sits inside the ambient
    radius-n ball around v.

    The deficiency of w is 2 - len(b.down(w)). Every neighbour one level
    closer to the base lies on a geodesic to the basepoint, so it belongs
    to any basepoint interval through w: the downward degree is the same
    in the whole complex and in the interval. The caller has checked that
    it is at most 2.
    """
    levels = b.levels
    ids = np.array(sorted(based_interval(b, v)), dtype=np.int64)
    d = np.array([levels[v] - levels[w] for w in ids], dtype=np.int64)
    dl = np.array([2 - len(b.down(w)) for w in ids], dtype=np.int64)
    mm = np.arange(table.shape[1])[:, None] - d[None, :]
    return ids, np.where(mm >= 0, table[dl[None, :], np.maximum(mm, 0)], 0)


def brute_property_a_report(b, n_max, cap):
    """``property_a_report`` from one ``brute_profile`` per vertex.

    The l1 difference across an edge is the two masses minus twice the sum
    of minima over the common support, found by one ``np.intersect1d`` per
    edge. Violations are scanned in the same row-major order as the report.
    """
    from fractions import Fraction

    from sysquad.propa import PropertyAReport, PropertyARow, _weight_table
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("property-a", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return PropertyAReport(rows=(), check=rb.build())
    g = b.graph
    verts = sorted(g.vertices)
    for w in verts:
        r = len(b.down(w))
        if r > 2:
            rb.violation("non-flat", (w,), f"downward-degree={r}")
    if rb.violations:
        return PropertyAReport(rows=(), check=rb.build())
    table = _weight_table(n_max)
    index = {v: i for i, v in enumerate(verts)}
    profiles = [brute_profile(b, v, table) for v in verts]
    rb.set_stat("vertices", len(verts))
    rb.set_stat("edges", len(g.edges))
    rb.set_stat("n_max", n_max)
    ns = np.arange(n_max + 1)
    sums = np.stack([w.sum(axis=1) for _, w in profiles])
    max_norm = sums.max(axis=0)
    want_norm = (ns + 2) * (ns + 1) // 2
    for i, n in zip(*np.nonzero(sums != want_norm)):
        rb.violation("weight-norm", (verts[i],), f"n={n} sum={sums[i, n]} expected={want_norm[n]}")
    edges = sorted(g.edges)
    diffs = np.zeros((len(edges), n_max + 1), dtype=np.int64)
    for k, (u, v) in enumerate(edges):
        i, j = index[u], index[v]
        (ids_u, w_u), (ids_v, w_v) = profiles[i], profiles[j]
        _, pu, pv = np.intersect1d(ids_u, ids_v, assume_unique=True, return_indices=True)
        diffs[k] = sums[i] + sums[j] - 2 * np.minimum(w_u[:, pu], w_v[:, pv]).sum(axis=1)
    max_diff = diffs.max(axis=0, initial=0)
    want_diff = 2 * (ns + 1)
    for k, n in zip(*np.nonzero(diffs != want_diff)):
        rb.violation("weight-difference", edges[k],
                     f"n={n} diff={diffs[k, n]} expected={want_diff[n]}")
    rows = []
    for n in range(n_max + 1):
        ratio = Fraction(int(max_diff[n]), int(max_norm[n]))
        if edges:
            want = Fraction(4, n + 2)
            if ratio != want:
                rb.violation("ratio", (n,), f"ratio={ratio} expected={want}")
            if rows and not ratio < rows[-1].ratio:
                rb.violation("ratio-monotone", (n,), f"ratio={ratio} previous={rows[-1].ratio}")
        rows.append(PropertyARow(n, int(max_norm[n]), int(max_diff[n]), ratio, len(edges)))
    return PropertyAReport(rows=tuple(rows), check=rb.build())


def brute_ball_isometry_violations(g):
    """(center, radius, x, y) with in-ball distance above global distance."""
    adj = adjacency(g)
    out = []
    for u in sorted(g.vertices):
        du = bfs_dist(adj, u)
        radii = range(max(du.values()) + 1) if du else ()
        for r in radii:
            inside = {w for w, d in du.items() if d <= r}
            sub = {w: [x for x in adj[w] if x in inside] for w in inside}
            for x in sorted(inside):
                dx_in = bfs_dist(sub, x)
                dx = bfs_dist(adj, x)
                for y in sorted(inside):
                    if dx_in.get(y, INF) != dx.get(y, INF):
                        out.append((u, r, x, y))
    return out


def brute_interval_isometry_ok(g, u, v):
    adj = adjacency(g)
    verts = brute_interval_vertices(g, u, v)
    sub = {w: [x for x in adj[w] if x in verts] for w in verts}
    for x in verts:
        dx_in = bfs_dist(sub, x)
        dx = bfs_dist(adj, x)
        for y in verts:
            if dx_in.get(y, INF) != dx[y]:
                return False
    return True


def brute_is_modular(g):
    """Every triple inside one component has a median, by definition."""
    adj = adjacency(g)
    d = {u: bfs_dist(adj, u) for u in g.vertices}
    for u in g.vertices:
        for x, y in combinations(sorted(d[u]), 2):
            if not any(
                d[u][m] + d[m][x] == d[u][x]
                and d[u][m] + d[m][y] == d[u][y]
                and d[x][m] + d[m][y] == d[x][y]
                for m in d[u]
            ):
                return False
    return True


def brute_quasi_isometry_ok(source, squared):
    """d_source <= d_squared <= 2 * d_source over all ordered vertex pairs.

    Fails on a pair infinitely far apart in the squared graph, on a pair
    closer there than in the source, and on one stretched more than 2x.
    """
    adj_y = adjacency(source)
    adj_x = adjacency(squared)
    for u in sorted(source.vertices):
        dy = bfs_dist(adj_y, u)
        dx = bfs_dist(adj_x, u)
        for v in sorted(source.vertices):
            d_squared = dx.get(v, INF)
            d_source = dy.get(v, INF)
            if d_squared == INF or d_squared < d_source or d_squared > 2 * d_source:
                return False
    return True


def _diagonal_splits(square):
    a, b, c, d = square
    return (
        ((min(a, c), max(a, c)), (min(b, d), max(b, d))),
        ((min(b, d), max(b, d)), (min(a, c), max(a, c))),
    )


def brute_rule_a_violations(c):
    """Rule A misses, scanning all unordered pairs of squares directly."""
    squares = sorted(c.squares)
    viol = set()
    for s1, s2 in combinations(squares, 2):
        for d1, m1 in _diagonal_splits(s1):
            for d2, m2 in _diagonal_splits(s2):
                if d1 != d2:
                    continue
                shared = set(m1) & set(m2)
                if len(shared) != 1:
                    continue
                v1 = shared.pop()
                v0 = m1[0] if m1[1] == v1 else m1[1]
                v2 = m2[0] if m2[1] == v1 else m2[1]
                if not c.has_square((d1[0], v0, d1[1], v2)):
                    viol.add((d1[0], d1[1], min(v0, v2), v1, max(v0, v2)))
    return sorted(viol)


def _walk_cycle(edges):
    """Walk a set of edges expected to form one cycle; None otherwise."""
    adj = {}
    for u, w in edges:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    if any(len(nbs) != 2 for nbs in adj.values()):
        return None
    start = min(adj)
    seq = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        seq.append(nxt)
        prev, cur = cur, nxt
        if len(seq) > len(adj):
            return None
    return seq if len(seq) == len(adj) else None


def brute_rule_b_violations(c):
    """Rule B misses, by gluing square boundaries into hexagons and walking them.

    Each hub u takes every triple of the squares at u.
    """
    g = c.graph
    viol = set()
    for u in sorted(g.vertices):
        # each square at u contributes its boundary path avoiding u
        paths = []
        for s in c.squares_at(u):
            i = s.index(u)
            a, b, a2 = s[i - 3], s[i - 2], s[i - 1]
            paths.append(((min(a, b), max(a, b)), (min(b, a2), max(b, a2))))
        for triple in combinations(paths, 3):
            edges = set(chain.from_iterable(triple))
            if len(edges) != 6:
                continue
            hexagon = _walk_cycle(edges)
            if hexagon is None or len(hexagon) != 6 or u in hexagon:
                continue
            ok = False
            for i in range(3):
                p, q = hexagon[i], hexagon[i + 3]
                half1 = (hexagon[i], hexagon[i + 1], hexagon[i + 2],
                         hexagon[i + 3])
                half2 = (hexagon[i + 3], hexagon[(i + 4) % 6],
                         hexagon[(i + 5) % 6], hexagon[i])
                if g.has_edge(p, q) and c.has_square(half1) and c.has_square(half2):
                    ok = True
                    break
            if not ok:
                key = brute_canonical_cycle(hexagon)
                viol.add((u,) + key)
    return sorted(viol)


def brute_link_triples(c):
    """Each square seen from each corner as an index row (corner, smaller
    wing, larger wing, opposite), sorted; and every triple i < j < k of rows
    at one corner whose wings pairwise share one vertex, three distinct
    ones, by a scan of all triples at each corner."""
    index = {v: i for i, v in enumerate(sorted(c.graph.vertices))}
    rows = []
    for s in c.squares:
        for i in range(4):
            u, a, o, b = (index[s[(i + k) % 4]] for k in range(4))
            rows.append((u, min(a, b), max(a, b), o))
    rows.sort()
    triples = []
    for u in sorted(index.values()):
        at = [i for i, row in enumerate(rows) if row[0] == u]
        for i, j, k in combinations(at, 3):
            wings = [set(rows[t][1:3]) for t in (i, j, k)]
            shared = [w0 & w1 for w0, w1 in combinations(wings, 2)]
            if all(len(x) == 1 for x in shared) and len(set.union(*shared)) == 3:
                triples.append((i, j, k))
    return rows, triples


def brute_canonical_cycle(seq):
    """Least of all rotations and reflections of a cyclic sequence, by enumeration."""
    best = None
    k = len(seq)
    for flip in (tuple(seq), tuple(reversed(seq))):
        for r in range(k):
            cand = flip[r:] + flip[:r]
            if best is None or cand < best:
                best = cand
    return best


def brute_h1_rank_mod2(c):
    """Cycle space rank minus boundary rank, by dense GF(2) elimination."""
    g = c.graph
    edges = sorted(g.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    cells = []
    if hasattr(c, "triangles"):
        for a, b, cc in sorted(c.triangles):
            cells.append([eidx[(a, b)], eidx[(a, cc)], eidx[(b, cc)]])
    else:
        for s in sorted(c.squares):
            cells.append([
                eidx[(min(s[i], s[(i + 1) % 4]), max(s[i], s[(i + 1) % 4]))]
                for i in range(4)
            ])
    mat = np.zeros((len(cells), len(edges)), dtype=np.int8)
    for i, cols in enumerate(cells):
        for j in cols:
            mat[i, j] ^= 1
    rank = 0
    row = 0
    for col in range(mat.shape[1]):
        pivot = None
        for r in range(row, mat.shape[0]):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[row, pivot]] = mat[[pivot, row]]
        for r in range(mat.shape[0]):
            if r != row and mat[r, col]:
                mat[r] ^= mat[row]
        rank += 1
        row += 1
        if row == mat.shape[0]:
            break
    adj = adjacency(g)
    seen = set()
    components = 0
    for v in sorted(g.vertices):
        if v not in seen:
            components += 1
            seen.update(bfs_dist(adj, v))
    cycles = len(edges) - len(g.vertices) + components
    return cycles - rank


def random_graph(n, p, seed):
    """Erdos-Renyi style graph over 0..n-1; import-free of library RNG use."""
    import random as _random

    rng = _random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    from sysquad import Graph

    return Graph(range(n), edges)


def random_connected_graph(n, p, seed):
    """A seeded random tree on 0..n-1 plus Erdos-Renyi extra edges: always
    connected, and more often flat from its base than ``random_graph``."""
    import random as _random

    from sysquad import Graph

    rng = _random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {e for e in combinations(range(n), 2) if rng.random() < p}
    return Graph(range(n), edges)


def random_bipartite_graph(n, p, seed):
    """Random graph with edges only between two seeded sides of 0..n-1."""
    import random as _random

    from sysquad import Graph

    rng = _random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if side[u] != side[v] and rng.random() < p]
    return Graph(range(n), edges)


def random_square_complex(n, p, q, seed):
    """Random graph plus a seeded subset of its embedded 4-cycles as squares."""
    import random as _random

    from sysquad import SquareComplex, enumerate_embedded_4cycles

    g = random_graph(n, p, seed)
    cycles = enumerate_embedded_4cycles(g)
    rng = _random.Random(seed + 1)
    chosen = [cyc for cyc in cycles if rng.random() < q]
    return SquareComplex(g, chosen)


def random_k23_complex(n, p, plants, seed):
    """A random graph with ``plants`` K_{2,3}s laid over it, and a seeded
    half of its embedded 4-cycles as squares."""
    import random as _random

    from sysquad import Graph, SquareComplex, enumerate_embedded_4cycles

    rng = _random.Random(seed)
    edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    for _ in range(plants):
        u0, u1, *mids = rng.sample(range(n), 5)
        edges |= {(min(u, m), max(u, m)) for u in (u0, u1) for m in mids}
    g = Graph(range(n), edges)
    chosen = [cyc for cyc in enumerate_embedded_4cycles(g) if rng.random() < 0.5]
    return SquareComplex(g, chosen)


def common_neighbour_pairs(g):
    """Map each pair u < w with a common neighbour to their common neighbours, sorted."""
    commons = {}
    for z in sorted(g.vertices):
        nbs = g.neighbors(z)
        for u, w in combinations(nbs, 2):
            commons.setdefault((u, w), []).append(z)
    return commons


def brute_common_neighbours(g):
    """Each pair v < w of vertices with a common neighbour, as sorted rows
    (v, w, common neighbours ascending): one neighbour-set intersection
    per pair of vertices, from the edge set alone."""
    nbrs = {v: set() for v in g.vertices}
    for u, w in g.edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    pairs = ((v, w, tuple(sorted(nbrs[v] & nbrs[w])))
             for v, w in combinations(sorted(nbrs), 2))
    return [row for row in pairs if row[2]]


def brute_embedded_4cycles(g):
    """All embedded 4-cycles of g in canonical form, sorted, from every
    diagonal pair and two of its common neighbours, each cycle kept from
    its smaller diagonal."""
    from sysquad import canonical_cycle

    cycles = []
    for (u, w), mids in common_neighbour_pairs(g).items():
        for x, y in combinations(mids, 2):
            if (u, w) < (x, y):
                cycles.append(canonical_cycle((u, x, w, y)))
    return sorted(cycles)


def relabelled(c, f):
    """The square complex ``c`` with every vertex id v replaced by f(v)."""
    from sysquad import Graph, SquareComplex

    g = Graph(map(f, c.graph.vertices), [(f(u), f(w)) for u, w in c.graph.edges])
    return SquareComplex(g, [tuple(map(f, s)) for s in c.squares])


def find_K23(g):
    """All K_{2,3} subgraph occurrences as (2-side pair, 3-side triple), sorted."""
    found = []
    for (u, w), mids in common_neighbour_pairs(g).items():
        if len(mids) < 3:
            continue
        for triple in combinations(mids, 3):
            found.append(((u, w), triple))
    found.sort()
    return found


def link(c, v):
    """Link of a vertex: its neighbours, joined when they span a triangle with v."""
    from sysquad import Graph

    nbs = c.graph.neighbors(v)
    edges = []
    for t in c.triangles_at(v):
        a, b = (x for x in t if x != v)
        edges.append((a, b))
    return Graph(nbs, edges)


def girth(g):
    """Length of a shortest embedded cycle, INF for forests.

    Per-root BFS: scanning a non-tree edge (u, w) during the BFS from a root
    certifies a cycle of length dist(u) + dist(w) + 1 through the BFS tree,
    and a root lying on a shortest cycle realizes its exact length.
    """
    best = INF
    for root in sorted(g.vertices):
        dist = {root: 0}
        parent = {root: None}
        q = deque([root])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du >= best:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def brute_verify_systolic(c, cap):
    """The ``systolic`` report from one ``girth(link(c, v))`` per vertex and a
    common-neighbour scan over the sorted edges, in the same scan order."""
    from sysquad.reports import ReportBuilder

    g = c.graph
    rb = ReportBuilder("systolic", cap)
    connected = True
    if g.vertices:
        source = min(g.vertices)
        reached = bfs_dist(adjacency(g), source)
        connected = not rb.disconnected(source, tuple(sorted(g.vertices.difference(reached))))
    rb.set_stat("vertices", len(g.vertices))
    rb.set_stat("edges", len(g.edges))
    rb.set_stat("triangles", len(c.triangles))

    for v in sorted(g.vertices):
        gg = girth(link(c, v))
        rb.count("links")
        if gg < 6:
            rb.violation("link-girth", (v,), f"girth={gg}")

    for u, w in sorted(g.edges):
        nbs = frozenset(g.neighbors(u)) & frozenset(g.neighbors(w))
        for x in sorted(nbs):
            if x < w:
                continue  # count each 3-clique once, with u < w < x
            rb.count("cliques3")
            if not c.has_triangle((u, w, x)):
                rb.violation("flagness", (u, w, x), "empty-triangle")
            deeper = nbs & frozenset(g.neighbors(x))
            for y in sorted(deeper):
                if y > x:
                    rb.violation("flagness", (u, w, x, y), "4-clique")

    if connected:
        rank = brute_h1_rank_mod2(c)
        rb.set_stat("h1_rank_mod2", rank)
        if rank != 0:
            rb.violation("h1", (), f"rank={rank}")

    return rb.build()


def non_systolic_counterexamples():
    """Small complexes that must fail systolic verification, with the failing check."""
    from sysquad import Graph, SimplicialComplex2

    out = []

    # hub whose link is a 4-cycle
    rim = [1, 2, 3, 4]
    edges = [(0, v) for v in rim] + [(1, 2), (2, 3), (3, 4), (1, 4)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]
    out.append((SimplicialComplex2(Graph(range(5), edges), tris), "link-girth"))

    # a 3-clique with no 2-cell on it
    g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
    out.append((SimplicialComplex2(g, []), "flagness"))

    # complete graph on 4 vertices with all four triangles: links are 3-cycles
    k4_edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    k4_tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    out.append((SimplicialComplex2(Graph(range(4), k4_edges), k4_tris), "link-girth"))

    return out


def brute_flat_intervals_text(c, base, cap):
    """The ``flat-intervals`` report text, one K_{2,3} search per interval.

    Each interval, by distance sums, becomes its own induced Graph and
    ``find_K23`` (itself checked against ``brute_k23``) searches it, in
    vertex order, so the kept certificate prefix is the report's.
    """
    from sysquad import Graph
    from sysquad.reports import ReportBuilder

    g = c.graph
    adj = adjacency(g)
    rb = ReportBuilder("flat-intervals", cap)
    reach = bfs_dist(adj, base)
    if rb.disconnected(base, tuple(sorted(g.vertices - reach.keys()))):
        return rb.build().to_text()
    for v in sorted(g.vertices):
        rb.count("intervals")
        verts = brute_interval_vertices(g, base, v)
        sub = Graph(verts, [(u, w) for u in verts for w in adj[u] if u < w and w in verts])
        for (u0, u1), triple in find_K23(sub):
            rb.violation("k23-in-interval", (u0, u1) + triple, f"interval={base}->{v}")
    return rb.build().to_text()


def brute_graph(vertices, edges):
    """(adjacency, edge set) of a ``Graph``, built one edge at a time.

    Raises the ``ValueError`` of the first loop or undeclared endpoint in
    the given order. Each vertex's neighbours are sorted on their own.
    """
    vs = frozenset(vertices)
    es = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        e = (min(u, v), max(u, v))
        if e[0] not in vs or e[1] not in vs:
            raise ValueError(f"edge {e} has an undeclared endpoint")
        es.add(e)
    adj = {v: [] for v in vs}
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}, frozenset(es)


def brute_cell_store(graph, cells, length, noun):
    """(cells, cells at each vertex) of a cell store, built one cell at a time.

    Raises the ``CellError`` of the first cell, in the given order, that
    lacks ``length`` distinct vertices or misses a boundary edge: a
    triangle names its sorted vertices and least missing edge, a square
    its given order and first missing edge along it.
    """
    from sysquad.complexes import CellError

    store = set()
    for i, cell in enumerate(cells):
        cell = tuple(cell)
        c = brute_canonical_cycle(cell)
        if len(c) != length or len(set(c)) != length:
            raise CellError(i, f"{noun} {cell} must have {length} distinct vertices")
        along = [(min(a, b), max(a, b)) for a, b in zip(cell, cell[1:] + cell[:1])]
        missing = [e for e in along if not graph.has_edge(*e)]
        if missing:
            shown, e = (c, min(missing)) if length == 3 else (cell, missing[0])
            raise CellError(i, f"{noun} {shown} misses edge {e}")
        store.add(c)
    at = {}
    for c in sorted(store):
        for v in c:
            at.setdefault(v, []).append(c)
    return frozenset(store), {v: tuple(cs) for v, cs in at.items()}


def brute_based_complex(adj, basepoint):
    """(levels, down) of a ``BasedComplex`` on the adjacency dict ``adj``.

    A queue BFS from the basepoint gives the levels of the reached vertices,
    in BFS order, and each reached vertex's neighbours one level closer,
    in adjacency order. Raises the constructor's ``ValueError`` when the
    basepoint is not a vertex.
    """
    if basepoint not in adj:
        raise ValueError(f"basepoint {basepoint} is not a vertex")
    levels = bfs_dist(adj, basepoint)
    down = {v: tuple(x for x in adj[v] if levels[x] == lv - 1) for v, lv in levels.items()}
    return levels, down


_ARITY = {"v": 1, "e": 2, "t": 3, "q": 4, "base": 1}
_CELL = {"t": "triangle", "q": "square"}


def brute_parse_complex(text):
    """The three-pass complex file reader, returning (complex, basepoint).

    Syntax first, over the whole file; then vertices; then every other
    record in file order; then the mixed-kinds check; then each cell's
    boundary edges, in file order. Only then is a ``Graph`` built and the
    cells handed to a store, which checks them again. A file with no
    cells reads as a ``SimplicialComplex2`` with no triangles.
    """
    from sysquad import ComplexFileError, Graph, SimplicialComplex2, SquareComplex

    recs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *toks = line.split()
        if kind not in _ARITY:
            raise ComplexFileError(lineno, f"unknown record type {kind!r}")
        if len(toks) != _ARITY[kind]:
            raise ComplexFileError(lineno, f"{kind} record needs {_ARITY[kind]} ids, got {len(toks)}")
        ids = []
        for tok in toks:
            try:
                value = int(tok)
            except ValueError:
                raise ComplexFileError(lineno, f"invalid id {tok!r}") from None
            if value < 0:
                raise ComplexFileError(lineno, f"negative id {value}")
            ids.append(value)
        recs.append((lineno, kind, ids))

    vertices = set()
    for lineno, kind, ids in recs:
        if kind == "v":
            if ids[0] in vertices:
                raise ComplexFileError(lineno, f"duplicate vertex {ids[0]}")
            vertices.add(ids[0])

    edges, cells, basepoint, first_line = set(), set(), None, {}
    for lineno, kind, ids in recs:
        if kind == "v":
            continue
        for value in ids:
            if value not in vertices:
                raise ComplexFileError(lineno, f"undeclared vertex {value}")
        if kind == "e":
            u, w = ids
            if u == w:
                raise ComplexFileError(lineno, f"loop edge ({u}, {w})")
            e = (min(u, w), max(u, w))
            if e in edges:
                raise ComplexFileError(lineno, f"duplicate edge {e}")
            edges.add(e)
        elif kind in _CELL:
            first_line.setdefault(kind, lineno)
            if len(set(ids)) != len(ids):
                raise ComplexFileError(lineno, f"{_CELL[kind]} {tuple(ids)} repeats a vertex")
            cell = brute_canonical_cycle(ids)
            if cell in cells:
                raise ComplexFileError(lineno, f"duplicate {_CELL[kind]} {cell}")
            cells.add(cell)
        else:
            if basepoint is not None:
                raise ComplexFileError(lineno, "second base record")
            basepoint = ids[0]

    if len(first_line) == 2:
        raise ComplexFileError(max(first_line.values()), "file mixes triangles and squares")

    for lineno, kind, ids in recs:
        if kind in _CELL:
            k = len(ids)
            along = [(min(ids[i], ids[(i + 1) % k]), max(ids[i], ids[(i + 1) % k]))
                     for i in range(k)]
            missing = [e for e in along if e not in edges]
            if missing:
                # a triangle names its sorted vertices and least missing edge,
                # a square its file order and first missing edge along it
                cell, e = (sorted(ids), min(missing)) if kind == "t" else (ids, missing[0])
                raise ComplexFileError(lineno, f"{_CELL[kind]} {tuple(cell)} misses edge {e}")

    cls = SquareComplex if "q" in first_line else SimplicialComplex2
    return cls(Graph(vertices, edges), cells), basepoint


def brute_triangulated_disk(spec):
    """The disk of ``spec``, built arc by arc with explicit shared endpoints.

    Each vertex of a layer draws its degree, in layer order, and gets an
    arc of children: the first child is the previous arc's last, the
    rest are fresh ids, and the last arc closes on the first arc's first
    child. Same draws, ids, cells and layers as ``triangulated_disk``.
    """
    import random

    from sysquad import Graph, SimplicialComplex2
    from sysquad.generators import Disk

    degs = spec.degrees
    choices = [degs] if isinstance(degs, int) else sorted(degs)
    rng = random.Random(spec.seed)
    if spec.radius == 0:
        c = SimplicialComplex2(Graph([0]), [])
        return Disk(complex=c, center=0, layers=((0,),))

    vertices = [0]
    edges = []
    triangles = []

    d0 = rng.choice(choices)
    first_layer = list(range(1, d0 + 1))
    vertices.extend(first_layer)
    for i, v in enumerate(first_layer):
        w = first_layer[(i + 1) % d0]
        edges.append((0, v))
        edges.append((v, w))
        triangles.append((0, v, w))
    layers = [[0], first_layer]
    parents = {v: 1 for v in first_layer}
    next_id = d0 + 1

    for k in range(1, spec.radius):
        layer = layers[k]
        m = len(layer)
        fan = []
        for v in layer:
            c = rng.choice(choices) - 2 - parents[v]
            assert c >= 2
            fan.append(c)

        start = next_id
        arcs = []
        cursor = start
        next_id += 1
        for i in range(m):
            need = fan[i]
            if i < m - 1:
                fresh = list(range(next_id, next_id + need - 1))
                next_id += need - 1
                arc = [cursor] + fresh
                cursor = arc[-1]
            else:
                fresh = list(range(next_id, next_id + need - 2))
                next_id += need - 2
                arc = [cursor] + fresh + [start]
            arcs.append(arc)

        new_layer = []
        new_parents = {}
        for i, v in enumerate(layer):
            arc = arcs[i]
            for a in arc:
                edges.append((v, a))
                new_parents[a] = new_parents.get(a, 0) + 1
            for a, b in zip(arc, arc[1:]):
                edges.append((a, b))
                triangles.append((v, a, b))
            w = layer[(i + 1) % m]
            triangles.append((v, w, arc[-1]))
            new_layer.extend(arc[:-1])
        vertices.extend(new_layer)
        layers.append(new_layer)
        parents = new_parents

    return Disk(
        complex=SimplicialComplex2(Graph(vertices, edges), triangles),
        center=0,
        layers=tuple(tuple(layer) for layer in layers),
    )


def brute_rule_a_report(c, cap):
    """The ``rule-a`` report from a scan of every diagonal of every square."""
    from sysquad.reports import ReportBuilder

    diags = {}
    for s in sorted(c.squares):
        a, b, cc, d = s
        for diag, mid in (((a, cc), (b, d)), ((b, d), (a, cc))):
            key = (min(diag), max(diag))
            diags.setdefault(key, []).append((min(mid), max(mid)))
    rb = ReportBuilder("rule-a", cap)
    for (u0, u1), mids in sorted(diags.items()):
        for m1, m2 in combinations(sorted(mids), 2):
            shared = set(m1) & set(m2)
            if len(shared) != 1:
                continue
            rb.count("patterns")
            v1 = shared.pop()
            v0 = m1[0] if m1[1] == v1 else m1[1]
            v2 = m2[0] if m2[1] == v1 else m2[1]
            if not c.has_square((u0, v0, u1, v2)):
                rb.violation("rule-a", (u0, u1, min(v0, v2), v1, max(v0, v2)),
                             "missing-outer-square")
    return rb.build()


def brute_rule_b_report(c, cap):
    """The ``rule-b`` report from a scan of every triple of squares at every vertex."""
    from sysquad import canonical_cycle
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("rule-b", cap)
    g = c.graph
    for u in sorted(g.vertices):
        entries = []
        for s in c.squares_at(u):
            i = s.index(u)
            wing = (s[i - 1], s[(i + 1) % 4])
            entries.append(((min(wing), max(wing)), s[(i + 2) % 4]))
        entries.sort()
        seen = set()
        for (w0, b0), (w1, b1), (w2, b2) in combinations(entries, 3):
            s01, s12, s02 = set(w0) & set(w1), set(w1) & set(w2), set(w0) & set(w2)
            if len(s01) != 1 or len(s12) != 1 or len(s02) != 1:
                continue
            a1, a2, a0 = s01.pop(), s12.pop(), s02.pop()
            if len({a0, a1, a2}) != 3:
                continue
            hexagon = (a0, b0, a1, b1, a2, b2)
            if len(set(hexagon)) != 6:
                rb.count("degenerate")
                continue
            key = canonical_cycle(hexagon)
            if key in seen:
                continue
            seen.add(key)
            rb.count("hexagons")
            options = (
                ((a0, b1), (a0, b0, a1, b1), (b1, a2, b2, a0)),
                ((b0, a2), (b0, a1, b1, a2), (a2, b2, a0, b0)),
                ((a1, b2), (a1, b1, a2, b2), (b2, a0, b0, a1)),
            )
            if not any(g.has_edge(*chord) and c.has_square(c1) and c.has_square(c2)
                       for chord, c1, c2 in options):
                rb.violation("rule-b", (u,) + key, "no-chorded-antipode")
    return rb.build()


def brute_quasi_isometry_report(result, cap):
    """The ``quasi-isometry`` report from one edge test per edge of each
    graph and a search from the least vertex, every distance computed."""
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("quasi-isometry", cap)
    gy, gx = result.source.graph, result.squared.graph
    ay, ax = adjacency(gy), adjacency(gx)
    order = sorted(gy.vertices)
    if sorted(gx.vertices) != order:
        raise ValueError("squaring must preserve the vertex set")
    n = len(order)
    rb.set_stat("pairs", n * n)
    for u, w in sorted(gx.edges):
        if not gy.has_edge(u, w):
            rb.violation("stretch-low", (u, w), f"d_source={dist_between(ay, u, w)} d_squared=1")
    dropped = [(u, w) for u, w in sorted(gy.edges) if not gx.has_edge(u, w)]
    for u, w in dropped:
        if frozenset(gx.neighbors(u)).isdisjoint(frozenset(gx.neighbors(w))):
            rb.violation("stretch-high", (u, w), f"d_source=1 d_squared={dist_between(ax, u, w)}")
    if n:
        reached = bfs_dist(ax, order[0])
        for v in order:
            if v not in reached:
                rb.violation("disconnected", (order[0], v), "d_squared=inf")
    rb.set_stat("max_ratio", "0/1" if n < 2 else "2/1" if dropped else "1/1")
    return rb.build()


def brute_interval_pairs(s):
    """``cli._interval_pairs`` of a subject without --exhaustive, one
    ``Random.choice`` per drawn vertex."""
    import random

    verts = sorted(s.complex.graph.vertices)
    pairs = [(s.based.basepoint, v) for v in verts]
    seen = {(min(p), max(p)) for p in pairs}
    rng = random.Random(s.args.seed)
    for _ in range(2000):
        u, v = rng.choice(verts), rng.choice(verts)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def brute_spheres_report(b, cap):
    """The ``spheres-triangle-free`` report from one level test per sorted triangle."""
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("spheres-triangle-free", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    levels = b.levels
    for t in sorted(b.complex.triangles):
        rb.count("triangles")
        la, lb, lc = (levels[v] for v in t)
        if la == lb == lc:
            rb.violation("sphere-triangle", t, f"r={la}")
    return rb.build()


def brute_ball_neighbours_report(b, cap):
    """The ``ball-neighbours`` report from one edge test per pair of a down list."""
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("ball-neighbours", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    g = b.graph
    for v in sorted(g.vertices):
        for w, x in combinations(b.down(v), 2):
            rb.count("pairs")
            if not g.has_edge(w, x):
                rb.violation("ball-neighbours", (v, w, x), f"level={b.levels[v]}")
    return rb.build()


def brute_triangle_condition_report(b, cap):
    """The ``triangle-condition`` report from one down-list intersection per
    sorted equidistant edge."""
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("triangle-condition", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    levels = b.levels
    for v, w in sorted(b.graph.edges):
        if levels[v] != levels[w]:
            continue
        rb.count("equidistant_edges")
        if set(b.down(v)).isdisjoint(b.down(w)):
            rb.violation("triangle-condition", (v, w), f"level={levels[v]}")
    return rb.build()


def brute_quadrangle_report(b, cap):
    """The ``quadrangle`` report from one down-list intersection per pair of a
    down list."""
    from sysquad.reports import ReportBuilder

    rb = ReportBuilder("quadrangle", cap)
    if rb.disconnected(b.basepoint, b.unreached):
        return rb.build()
    for x in sorted(b.graph.vertices):
        for v, w in combinations(b.down(x), 2):
            rb.count("pairs")
            if set(b.down(v)).isdisjoint(b.down(w)):
                rb.violation("quadrangle", (x, v, w), f"level={b.levels[x]}")
    return rb.build()
