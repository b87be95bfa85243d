"""Generators for triangulated disks with prescribed interior degrees.

The construction is layer by layer. Layer 0 is the center; every layer k >= 1
is a cycle. Between consecutive layers each vertex v receives a fan of
children sized so that v reaches its prescribed degree, and consecutive
vertices of a layer share exactly one child, which keeps the annulus
between the layers triangulated. Boundary vertices (the last layer) are
exempt from the degree rule.

Interior links come out as single cycles whose length equals the
prescribed degree, so any rule with all degrees >= 6 produces a complex
whose vertex links have girth >= 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import Graph, SimplicialComplex2


@dataclass(frozen=True)
class DiskSpec:
    """Recipe for a triangulated disk.

    degrees is one of:
      - an int: every interior vertex gets this degree;
      - a set/frozenset of ints: each interior vertex draws uniformly
        from the set, seeded by ``seed``.
    All degrees must be >= 6; anything less cannot be systolic.
    """

    radius: int
    degrees: int | frozenset[int]
    seed: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        degs = self.degrees
        if isinstance(degs, set):
            degs = frozenset(degs)
            object.__setattr__(self, "degrees", degs)
        if isinstance(degs, int):
            degs = frozenset({degs})
        elif not isinstance(degs, frozenset):
            raise ValueError(f"unsupported degree rule {degs!r}")
        if not degs:
            raise ValueError("empty degree set")
        for d in degs:
            if d < 6:
                raise ValueError(f"interior degree {d} < 6 cannot be systolic")


@dataclass(frozen=True)
class Disk:
    """A generated disk: the complex, its center, and the vertex layers."""

    complex: SimplicialComplex2
    center: int
    layers: tuple[tuple[int, ...], ...]


def triangulated_disk(spec: DiskSpec) -> Disk:
    """Build the disk described by ``spec``; deterministic for a fixed spec."""
    degs = spec.degrees
    choices = [degs] if isinstance(degs, int) else sorted(degs)
    rng = random.Random(spec.seed)
    if spec.radius == 0:
        c = SimplicialComplex2(Graph([0]), [])
        return Disk(complex=c, center=0, layers=((0,),))

    vertices = [0]
    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []

    d0 = rng.choice(choices)
    first_layer = list(range(1, d0 + 1))
    vertices.extend(first_layer)
    for i, v in enumerate(first_layer):
        w = first_layer[(i + 1) % d0]
        edges.append((0, v))
        edges.append((v, w))
        triangles.append((0, v, w))
    layers = [[0], first_layer]
    # number of parents of each current-outer-layer vertex
    parents = {v: 1 for v in first_layer}
    next_id = d0 + 1

    for k in range(1, spec.radius):
        layer = layers[k]
        m = len(layer)
        fan = []
        for v in layer:
            target = rng.choice(choices)
            used = 2 + parents[v]
            c = target - used
            # degree >= 6 with at most 2 ring and 2 parent edges forces c >= 2
            assert c >= 2
            fan.append(c)

        start = next_id  # first child of the first arc, shared with the last arc
        arcs: list[list[int]] = []
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

        new_layer: list[int] = []
        new_parents: dict[int, int] = {}
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

    graph = Graph(vertices, edges)
    complex = SimplicialComplex2(graph, triangles)
    return Disk(
        complex=complex,
        center=0,
        layers=tuple(tuple(layer) for layer in layers),
    )


def non_systolic_counterexamples() -> list[tuple[SimplicialComplex2, str]]:
    """Small complexes that must fail systolic verification, with the failing check."""
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
