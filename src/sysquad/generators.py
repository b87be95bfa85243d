"""Generators for triangulated disks with prescribed interior degrees.

The construction is layer by layer. Layer 0 is the center; every layer k >= 1
is a cycle. The center draws its degree d, and layer 1 is a whole cycle of
d children around it. Each vertex v of layer k >= 1, in layer order, draws
its degree d and gets fan(v) = d - 2 - parents(v) children: d minus its two
ring neighbours and its parents in layer k - 1. Layer k + 1 is one ring of
sum(fan) - len(layer) fresh ids. The children of v are a window of fan(v)
consecutive ring entries that starts where the previous vertex's window
ended, indices taken mod the ring length, so consecutive windows share an
endpoint and the last window wraps to the first. The triangles between the
layers are v's fan over its window and (v, next v, shared endpoint).
Boundary vertices (the last layer) are exempt from the degree rule.

Every fan has at least 2 children. A ring position starts at most one
window and ends at most one, so it has at most 2 parents, and a degree of
at least 6 leaves d - 2 - 2 >= 2. Layer 1 has at least 6 vertices, and a
layer of m vertices gets a ring of sum(fan) - m >= m, so every layer from 1
on has at least 6. The ring length, at least fan(v) + len(layer) - 2, thus
exceeds every window: no window holds a ring entry twice.

Interior links come out as single cycles whose length equals the
prescribed degree, so any rule with all degrees >= 6 produces a complex
whose vertex links have girth >= 6.

The ids are 0, 1, 2, ... in layer order, so they are their own vertex
indices, and the edges and triangles go to the complex as index rows. By
construction every triangle's edges are among the edges, so the rows are
only put in canonical form, a triangle as its sorted vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .complexes import Graph, SimplicialComplex2


@dataclass(frozen=True)
class DiskSpec:
    """Recipe for a triangulated disk.

    degrees is one of:
      - an int: every interior vertex gets this degree;
      - a set/frozenset of ints: each interior vertex draws uniformly
        from the set, seeded by ``seed``.
    Either is stored as a frozenset, an int d as ``frozenset({d})``.
    All degrees must be >= 6; anything less cannot be systolic.
    """

    radius: int
    degrees: int | frozenset[int]
    seed: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        degs = self.degrees
        if isinstance(degs, int):
            degs = frozenset({degs})
        elif isinstance(degs, set):
            degs = frozenset(degs)
        elif not isinstance(degs, frozenset):
            raise ValueError(f"unsupported degree rule {degs!r}")
        object.__setattr__(self, "degrees", degs)
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
    choices = sorted(spec.degrees)
    rng = random.Random(spec.seed)
    if spec.radius == 0:
        c = SimplicialComplex2(Graph([0]), [])
        return Disk(complex=c, center=0, layers=((0,),))

    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []

    d0 = rng.choice(choices)
    first_layer = list(range(1, d0 + 1))
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
        fan = [rng.choice(choices) - 2 - parents[v] for v in layer]
        n = sum(fan) - m
        ring = list(range(next_id, next_id + n))
        next_id += n
        new_parents: dict[int, int] = {}
        pos = 0
        for i, v in enumerate(layer):
            window = [ring[(pos + j) % n] for j in range(fan[i])]
            pos += fan[i] - 1
            for a in window:
                edges.append((v, a))
                new_parents[a] = new_parents.get(a, 0) + 1
            for a, b in zip(window, window[1:]):
                edges.append((a, b))
                triangles.append((v, a, b))
            triangles.append((v, layer[(i + 1) % m], window[-1]))
        layers.append(ring)
        parents = new_parents

    graph = Graph._of(tuple(range(next_id)), np.sort(edges, axis=1))
    complex = SimplicialComplex2._of(graph, np.sort(triangles, axis=1))
    return Disk(
        complex=complex,
        center=0,
        layers=tuple(tuple(layer) for layer in layers),
    )
