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
indices, and each layer is a range of ids. A layer is built as arrays,
with one ``rng.choice`` per vertex in layer order, so a seed gives the
same disk as a vertex-by-vertex build. Window i starts at ring position
sum(fan[:i] - 1) and the windows tile the ring, each position p lying in
exactly one window before that window's end: ``owner`` repeats each
layer vertex fan - 1 times. So the edges are (owner[p], p), (p, p + 1) and
(v_i, end of window i), and the triangles (owner[p], p, p + 1) and
(v_i, v_{i + 1}, end of window i), positions mod the ring length. A
window's end is the next window's start, so the next layer's parent
counts are 2 there and 1 elsewhere.

The edges and triangles go to the complex as index rows. By construction
every triangle's edges are among the edges, so the rows are only put in
canonical form, a triangle as its sorted vertices.
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

    d0 = rng.choice(choices)
    # layer 1 is a whole cycle of d0 children around the center, each with one parent
    at = np.arange(1, d0 + 1)
    after = np.roll(at, -1)
    center = np.zeros(d0, dtype=np.intp)
    edges = [np.column_stack([center, at]), np.column_stack([at, after])]
    triangles = [np.column_stack([center, at, after])]
    bounds = [0, 1, d0 + 1]  # layer k is the ids bounds[k]..bounds[k + 1] - 1
    parents = np.ones(d0, dtype=np.intp)

    for _ in range(1, spec.radius):
        low, next_id = bounds[-2], bounds[-1]
        m = next_id - low
        fan = np.array([rng.choice(choices) for _ in range(m)]) - 2 - parents
        n = int(fan.sum()) - m
        # ring position p lies in the window of owner[p] before its end;
        # window i ends at ring id end[i], where window i + 1 starts
        layer = np.arange(low, next_id)
        owner = np.repeat(layer, fan - 1)
        end = np.cumsum(fan - 1) % n + next_id
        at = np.arange(next_id, next_id + n)
        after = np.roll(at, -1)
        edges += [np.column_stack([owner, at]), np.column_stack([layer, end]),
                  np.column_stack([at, after])]
        triangles += [np.column_stack([owner, at, after]),
                      np.column_stack([layer, np.roll(layer, -1), end])]
        parents = np.ones(n, dtype=np.intp)
        parents[end - next_id] = 2
        bounds.append(next_id + n)

    graph = Graph._of(tuple(range(bounds[-1])), np.sort(np.concatenate(edges), axis=1))
    complex = SimplicialComplex2._of(graph, np.sort(np.concatenate(triangles), axis=1))
    return Disk(
        complex=complex,
        center=0,
        layers=tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])),
    )
