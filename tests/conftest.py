"""Shared instances: lemma-scale disks, the two radius-8 suites, mutants.

Also a per-vertex view of the weights from the ``brute_profile`` oracle,
and an id view of the interval store.
"""

import random

import numpy as np
import pytest

import sysquad as sq
from sysquad import propa
from sysquad.complexes import _h1_rank, _sides

from bruteforce import brute_profile

# five lemma-scale disks: two uniform degree-6, one degree-7, two mixed random
LEMMA_SPECS = (
    sq.DiskSpec(radius=6, degrees=6),
    sq.DiskSpec(radius=5, degrees=6),
    sq.DiskSpec(radius=4, degrees=7),
    sq.DiskSpec(radius=4, degrees=frozenset({6, 7}), seed=1),
    sq.DiskSpec(radius=3, degrees=frozenset({6, 7, 8}), seed=2),
)


@pytest.fixture(scope="session")
def lemma_disks():
    return tuple(sq.triangulated_disk(spec) for spec in LEMMA_SPECS)


@pytest.fixture(scope="session")
def disk6_r8():
    return sq.triangulated_disk(sq.DiskSpec(radius=8, degrees=6))


@pytest.fixture(scope="session")
def disk7_r8():
    return sq.triangulated_disk(sq.DiskSpec(radius=8, degrees=7))


@pytest.fixture(scope="session")
def squaring6(disk6_r8):
    return sq.squaring(sq.BasedComplex(disk6_r8.complex, disk6_r8.center))


@pytest.fixture(scope="session")
def squaring7(disk7_r8):
    return sq.squaring(sq.BasedComplex(disk7_r8.complex, disk7_r8.center))


@pytest.fixture(scope="session")
def flat6_squared():
    """The benchmark's flat6 squaring: degree 6, radius 12, 469 vertices."""
    disk = sq.triangulated_disk(sq.DiskSpec(radius=12, degrees=6))
    return sq.squaring(sq.BasedComplex(disk.complex, disk.center)).squared


@pytest.fixture(scope="session")
def hyper7_squared():
    """The benchmark's hyper7 squaring: degree 7, radius 5, 617 vertices."""
    disk = sq.triangulated_disk(sq.DiskSpec(radius=5, degrees=7))
    return sq.squaring(sq.BasedComplex(disk.complex, disk.center)).squared


@pytest.fixture(scope="session")
def small_disk():
    return sq.triangulated_disk(sq.DiskSpec(radius=2, degrees=6))


@pytest.fixture(scope="session")
def small_squaring(small_disk):
    return sq.squaring(sq.BasedComplex(small_disk.complex, small_disk.center))


def k23_graph():
    """K_{2,3}: sides {0, 1} and {2, 3, 4}."""
    return sq.Graph(range(5), [(u, m) for u in (0, 1) for m in (2, 3, 4)])


def rule_a_mutant():
    """Two squares over a K_{2,3}, outer square missing."""
    g = k23_graph()
    return sq.SquareComplex(g, [(0, 2, 1, 3), (0, 3, 1, 4)])


def rule_b_mutant():
    """Three squares around a hub whose hexagon has no chord."""
    # hub 0; hexagon 1 2 3 4 5 6 with corners 1, 3, 5 adjacent to the hub
    edges = [(0, 1), (0, 3), (0, 5),
             (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
    g = sq.Graph(range(7), edges)
    squares = [(0, 1, 2, 3), (0, 3, 4, 5), (0, 5, 6, 1)]
    return sq.SquareComplex(g, squares)


def k55_two_thirds():
    """K_{5,5} (0..4 | 5..9) with a seeded two thirds of its 100 embedded
    4-cycles filled: 65 squares, 84 rule-A and 132 rule-B violations."""
    g = sq.Graph(range(10), [(a, b) for a in range(5) for b in range(5, 10)])
    rng = random.Random(1)
    return sq.SquareComplex(g, [q for q in sq.enumerate_embedded_4cycles(g) if rng.random() < 2 / 3])


def h1_rank(c):
    """The mod-2 first-homology rank that ``verify_systolic`` computes, of a connected complex."""
    g = c.graph
    n = len(g._order)
    return _h1_rank(_sides(c._rows, g._keys, n), len(g._ends), n)


def interval(b, v):
    """Row v of the interval store, every vertex stored, as a frozenset of ids.

    A vertex the basepoint does not reach has no interval (its row holds
    only itself), so it raises ``b.down``'s ``ValueError``.
    """
    g = b.graph
    i, n = g._position(v), len(g._order)
    if b._lev[i] < 0:
        raise ValueError(f"vertex {v} is unreachable from the basepoint")
    row = np.unpackbits(b._intervals(np.arange(n), n)[i], count=n)
    return frozenset(g._order[j] for j in np.flatnonzero(row).tolist())


def k23_complex_based():
    """Bare K_{2,3} square complex based at a 2-side vertex: non-flat interval."""
    return sq.BasedComplex(sq.SquareComplex(k23_graph(), []), 0)


@pytest.fixture
def mutants():
    return rule_a_mutant(), rule_b_mutant(), k23_complex_based()


def weights(b, v, n):
    """f_{n,v} as {vertex: weight}, zeros dropped: row n of ``brute_profile``."""
    ids, rows = brute_profile(b, v, propa._weight_table(n))
    return {int(w): int(x) for w, x in zip(ids, rows[n]) if x}


def l1(f, g):
    """The l1 distance between two weight maps."""
    return sum(abs(f.get(w, 0) - g.get(w, 0)) for w in f.keys() | g.keys())
