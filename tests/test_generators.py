"""Disk generators: sizes, structure, determinism, rejection rules."""

import pytest

from sysquad import (
    DiskSpec,
    format_complex,
    triangulated_disk,
    verify_systolic,
)

from bruteforce import brute_is_connected, brute_triangulated_disk, link, non_systolic_counterexamples
from conftest import LEMMA_SPECS

# Radius 0-5 for each rule, seeds 0-11 for the mixed rules. A constant
# degree draws from a one-element list, so its seed cannot change the disk.
ORACLE_GRID = tuple(
    DiskSpec(radius=r, degrees=degs, seed=s)
    for degs, seeds in ((6, 1), (7, 1), (8, 1), (11, 1), (frozenset({6, 7}), 12),
                        (frozenset({6, 7, 8}), 12), (frozenset({6, 9}), 12))
    for r in range(6) for s in range(seeds)
) + (DiskSpec(radius=6, degrees=6),)
# the benchmark's two disks: flat6 and hyper7
BENCH_SPECS = (DiskSpec(radius=12, degrees=6), DiskSpec(radius=5, degrees=7))
# rings of thousands of entries, where the last window wraps to the first
LARGE_SPECS = (DiskSpec(radius=7, degrees=7),) + tuple(
    DiskSpec(radius=6, degrees=frozenset({6, 9}), seed=s) for s in range(5))


def test_radius_zero_is_a_point():
    d = triangulated_disk(DiskSpec(radius=0, degrees=6))
    assert len(d.complex.graph.vertices) == 1
    assert not d.complex.graph.edges
    assert d.layers == ((d.center,),)


def test_degree6_radius1_sizes():
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    c = d.complex
    assert len(c.graph.vertices) == 7
    assert len(c.graph.edges) == 12
    assert len(c.triangles) == 6


def test_degree6_radius2_sizes():
    d = triangulated_disk(DiskSpec(radius=2, degrees=6))
    c = d.complex
    assert len(c.graph.vertices) == 19
    assert len(c.graph.edges) == 42
    assert len(c.triangles) == 24


def test_flat_plane_counts_follow_hex_formula():
    for r in range(5):
        d = triangulated_disk(DiskSpec(radius=r, degrees=6))
        assert len(d.complex.graph.vertices) == 3 * r * r + 3 * r + 1, f"r={r}"


def test_flat_plane_radius3_has_37_vertices():
    d = triangulated_disk(DiskSpec(radius=3, degrees=6))
    assert len(d.complex.graph.vertices) == 37


def test_euler_characteristic_is_one():
    for spec in LEMMA_SPECS:
        c = triangulated_disk(spec).complex
        v = len(c.graph.vertices)
        e = len(c.graph.edges)
        t = len(c.triangles)
        assert v - e + t == 1, f"{spec}"


def test_layers_partition_by_distance():
    d = triangulated_disk(DiskSpec(radius=3, degrees=7))
    seen = set()
    for layer in d.layers:
        assert not (seen & set(layer))
        seen |= set(layer)
    assert seen == set(d.complex.graph.vertices)


def test_interior_links_are_cycles_of_the_requested_degree():
    rules = (6, 7, 9, frozenset({6, 7}), frozenset({6, 7, 8}), frozenset({6, 9}))
    for degrees in rules:
        allowed = {degrees} if isinstance(degrees, int) else degrees
        for radius in range(1, 6):
            for seed in range(3):
                spec = DiskSpec(radius=radius, degrees=degrees, seed=seed)
                d = triangulated_disk(spec)
                for v in (v for layer in d.layers[:-1] for v in layer):
                    lk = link(d.complex, v)
                    assert len(lk.vertices) in allowed, f"{spec} {v}"
                    assert all(len(lk.neighbors(u)) == 2 for u in lk.vertices)
                    assert brute_is_connected(lk), f"{spec} {v}"


def test_matches_arc_by_arc_oracle():
    for spec in ORACLE_GRID + LEMMA_SPECS + BENCH_SPECS + LARGE_SPECS:
        got, want = triangulated_disk(spec), brute_triangulated_disk(spec)
        assert format_complex(got.complex) == format_complex(want.complex), f"{spec}"
        assert got.center == want.center, f"{spec}"
        assert got.layers == want.layers, f"{spec}"


def test_mixed_degree_rule_is_seeded():
    spec = DiskSpec(radius=3, degrees=frozenset({6, 7}), seed=9)
    a = triangulated_disk(spec).complex
    b = triangulated_disk(spec).complex
    assert format_complex(a) == format_complex(b)
    other = triangulated_disk(DiskSpec(radius=3, degrees=frozenset({6, 7}), seed=10)).complex
    assert format_complex(other) != format_complex(a)


def test_generation_is_deterministic_for_all_suite_specs():
    for spec in LEMMA_SPECS:
        a = format_complex(triangulated_disk(spec).complex)
        b = format_complex(triangulated_disk(spec).complex)
        assert a == b, f"{spec}"


def test_every_suite_disk_verifies_systolic(lemma_disks):
    for d in lemma_disks:
        rep = verify_systolic(d.complex)
        assert rep.passed, rep.to_text()


def test_degree_below_six_rejected():
    with pytest.raises(ValueError, match="cannot be systolic"):
        triangulated_disk(DiskSpec(radius=2, degrees=5))
    with pytest.raises(ValueError, match="cannot be systolic"):
        triangulated_disk(DiskSpec(radius=2, degrees=frozenset({5, 6})))


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="radius"):
        triangulated_disk(DiskSpec(radius=-1, degrees=6))


def test_cyclic_bs_development_matches_constant_degree():
    # a one-element degree set draws the constant degree at every vertex
    a = triangulated_disk(DiskSpec(radius=2, degrees=frozenset({8}), seed=5)).complex
    b = triangulated_disk(DiskSpec(radius=2, degrees=8)).complex
    assert format_complex(a) == format_complex(b)


def test_counterexample_corpus_tags():
    corpus = non_systolic_counterexamples()
    assert len(corpus) >= 3
    for c, tag in corpus:
        rep = verify_systolic(c)
        assert not rep.passed, tag
        kinds = {cert.kind for cert in rep.counterexamples}
        assert tag in kinds, f"{tag} not in {kinds}"
