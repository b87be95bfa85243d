"""Disk generators: sizes, structure, determinism, rejection rules."""

import pytest

from sysquad import (
    DiskSpec,
    format_complex,
    girth,
    link,
    non_systolic_counterexamples,
    triangulated_disk,
    verify_systolic,
)

from conftest import LEMMA_SPECS


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


def test_flat_plane_is_constant_degree_disk():
    # the per-layer rule with degree 6 on every layer builds the same disk
    a = triangulated_disk(DiskSpec(radius=2, degrees=(6, 6))).complex
    b = triangulated_disk(DiskSpec(radius=2, degrees=6)).complex
    assert format_complex(a) == format_complex(b)


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
    d = triangulated_disk(DiskSpec(radius=2, degrees=7))
    interior = set(d.layers[0]) | set(d.layers[1])
    for v in interior:
        lk = link(d.complex, v)
        assert len(lk.vertices) == 7
        assert all(len(lk.neighbors(u)) == 2 for u in lk.vertices)
        assert girth(lk) == 7


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


def test_layer_sequence_rule():
    d = triangulated_disk(DiskSpec(radius=2, degrees=(6, 8)))
    for v in d.layers[0]:
        assert len(d.complex.graph.neighbors(v)) == 6
    for v in d.layers[1]:
        assert len(d.complex.graph.neighbors(v)) == 8


def test_layer_sequence_must_cover_all_layers():
    with pytest.raises(ValueError):
        triangulated_disk(DiskSpec(radius=3, degrees=(6, 7)))


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
