"""Text serialization: roundtrips, validation errors, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from sysquad import (
    BasedComplex,
    ComplexFileError,
    DiskSpec,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    format_complex,
    parse_complex,
    read_complex,
    squaring,
    triangulated_disk,
)
from sysquad.cli import main

from bruteforce import brute_parse_complex


def triangle_complex():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    return SimplicialComplex2(g, [(0, 1, 2)])


def square_complex():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    return SquareComplex(g, [(0, 1, 2, 3)])


# ------------------------------------------------------------------ roundtrips


def test_simplicial_roundtrip(tmp_path):
    c = triangle_complex()
    p = tmp_path / "tri.complex"
    p.write_text(format_complex(c, basepoint=0), encoding="utf-8")
    read, base = read_complex(p)
    assert type(read) is SimplicialComplex2
    assert base == 0
    assert read == c


def test_square_roundtrip(tmp_path):
    c = square_complex()
    p = tmp_path / "sq.complex"
    p.write_text(format_complex(c), encoding="utf-8")
    read, base = read_complex(p)
    assert type(read) is SquareComplex
    assert base is None
    assert read == c


def test_graph_kind_when_no_cells():
    c, base = parse_complex("v 0\nv 1\ne 0 1\n")
    assert type(c) is SimplicialComplex2
    assert c.triangles == frozenset()
    assert c.graph.edges == frozenset({(0, 1)})
    assert base is None


def test_format_is_deterministic():
    c = triangle_complex()
    assert format_complex(c, basepoint=2) == format_complex(c, basepoint=2)
    # construction order must not leak into the output
    g2 = Graph([2, 1, 0], [(0, 2), (2, 1), (1, 0)])
    c2 = SimplicialComplex2(g2, [(2, 1, 0)])
    assert format_complex(c2) == format_complex(c)


def test_comments_and_blank_lines_ignored():
    text = "# header\nv 0\n\nv 1\ne 0 1  # trailing note\n"
    c, _ = parse_complex(text)
    assert c.graph.vertices == frozenset({0, 1})
    assert c.graph.edges == frozenset({(0, 1)})


def test_write_read_file_roundtrip_bytes(tmp_path):
    c = square_complex()
    p1 = tmp_path / "a.complex"
    p2 = tmp_path / "b.complex"
    p1.write_text(format_complex(c, basepoint=3), encoding="utf-8")
    p2.write_text(format_complex(c, basepoint=3), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.frozensets(st.integers(min_value=6, max_value=8), min_size=1),
    st.integers(min_value=0, max_value=10**6),
)
def test_generated_disk_and_squaring_roundtrip(radius, degrees, seed):
    d = triangulated_disk(DiskSpec(radius=radius, degrees=degrees, seed=seed))
    sq = squaring(BasedComplex(d.complex, d.center)).squared
    c, base = parse_complex(format_complex(d.complex, d.center))
    assert (type(c), c, base) == (SimplicialComplex2, d.complex, d.center)
    c, base = parse_complex(format_complex(sq.complex, sq.basepoint))
    # radius 0 squares nothing, and a file without cells reads as triangles
    want = sq.complex if sq.complex.squares else SimplicialComplex2(sq.graph)
    assert (type(c), c, base) == (type(want), want, sq.basepoint)


# ---------------------------------------------------------------- parse errors


def err(text):
    with pytest.raises(ComplexFileError) as ei:
        parse_complex(text)
    return ei.value


def test_duplicate_vertex_line_number():
    e = err("v 0\nv 1\nv 0\n")
    assert e.lineno == 3
    assert "duplicate vertex 0" in str(e)


def test_undeclared_endpoint():
    e = err("v 0\ne 0 1\n")
    assert e.lineno == 2
    assert "undeclared vertex 1" in str(e)


def test_loop_edge():
    e = err("v 0\ne 0 0\n")
    assert "loop edge" in str(e)


def test_duplicate_edge():
    e = err("v 0\nv 1\ne 0 1\ne 1 0\n")
    assert e.lineno == 4


def test_duplicate_triangle():
    text = "v 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\nt 0 1 2\nt 2 0 1\n"
    e = err(text)
    assert e.lineno == 8
    assert "duplicate triangle" in str(e)


def test_triangle_repeated_vertex():
    e = err("v 0\nv 1\ne 0 1\nt 0 1 1\n")
    assert "repeats a vertex" in str(e)


def test_triangle_missing_edge_reported_with_line():
    e = err("v 0\nv 1\nv 2\ne 0 1\ne 1 2\nt 0 1 2\n")
    assert e.lineno == 6
    assert "misses edge" in str(e)


def test_square_missing_boundary_edge():
    text = "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\nq 0 1 2 3\n"
    e = err(text)
    assert e.lineno == 8
    assert "misses edge" in str(e)


def test_mixing_triangles_and_squares():
    text = (
        "v 0\nv 1\nv 2\nv 3\n"
        "e 0 1\ne 1 2\ne 0 2\ne 2 3\ne 0 3\n"
        "t 0 1 2\nq 0 1 2 3\n"
    )
    e = err(text)
    assert "mixes triangles and squares" in str(e)


def test_second_base_record():
    e = err("v 0\nbase 0\nbase 0\n")
    assert e.lineno == 3
    assert "second base" in str(e)


def test_base_must_be_declared():
    e = err("v 0\nbase 5\n")
    assert "undeclared vertex 5" in str(e)


def test_unknown_record_type():
    e = err("v 0\nx 1 2\n")
    assert e.lineno == 2
    assert "unknown record type" in str(e)


def test_wrong_arity():
    e = err("v 0\nv 1\ne 0\n")
    assert e.lineno == 3


def test_non_integer_token():
    e = err("v zero\n")
    assert "invalid id" in str(e)


def test_negative_id():
    e = err("v -3\n")
    assert "negative id" in str(e)


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_complex(tmp_path / "absent.complex")


def test_cellless_file_reads_as_triangle_complex(tmp_path, capsys):
    # a based path: no triangles to read, and propa takes its graph as squares
    p = tmp_path / "path.complex"
    p.write_text("v 0\nv 1\nv 2\ne 0 1\ne 1 2\nbase 0\n")
    c, base = read_complex(p)
    assert type(c) is SimplicialComplex2
    assert c.triangles == frozenset()
    assert base == 0
    assert main(["propa", "--input", str(p), "--n-max", "2"]) == 0
    assert capsys.readouterr().out == (
        "n,norm,max_diff,ratio_num,ratio_den,edges_checked\n"
        "0,1,2,2,1,2\n1,3,4,4,3,2\n2,6,6,1,1,2\n"
    )


# --------------------------------------------------------------------- fuzzing

_id = st.integers(min_value=0, max_value=4).map(str)
_records = st.one_of(*(
    st.lists(_id, min_size=arity, max_size=arity).map(lambda ids, kind=kind: " ".join((kind, *ids)))
    for kind, arity in (("v", 1), ("e", 2), ("t", 3), ("q", 4), ("base", 1))
))
_noise = st.lists(st.one_of(_id, st.sampled_from(["v", "e", "x", "-1", "1.5", "#", ""])), max_size=5)


def _distinct(kind, arity):
    """A cell record on ``arity`` distinct ids among the five."""
    return st.permutations(range(5)).map(lambda ids: " ".join((kind, *map(str, ids[:arity]))))


_five = "".join(f"v {v}\n" for v in range(5))
_prefixes = st.sampled_from([
    "", _five,
    # every edge among the five ids, so any cell on distinct ids is glued
    _five + "".join(f"e {u} {w}\n" for u in range(5) for w in range(u + 1, 5)),
    # a 5-cycle, so most cells miss an edge
    _five + "".join(f"e {u} {(u + 1) % 5}\n" for u in range(5)),
])
# mostly well-formed records over five ids, mixed with comments, malformed
# token lists and arbitrary text; or cells of one kind on distinct ids, which
# often parse
_texts = st.one_of(
    st.tuples(_prefixes, st.lists(st.one_of(
        _records, _records.map(lambda r: r + "  # note"),
        _noise.map(" ".join), st.text(max_size=12),
    ), max_size=12)),
    st.tuples(_prefixes, st.one_of(
        st.lists(_distinct("t", 3), max_size=6), st.lists(_distinct("q", 4), max_size=6),
    ).map(lambda cells: cells + ["base 0"])),
).map(lambda t: t[0] + "\n".join(t[1]))


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_fuzzed_text_parses_or_names_its_line(text):
    # exact agreement with the three-pass oracle: the same first error, or
    # equal complexes of the same type and the same basepoint
    try:
        want = brute_parse_complex(text)
    except ComplexFileError as exc:
        with pytest.raises(ComplexFileError) as ei:
            parse_complex(text)
        assert (ei.value.lineno, str(ei.value)) == (exc.lineno, str(exc))
        return
    got = parse_complex(text)
    assert type(got[0]) is type(want[0])
    assert got == want
    assert parse_complex(format_complex(*got)) == got
