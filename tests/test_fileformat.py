"""Text serialization: roundtrips, validation errors, determinism."""

import pytest
from hypothesis import example, given, settings, strategies as st

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
from sysquad import fileformat
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

# Texts are drawn over five vertex slots and rendered with a label per slot.
# Labels mix small ids with ids at and beyond 2**63 and 2**64, so the
# reader's dense indices carry the work and no fixed-width cast survives.
_LABELS = (0, 1, 2, 3, 4, 2**63 - 1, 2**63, 2**64, 2**64 + 1, 2**70, 2**70 + 1, 2**70 + 2)
_slot = st.integers(min_value=0, max_value=4)
_records = st.one_of(*(
    st.tuples(st.just(kind), st.lists(_slot, min_size=arity, max_size=arity))
    for kind, arity in (("v", 1), ("e", 2), ("t", 3), ("q", 4), ("base", 1))
))
_noise = st.lists(st.one_of(_slot, st.sampled_from(["v", "e", "x", "-1", "1.5", "#", ""])), max_size=5)
# a record whose last id is not a valid id (or, like -0 and 1_0, is one)
_bad_ids = st.tuples(_records, st.sampled_from(["-1", "1.5", "x", "-0", "+2", "1_0"])).map(
    lambda t: (t[0][0], t[0][1][:-1] + [t[1]]))


def _distinct(kind, arity):
    """A cell record on ``arity`` distinct slots among the five."""
    return st.permutations(range(5)).map(lambda slots: (kind, slots[:arity]))


_five = [("v", [v]) for v in range(5)]
_prefixes = st.sampled_from([
    [], _five,
    # every edge among the five slots, so any cell on distinct slots is glued
    _five + [("e", [u, w]) for u in range(5) for w in range(u + 1, 5)],
    # a 5-cycle, so most cells miss an edge
    _five + [("e", [u, (u + 1) % 5]) for u in range(5)],
])


@st.composite
def _texts(draw):
    """Mostly well-formed records over five slots, mixed with comments,
    malformed token lists and arbitrary text; or cells on distinct slots,
    which often parse when they are of one kind. Tokens are joined by
    spaces or tabs, and lines end in LF, CR LF or CR."""
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=5, max_size=5, unique=True))
    gap = draw(st.sampled_from([" ", "\t", " \t  "]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = draw(_prefixes) + draw(st.one_of(
        st.lists(st.one_of(
            _records, _records.map(lambda r: (*r, "# note")), _bad_ids,
            _noise, st.text(max_size=12), st.just("# comment only"),
        ), max_size=12),
        st.one_of(
            st.lists(_distinct("t", 3), max_size=6), st.lists(_distinct("q", 4), max_size=6),
            st.lists(st.one_of(_distinct("t", 3), _distinct("q", 4)), max_size=6),
        ).map(lambda cells: cells + [("base", [0])]),
    ))

    def render(line):
        if isinstance(line, str):
            return line
        if isinstance(line, tuple):  # a record, maybe with a trailing comment
            kind, slots, *note = line
            line = [kind, *slots, *note]
        return gap.join(str(labels[t]) if isinstance(t, int) else t for t in line)

    return end.join(map(render, lines))


@settings(max_examples=300, deadline=None)
@given(_texts())
# 2**64 and 0 agree modulo 2**64, and neither 2**63 nor 2**64 fits an int64
@example("v 0\nv 18446744073709551616\nv 9223372036854775808\n"
         "e 0 18446744073709551616\ne 0 9223372036854775808\n"
         "e 9223372036854775808 18446744073709551616\n"
         "t 18446744073709551616 0 9223372036854775808\nbase 18446744073709551616\n")
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


# ------------------------------------------------------------ the byte path

# Ids as written, at the byte path's edges: 18 digits fit an int64 exactly,
# 19 do not, and 2**63 - 1 and 2**63 straddle its end; leading zeros give a
# second text of one id.
_LAYOUT_LABELS = ("0", "1", "2", "3", "4", "5", "007", "7", "999999999999999999",
                  "1000000000000000000", "9223372036854775807", "9223372036854775808",
                  "000000000000000004", "0000000000000000004")


@st.composite
def _layout_texts(draw):
    """Texts in the layout ``format_complex`` writes: single spaces, LF line
    ends, one record per line. Six slots get labels; slots 0 to 4 are
    declared, in order or shuffled, then edges, cells and a base record.
    Some texts carry faulty records: a repeated line, an undeclared id, a
    loop, a record of the wrong arity, a ``bas`` or ``b`` keyword; some lose
    their last LF."""
    # a quarter of the texts may hold an id of 19 digits, which only the general path reads
    pool = _LAYOUT_LABELS if draw(st.integers(0, 3)) == 0 else [x for x in _LAYOUT_LABELS if len(x) <= 18]
    labels = draw(st.lists(st.sampled_from(pool), min_size=6, max_size=6, unique=True))
    pairs = [(u, w) for u in range(5) for w in range(u + 1, 5)]
    recs = [("v", [v]) for v in range(5)]
    edges = draw(st.one_of(st.just(pairs), st.lists(st.sampled_from(pairs), unique=True)))
    recs += [("e", list(p)) for p in edges]
    kind = draw(st.sampled_from(["t", "q"]))
    width = 3 if kind == "t" else 4
    recs += [(kind, list(c)) for c in draw(st.lists(st.permutations(range(5)).map(
        lambda p: tuple(sorted(p[:width])) if width == 3 else p[:width]), max_size=4))]
    if draw(st.booleans()):
        recs.append(("base", [draw(st.integers(0, 4))]))
    if draw(st.booleans()):
        recs = draw(st.permutations(recs))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(recs)))
        fault = draw(st.one_of(
            st.sampled_from(recs) if recs else st.nothing(),  # a repeated record
            st.tuples(st.sampled_from(["e", "t", "q", "base"]), st.just([5, 0, 1, 2])).map(
                lambda r: (r[0], r[1][:fileformat._ARITY[r[0]]])),  # slot 5 is never declared
            st.integers(0, 4).map(lambda v: ("e", [v, v])),
            st.tuples(st.sampled_from(["v", "e", "t", "q", "base"]), st.integers(0, 5)).map(
                lambda r: (r[0], list(range(r[1])))),
            st.sampled_from(["base", "bas", "b"]).map(lambda k: (k, [0])),
        ))
        recs.insert(at, fault)
    text = "".join(" ".join([k, *(labels[s] for s in slots)]) + "\n" for k, slots in recs)
    return text[:-1] if text and draw(st.integers(0, 4)) == 0 else text


@settings(max_examples=400, deadline=None)
@given(_layout_texts())
@example("v 0\nv 000000000000000004\nv 9223372036854775807\n"
         "e 0 000000000000000004\nbase 9223372036854775807\n")
@example("v 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\nt 0 1 2\nbase 0\nbase 0\n")
def test_layout_text_agrees_with_the_oracle(text):
    # the byte path reads a sound file as the oracle does and gives up on a
    # faulty one; parse_complex then reports the oracle's first error
    read = fileformat._read_layout(text.encode("ascii"))
    try:
        want = brute_parse_complex(text)
    except ComplexFileError as exc:
        assert read is None
        with pytest.raises(ComplexFileError) as ei:
            parse_complex(text)
        assert (ei.value.lineno, str(ei.value)) == (exc.lineno, str(exc))
        return
    got = parse_complex(text)
    assert (type(got[0]), got) == (type(want[0]), want)
    if read is not None:
        assert (type(read[0]), read) == (type(want[0]), want)


@pytest.mark.parametrize("text", [
    "v 0\n",
    "v 0\nv 1\ne 0 1\n",
    "v 7\nv 3\ne 7 3\nbase 7\n",  # shuffled ids, edge ends out of order
    "v 999999999999999999\nv 0\ne 0 999999999999999999\n",
    "v 5\nv 6\nv 7\ne 5 6\ne 6 7\ne 5 7\nt 5 6 7\n",
])
def test_layout_reader_takes_sound_files(text):
    assert fileformat._read_layout(text.encode("ascii")) == brute_parse_complex(text)


@pytest.mark.parametrize("text", [
    "", "v 0", "v 0\n\n", "v  0\n", " v 0\n", "v 0 \n", "v\t0\n", "v 0\r\n", "v 0 # c\n",
    "v 0\nbas 0\n", "v 0\nb 0\n", "v 0\nbasee 0\n", "v 0\nvbase 0\n",
    "v 0\nv 1\nv 0\n", "v 0\ne 0 1\n", "v 0\nv 1\ne 0 1\ne 1 0\n", "v 0\ne 0 0\n",
    "v 0\nbase 0\nbase 0\n", "v 0\nv 1\ne 0\n", "v 0\nv 1\ne 0 1 0\n",
    "v 1000000000000000000\n", "v 0000000000000000000\n", "v 10\nv 1a\n",
])
def test_layout_reader_gives_up_on_other_files(text):
    assert fileformat._read_layout(text.encode("ascii")) is None


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.frozensets(st.integers(min_value=6, max_value=8), min_size=1),
    st.integers(min_value=0, max_value=10**6),
)
def test_written_files_take_the_byte_path(tmp_path_factory, radius, degrees, seed):
    d = triangulated_disk(DiskSpec(radius=radius, degrees=degrees, seed=seed))
    sq = squaring(BasedComplex(d.complex, d.center)).squared
    path = tmp_path_factory.mktemp("layout") / "c.complex"
    for c, base in ((d.complex, d.center), (sq.complex, sq.basepoint)):
        text = format_complex(c, base)
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat, "_parse_text", _general_path_refused)
            got = read_complex(path)
            assert got == parse_complex(text)
        want = c if len(c._rows) else SimplicialComplex2(c.graph)
        assert (type(got[0]), got) == (type(want), (want, base))


def _general_path_refused(text):
    raise AssertionError("the general tokeniser ran on a written file")


def test_ids_past_int64_are_written_exactly():
    big = (10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**70)
    g = Graph(big, [(big[0], big[1]), (big[1], big[2]), (big[0], big[2]), (big[3], big[4])])
    c = SimplicialComplex2(g, [big[:3]])
    text = format_complex(c, 2**70)
    assert text == "".join(f"v {v}\n" for v in big) + (
        f"e {big[0]} {big[1]}\ne {big[0]} {big[2]}\ne {big[1]} {big[2]}\ne {big[3]} {big[4]}\n"
        f"t {big[0]} {big[1]} {big[2]}\nbase {2**70}\n")
    assert parse_complex(text) == (c, 2**70)
