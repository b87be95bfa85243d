"""Line-based UTF-8 complex files.

Record types, one per line, ids are nonnegative integers of any size:

    v <id>                  vertex
    e <id> <id>             edge
    t <id> <id> <id>        triangle
    q <id> <id> <id> <id>   square, boundary cycle order
    base <id>               basepoint (at most one)
    # ...                   comment, also allowed after a record

Files mix freely with blank lines. A file may carry triangles or squares
but not both; one with neither reads as a ``SimplicialComplex2`` with no
triangles. Record order does not matter.

Two readers give one result. A file in the layout ``format_complex`` writes
takes the byte path, ``_read_layout``: ASCII digits, the five keywords,
single spaces and LF line ends, every line ended, and ids of at most 18
digits. It makes a few array passes over one ``np.frombuffer`` view: the
line heads give each record's type, the separators on a line check its
arity, and one ``np.fromstring`` turns every id into an int64. Any other
file, and any file with a fault, takes the general path: the text,
decoded as UTF-8, is split line by line and every id token goes through
one ``int`` pass. The general path is the one source of every error
message and line number; the byte path only tells whether a file is sound.

Both paths then replace each declared id by its rank among the declared
ids (its dense index); when the ids are 0..V-1 in order, the rank is the
id. The record checks run as numpy passes over those indices. Ranks keep
the order of the ids, so a canonical form over indices is the canonical
form over ids. An id enters an int64 only when it has at most 18 digits,
where the cast is exact; the general path keeps ids of any size exactly.
Records whose keys already ascend strictly, as ``format_complex`` writes
them, cannot repeat, so they skip the duplicate search and the sorts.

Every rejection carries the offending line number. A file with several
faults reports the first of:

1. a byte that is not UTF-8, at its line;
2. a syntax fault (unknown record type, wrong number of ids, an invalid or
   negative id), at the first faulty line of the whole file;
3. a duplicate vertex, at the first ``v`` line repeating an earlier one;
4. among the other records, in file order, the first line that names an
   undeclared vertex, is a loop edge or repeats an edge, repeats a vertex
   of its cell or a whole cell, or is a second base record (checked in
   that order within a line);
5. a file mixing triangles and squares, at the first cell of the kind
   that appears second;
6. a cell missing a boundary edge, the first such cell in file order; the
   cell store checks this as it is built.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .complexes import (
    CellError,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    _ascending,
    _canonical_rows,
    _first_rows,
    _repeats,
)

_ARITY = {"v": 1, "e": 2, "t": 3, "q": 4, "base": 1}
_CELL = {"t": "triangle", "q": "square"}

# the byte path's layout: its bytes, its keywords blanked for np.fromstring,
# the id count of a record by its line's first byte (-1 for no record type),
# and the longest id, whose value 10**18 - 1 is below 2**63
_LAYOUT = b"0123456789 \nvetqbas"
_BLANK = bytes.maketrans(b"vetqbas", b" " * 7)
_HEAD_ARITY = np.full(256, -1)
_HEAD_ARITY[[ord(kind[0]) for kind in _ARITY]] = list(_ARITY.values())
_MAX_DIGITS = 18


class ComplexFileError(ValueError):
    """Parse failure; message starts with the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _syntax_error(raws: list[str]) -> ComplexFileError:
    """The first syntax fault among lines (comments cut) the bulk pass found one in."""
    for lineno, raw in enumerate(raws, start=1):
        kind, *toks = raw.split() or ("",)
        if not kind:
            continue
        if kind not in _ARITY:
            return ComplexFileError(lineno, f"unknown record type {kind!r}")
        if len(toks) != _ARITY[kind]:
            return ComplexFileError(lineno, f"{kind} record needs {_ARITY[kind]} ids, got {len(toks)}")
        for tok in toks:
            try:
                value = int(tok)
            except ValueError:
                return ComplexFileError(lineno, f"invalid id {tok!r}")
            if value < 0:
                return ComplexFileError(lineno, f"negative id {value}")
    raise AssertionError("no syntax fault found")


def _scan(kind: str, rows: np.ndarray):
    """The record checks of one record type, shared by both paths.

    ``rows`` holds the records as index rows, an undeclared id -1, which
    can only spoil the checks of its own record. Returns the canonical
    keys, and the first faulty record as (row, undeclared, own), or None
    when every record is sound. ``own`` is a loop edge or a cell repeating
    a vertex; a faulty record that is neither repeats an earlier one, or is
    a second base record. Keys that ascend strictly cannot repeat, so only
    keys that do not are searched for duplicates.
    """
    if not len(rows):
        return rows, None
    undeclared = (rows < 0).any(axis=1)
    own = _repeats(rows)
    bad = undeclared | own
    if kind == "base":
        keys = rows
        bad[1:] = True
    else:
        keys = _canonical_rows(rows)
        if not _ascending(keys):
            bad |= ~_first_rows(keys)
    if not bad.any():
        return keys, None
    r = int(np.argmax(bad))
    return keys, (r, bool(undeclared[r]), bool(own[r]))


def _assemble(order: tuple, scans: dict):
    """The complex of sound records; ``scans`` maps each record type to its
    index rows and canonical keys.

    Raises ``CellError`` for the first cell that misses a boundary edge.
    """
    cls, kind = (SquareComplex, "q") if len(scans["q"][0]) else (SimplicialComplex2, "t")
    return cls._from_rows(Graph._of(order, scans["e"][1]), *scans[kind])


def _read_layout(data: bytes):
    """The complex and basepoint of a sound file in the layout
    ``format_complex`` writes, or None for any other file.

    A line is a keyword, then its ids, each after one space, then LF, so
    its id count is its number of spaces. Every field between separators
    is 1 to 18 bytes long, and only the keywords hold letters; blanked to
    spaces, they leave the ids alone for ``np.fromstring``.
    """
    if not data.endswith(b"\n") or data.translate(None, _LAYOUT):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(buf <= 32)  # the spaces and line ends
    gaps = sep[1:] - sep[:-1]  # a field's length plus one
    if (not 1 <= sep[0] <= _MAX_DIGITS
            or gaps.min(initial=2) < 2 or gaps.max(initial=2) > _MAX_DIGITS + 1):
        return None
    del gaps
    ends = np.flatnonzero(buf[sep] == 10)  # each line's LF, as a position in sep
    first = np.concatenate(([0], ends[:-1] + 1))  # each line's first separator
    start = np.concatenate(([0], sep[ends[:-1]] + 1))  # each line's first byte
    head = buf[start]
    word = sep[first] - start  # the keyword's length
    base = head == ord("b")
    if ((ends - first != _HEAD_ARITY[head]).any()  # no record type, or a wrong id count
            or (word != np.where(base, 4, 1)).any()
            or any(data[s:s + 4] != b"base" for s in start[base].tolist())
            or np.count_nonzero(buf > ord("9")) != word.sum()):  # a letter in an id
        return None
    vals = np.fromstring(data.translate(_BLANK), dtype=np.int64, sep=" ")
    if len(vals) != len(sep) - len(ends):
        return None
    del sep, ends, first, start, word
    kinds = np.repeat(head, _HEAD_ARITY[head])  # the record type of each id
    ids = {kind: vals[kinds == ord(kind[0])].reshape(-1, width) for kind, width in _ARITY.items()}
    del vals, kinds

    vid = ids.pop("v")[:, 0]
    n = len(vid)
    if not _ascending(vid):
        vid = np.sort(vid)
        if (vid[1:] == vid[:-1]).any():
            return None
    if not n or (vid[0] == 0 and vid[-1] == n - 1):  # the rank of an id is the id
        order = tuple(range(n))
        if any(x.max(initial=-1) >= n for x in ids.values()):
            return None
        rows = ids
    else:
        order = tuple(vid.tolist())
        rows = {kind: np.searchsorted(vid, x) for kind, x in ids.items()}
        if any((vid[np.minimum(rows[kind], n - 1)] != x).any() for kind, x in ids.items()):
            return None
    scans = {}
    for kind, r in rows.items():
        keys, fault = _scan(kind, r)
        if fault is not None:
            return None
        scans[kind] = r, keys
    if len(rows["t"]) and len(rows["q"]):
        return None
    try:
        complex = _assemble(order, scans)
    except CellError:
        return None
    return complex, (int(ids["base"][0, 0]) if len(ids["base"]) else None)


def _parse_text(text: str):
    """The general path: any file, and the first fault's line and message."""
    lines: dict[str, list[int]] = {kind: [] for kind in _ARITY}  # line numbers per record type
    toks: dict[str, list[str]] = {kind: [] for kind in _ARITY}  # their id tokens, in file order
    sinks = {kind: (n + 1, lines[kind].append, toks[kind].extend) for kind, n in _ARITY.items()}
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    for lineno, parts in enumerate(map(str.split, raws), start=1):
        if parts:
            width, add_line, add_toks = sinks.get(parts[0], (0, None, None))
            if len(parts) != width:
                raise _syntax_error(raws)
            add_line(lineno)
            add_toks(parts[1:])
    try:
        ids = {kind: list(map(int, ts)) for kind, ts in toks.items()}
    except ValueError:
        raise _syntax_error(raws) from None
    if any(min(values, default=0) < 0 for values in ids.values()):
        raise _syntax_error(raws)

    order = sorted(set(ids["v"]))
    index = dict(zip(order, range(len(order))))
    if len(order) < len(ids["v"]):
        rows = np.fromiter(map(index.get, ids["v"]), np.intp, len(ids["v"]))
        r = int(np.argmax(~_first_rows(rows)))
        raise ComplexFileError(lines["v"][r], f"duplicate vertex {ids['v'][r]}")
    scans, faults = {}, []
    for kind in ("e", "t", "q", "base"):
        width = _ARITY[kind]
        rows = np.fromiter(map(index.get, ids[kind], repeat(-1)), np.intp,
                           len(ids[kind])).reshape(-1, width)
        keys, fault = _scan(kind, rows)
        scans[kind] = rows, keys
        if fault is None:
            continue
        r, undeclared, own = fault
        rec = ids[kind][r * width:(r + 1) * width]
        if undeclared:
            message = f"undeclared vertex {next(x for x in rec if x not in index)}"
        elif kind == "base":
            message = "second base record"
        elif kind == "e":
            u, w = rec
            message = f"loop edge ({u}, {w})" if own else f"duplicate edge {(min(u, w), max(u, w))}"
        elif own:
            message = f"{_CELL[kind]} {tuple(rec)} repeats a vertex"
        else:
            message = f"duplicate {_CELL[kind]} {tuple(order[i] for i in keys[r].tolist())}"
        faults.append((lines[kind][r], message))
    if faults:
        raise ComplexFileError(*min(faults))
    if lines["t"] and lines["q"]:
        raise ComplexFileError(max(lines["t"][0], lines["q"][0]), "file mixes triangles and squares")
    # edges are distinct and cells glued to distinct cycles of distinct
    # declared vertices, so only the cells' boundary edges are left to check
    try:
        complex = _assemble(tuple(order), scans)
    except CellError as exc:  # a cell misses a boundary edge
        kind = "q" if lines["q"] else "t"
        raise ComplexFileError(lines[kind][exc.index], str(exc)) from None
    return complex, (ids["base"][0] if ids["base"] else None)


def _decode(data: bytes) -> str:
    """The UTF-8 text of a file; a bad byte is a fault of its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ComplexFileError(lineno, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def parse_complex(text: str) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    """The complex a file's text describes, and its basepoint (None without a base record)."""
    read = _read_layout(text.encode("ascii")) if text.isascii() else None
    return _parse_text(text) if read is None else read


def read_complex(path) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    """The complex the file at ``path`` describes, and its basepoint."""
    with open(path, "rb") as fh:
        data = fh.read()
    read = _read_layout(data)
    if read is not None:
        return read
    text = _decode(data)
    del data  # the general path's peak is the text's, not the bytes' too
    return _parse_text(text)


def format_complex(
    complex: SimplicialComplex2 | SquareComplex, basepoint: int | None = None
) -> str:
    """Deterministic text form: sorted records, no comments, in the layout
    the byte path reads.

    Each record type is one ``%`` format over one flat tuple of ids. Ids
    that are not the indices 0..V-1 are gathered by the index rows from an
    object array, which holds ids of any size.
    """
    g = complex.graph
    if basepoint is not None and not g.has_vertex(basepoint):
        raise ValueError(f"basepoint {basepoint} is not a vertex")
    order, n = g._order, len(g._order)
    rows = (("e", g._ends), ("tq"[complex._length - 3], complex._rows))
    if n and (order[0] != 0 or order[-1] != n - 1):  # ids that are not the indices
        names = np.array(order, dtype=object)
        rows = tuple((kind, names[r]) for kind, r in rows)
    parts = [("v %d\n" * n) % order]
    parts += [(f"{kind}{' %d' * r.shape[1]}\n" * len(r)) % tuple(r.ravel().tolist())
              for kind, r in rows]
    if basepoint is not None:
        parts.append(f"base {basepoint}\n")
    return "".join(parts)
