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

A file is read in one bulk pass: each line is split once, every id token
goes through one ``int`` pass, and each declared id is replaced by its rank
among the declared ids (its dense index). The record checks then run as
numpy passes over those indices. Ranks keep the order of the ids, so a
canonical form over indices is the canonical form over ids, and no id,
however large, is ever cast to a fixed-width integer.

Every rejection carries the offending line number. A file with several
faults reports the first of:

1. a syntax fault (unknown record type, wrong number of ids, an invalid or
   negative id), at the first faulty line of the whole file;
2. a duplicate vertex, at the first ``v`` line repeating an earlier one;
3. among the other records, in file order, the first line that names an
   undeclared vertex, is a loop edge or repeats an edge, repeats a vertex
   of its cell or a whole cell, or is a second base record (checked in
   that order within a line);
4. a file mixing triangles and squares, at the first cell of the kind
   that appears second;
5. a cell missing a boundary edge, the first such cell in file order; the
   cell store checks this as it is built.
"""

from __future__ import annotations

from itertools import combinations, repeat

import numpy as np

from .complexes import (
    CellError,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    _canonical_rows,
    _first_rows,
)

_ARITY = {"v": 1, "e": 2, "t": 3, "q": 4, "base": 1}
_CELL = {"t": "triangle", "q": "square"}


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


def _first_fault(kind, lines, ids, index, order):
    """The index rows of one record type, their canonical forms, and the
    (line number, message) of the first faulty record, or None."""
    width = _ARITY[kind]
    rows = np.fromiter(map(index.get, ids, repeat(-1)), np.intp, len(ids)).reshape(-1, width)
    # an undeclared id is -1, which can only spoil the checks of its own line
    undeclared = (rows < 0).any(axis=1)
    own = np.zeros(len(rows), dtype=bool)  # a loop edge, or a cell repeating a vertex
    for i, j in combinations(range(width), 2):
        own |= rows[:, i] == rows[:, j]
    if kind == "base":
        keys = rows
        repeated = np.arange(len(rows)) > 0
    else:
        keys = _canonical_rows(rows)
        repeated = ~_first_rows(keys)
    bad = np.flatnonzero(undeclared | own | repeated)
    if not len(bad):
        return rows, keys, None
    r = int(bad[0])
    rec = ids[r * width:(r + 1) * width]
    if undeclared[r]:
        message = f"undeclared vertex {next(x for x in rec if x not in index)}"
    elif kind == "base":
        message = "second base record"
    elif kind == "e":
        u, w = rec
        message = f"loop edge ({u}, {w})" if own[r] else f"duplicate edge {(min(u, w), max(u, w))}"
    elif own[r]:
        message = f"{_CELL[kind]} {tuple(rec)} repeats a vertex"
    else:
        message = f"duplicate {_CELL[kind]} {tuple(order[i] for i in keys[r].tolist())}"
    return rows, keys, (lines[r], message)


def parse_complex(text: str) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    """The complex a file describes, and its basepoint (None without a base record)."""
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
    scans = {kind: _first_fault(kind, lines[kind], ids[kind], index, order)
             for kind in ("e", "t", "q", "base")}
    first = min((fault for _, _, fault in scans.values() if fault is not None), default=None)
    if first is not None:
        raise ComplexFileError(*first)
    if lines["t"] and lines["q"]:
        raise ComplexFileError(max(lines["t"][0], lines["q"][0]), "file mixes triangles and squares")

    # the scan has the index rows: edges are distinct and cells glued to
    # distinct cycles of distinct declared vertices, so only the cells'
    # boundary edges are left to check
    kind = "q" if lines["q"] else "t"
    cls = SquareComplex if kind == "q" else SimplicialComplex2
    graph = Graph._of(tuple(order), scans["e"][1])
    rows, keys, _ = scans[kind]
    try:
        complex = cls._from_rows(graph, rows, keys)
    except CellError as exc:  # a cell misses a boundary edge
        raise ComplexFileError(lines[kind][exc.index], str(exc)) from None
    return complex, (ids["base"][0] if ids["base"] else None)


def read_complex(path) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def format_complex(
    complex: SimplicialComplex2 | SquareComplex, basepoint: int | None = None
) -> str:
    """Deterministic text form: sorted records, no comments.

    Each id is turned into text once; the records gather those strings by
    the sorted index rows.
    """
    g = complex.graph
    if basepoint is not None and not g.has_vertex(basepoint):
        raise ValueError(f"basepoint {basepoint} is not a vertex")
    names = np.array(list(map(str, g._order)), dtype=object)
    kind = "tq"[complex._length - 3]
    lines = ["v " + v + "\n" for v in names.tolist()]
    lines += [" ".join(("e", *row)) + "\n" for row in names[g._ends].tolist()]
    lines += [" ".join((kind, *row)) + "\n" for row in names[complex._rows].tolist()]
    if basepoint is not None:
        lines.append(f"base {basepoint}\n")
    return "".join(lines)
