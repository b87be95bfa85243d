"""Line-based UTF-8 complex files.

Record types, one per line, ids are nonnegative integers:

    v <id>                  vertex
    e <id> <id>             edge
    t <id> <id> <id>        triangle
    q <id> <id> <id> <id>   square, boundary cycle order
    base <id>               basepoint (at most one)
    # ...                   comment, also allowed after a record

Files mix freely with blank lines. A file may carry triangles or squares
but not both; one with neither reads as a ``SimplicialComplex2`` with no
triangles. Parsing checks the syntax of the whole file, then declares the
vertices, then reads every other record in file order, so record order
does not matter. The cell store checks each cell's boundary edges, in file
order, as it is built. Every rejection carries the offending line number.
"""

from __future__ import annotations

import io

from .complexes import CellError, Graph, SimplicialComplex2, SquareComplex, canonical_cycle

_ARITY = {"v": 1, "e": 2, "t": 3, "q": 4, "base": 1}
_CELL = {"t": "triangle", "q": "square"}


class ComplexFileError(ValueError):
    """Parse failure; message starts with the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind not in _ARITY:
            raise ComplexFileError(lineno, f"unknown record type {kind!r}")
        if len(parts) - 1 != _ARITY[kind]:
            raise ComplexFileError(
                lineno, f"{kind} record needs {_ARITY[kind]} ids, got {len(parts) - 1}"
            )
        ids = []
        for tok in parts[1:]:
            try:
                value = int(tok)
            except ValueError:
                raise ComplexFileError(lineno, f"invalid id {tok!r}") from None
            if value < 0:
                raise ComplexFileError(lineno, f"negative id {value}")
            ids.append(value)
        yield lineno, kind, ids


def parse_complex(text: str) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    """The complex a file describes, and its basepoint (None without a base record)."""
    recs = list(_records(text))

    vertices: set[int] = set()
    for lineno, kind, ids in recs:
        if kind == "v":
            if ids[0] in vertices:
                raise ComplexFileError(lineno, f"duplicate vertex {ids[0]}")
            vertices.add(ids[0])

    edges: set[tuple[int, int]] = set()
    seen: set[tuple[int, ...]] = set()
    cells: dict[int, list[int]] = {}  # line number -> ids, in file order
    basepoint: int | None = None
    first_line: dict[str, int] = {}

    for lineno, kind, ids in recs:
        if kind == "v":
            continue
        for value in ids:
            if value not in vertices:
                raise ComplexFileError(lineno, f"undeclared vertex {value}")
        if kind == "e":
            u, w = ids
            if u == w:
                raise ComplexFileError(lineno, f"loop edge ({u}, {w})")
            e = (min(u, w), max(u, w))
            if e in edges:
                raise ComplexFileError(lineno, f"duplicate edge {e}")
            edges.add(e)
        elif kind in _CELL:
            first_line.setdefault(kind, lineno)
            if len(set(ids)) != len(ids):
                raise ComplexFileError(lineno, f"{_CELL[kind]} {tuple(ids)} repeats a vertex")
            cell = canonical_cycle(ids)
            if cell in seen:
                raise ComplexFileError(lineno, f"duplicate {_CELL[kind]} {cell}")
            seen.add(cell)
            cells[lineno] = ids
        else:  # base
            if basepoint is not None:
                raise ComplexFileError(lineno, "second base record")
            basepoint = ids[0]

    if len(first_line) == 2:
        raise ComplexFileError(max(first_line.values()), "file mixes triangles and squares")

    cls = SquareComplex if "q" in first_line else SimplicialComplex2
    try:
        return cls(Graph(vertices, edges), cells.values()), basepoint
    except CellError as exc:  # a cell misses a boundary edge
        raise ComplexFileError(list(cells)[exc.index], str(exc)) from None


def read_complex(path) -> tuple[SimplicialComplex2 | SquareComplex, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def format_complex(
    complex: SimplicialComplex2 | SquareComplex, basepoint: int | None = None
) -> str:
    """Deterministic text form: sorted records, no comments."""
    g = complex.graph
    out = io.StringIO()
    for v in sorted(g.vertices):
        out.write(f"v {v}\n")
    for u, w in sorted(g.edges):
        out.write(f"e {u} {w}\n")
    for cell in sorted(complex._cells):
        out.write(("t %d %d %d\n", "q %d %d %d %d\n")[len(cell) - 3] % cell)
    if basepoint is not None:
        if not g.has_vertex(basepoint):
            raise ValueError(f"basepoint {basepoint} is not a vertex")
        out.write(f"base {basepoint}\n")
    return out.getvalue()

