"""Line-based UTF-8 complex files.

Record types, one per line, ids are nonnegative integers:

    v <id>                  vertex
    e <id> <id>             edge
    t <id> <id> <id>        triangle
    q <id> <id> <id> <id>   square, boundary cycle order
    base <id>               basepoint (at most one)
    # ...                   comment, also allowed after a record

Files mix freely with blank lines. A file may carry triangles or squares
but not both. Parsing is two-pass (vertices first), so record order does
not matter; every rejection carries the offending line number.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .complexes import Graph, SimplicialComplex2, SquareComplex, canonical_cycle

_ARITY = {"v": 1, "e": 2, "t": 3, "q": 4, "base": 1}


class ComplexFileError(ValueError):
    """Parse failure; message starts with the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class ParsedComplex:
    """Raw contents of a complex file, validated but not yet typed."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    triangles: frozenset[tuple[int, int, int]]
    squares: frozenset[tuple[int, int, int, int]]
    basepoint: int | None

    @property
    def kind(self) -> str:
        if self.squares:
            return "square"
        if self.triangles:
            return "simplicial"
        return "graph"

    def to_simplicial(self) -> SimplicialComplex2:
        if self.squares:
            raise ValueError("file carries squares, not a simplicial complex")
        return SimplicialComplex2(Graph(self.vertices, self.edges), self.triangles)

    def to_square(self) -> SquareComplex:
        if self.triangles:
            raise ValueError("file carries triangles, not a square complex")
        return SquareComplex(Graph(self.vertices, self.edges), self.squares)


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


def parse_complex(text: str) -> ParsedComplex:
    recs = list(_records(text))

    vertices: set[int] = set()
    for lineno, kind, ids in recs:
        if kind == "v":
            if ids[0] in vertices:
                raise ComplexFileError(lineno, f"duplicate vertex {ids[0]}")
            vertices.add(ids[0])

    edges: set[tuple[int, int]] = set()
    triangles: set[tuple[int, int, int]] = set()
    squares: set[tuple[int, int, int, int]] = set()
    basepoint: int | None = None
    saw_t_line = None
    saw_q_line = None

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
        elif kind == "t":
            saw_t_line = saw_t_line or lineno
            if len(set(ids)) != 3:
                raise ComplexFileError(lineno, f"triangle {tuple(ids)} repeats a vertex")
            t = tuple(sorted(ids))
            if t in triangles:
                raise ComplexFileError(lineno, f"duplicate triangle {t}")
            triangles.add(t)
        elif kind == "q":
            saw_q_line = saw_q_line or lineno
            if len(set(ids)) != 4:
                raise ComplexFileError(lineno, f"square {tuple(ids)} repeats a vertex")
            s = canonical_cycle(ids)
            if s in squares:
                raise ComplexFileError(lineno, f"duplicate square {s}")
            squares.add(s)
        else:  # base
            if basepoint is not None:
                raise ComplexFileError(lineno, "second base record")
            basepoint = ids[0]

    if saw_t_line and saw_q_line:
        raise ComplexFileError(
            max(saw_t_line, saw_q_line), "file mixes triangles and squares"
        )

    # cell boundary edges must be declared
    for lineno, kind, ids in recs:
        if kind == "t":
            a, b, c = sorted(ids)
            for e in ((a, b), (a, c), (b, c)):
                if e not in edges:
                    raise ComplexFileError(lineno, f"triangle {(a, b, c)} misses edge {e}")
        elif kind == "q":
            for i in range(4):
                u, w = ids[i], ids[(i + 1) % 4]
                e = (min(u, w), max(u, w))
                if e not in edges:
                    raise ComplexFileError(lineno, f"square {tuple(ids)} misses edge {e}")

    return ParsedComplex(
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        triangles=frozenset(triangles),
        squares=frozenset(squares),
        basepoint=basepoint,
    )


def read_complex(path) -> ParsedComplex:
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
    if isinstance(complex, SimplicialComplex2):
        for a, b, c in sorted(complex.triangles):
            out.write(f"t {a} {b} {c}\n")
    else:
        for s in sorted(complex.squares):
            out.write(f"q {s[0]} {s[1]} {s[2]} {s[3]}\n")
    if basepoint is not None:
        if not g.has_vertex(basepoint):
            raise ValueError(f"basepoint {basepoint} is not a vertex")
        out.write(f"base {basepoint}\n")
    return out.getvalue()


def write_complex(
    path, complex: SimplicialComplex2 | SquareComplex, basepoint: int | None = None
) -> None:
    text = format_complex(complex, basepoint)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
