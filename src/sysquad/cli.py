"""Command line front end.

Subcommands: generate a triangulated disk, square a based complex, verify a
complex file, emit the Property A CSV, or run the whole chain. Outputs are
deterministic for a fixed configuration and seed, independent of --jobs.

Exit status: 0 when every requested check passes, 1 on a failed check or
violated invariant (first certificate on stderr), 2 on usage or file errors
and when memory runs out.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .complexes import BasedComplex, SimplicialComplex2, SquareComplex
from .fileformat import ComplexFileError, format_complex, read_complex
from .generators import DiskSpec, triangulated_disk
from .metrics import all_pairs, vertex_order
from .propa import property_a_report
from .quadric import (
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_quadrangle_condition,
    check_replacement_rule_A,
    check_replacement_rule_B,
    is_modular,
)
from .reports import DEFAULT_CERT_CAP, CheckReport
from .squaring import check_quasi_isometry, squaring
from .systolic import (
    check_ball_neighbours,
    check_spheres_triangle_free,
    check_triangle_condition,
    verify_systolic,
)


class UsageError(Exception):
    """Bad command line or input combination; exit status 2."""


@dataclass(frozen=True)
class Subject:
    """What a check runs on: the complex, its based form, shared distances.

    ``dist`` is the complex's ``all_pairs`` matrix and ``modular`` its
    ``is_modular`` verdict; both are None when no selected check uses them.
    """

    complex: SimplicialComplex2 | SquareComplex
    based: BasedComplex | None
    dist: np.ndarray | None
    modular: bool | None
    args: argparse.Namespace

    @property
    def cap(self) -> int:
        return self.args.cert_cap


@dataclass(frozen=True)
class Check:
    """One ``--rules`` name: the file kind it applies to and how to run it.

    ``needs_base`` says, given the parsed flags, whether the check needs
    the input's base record. ``uses_dist`` checks share one all-pairs
    distance matrix and one modularity verdict, computed once before any
    of them runs.
    """

    name: str
    kind: str
    needs_base: Callable[[argparse.Namespace], bool]
    run: Callable[[Subject], CheckReport]
    uses_dist: bool = False


def _always(args: argparse.Namespace) -> bool:
    return True


def _never(args: argparse.Namespace) -> bool:
    return False


def _interval_pairs(s: Subject) -> Iterable[tuple[int, int]]:
    """The vertex pairs whose intervals ``intervals`` checks.

    Under --exhaustive, every pair, lazily. Otherwise every (basepoint, v)
    pair, then the new pairs among 2,000 random draws: each draw takes two
    vertices from an RNG seeded with --seed, and an unordered pair not yet
    listed is appended in draw order.

    The draws are ``Random.choice(verts)`` calls, taken in bulk. A call is
    verts[r] for the first r = getrandbits(k) below n = len(verts), with
    k = n.bit_length(). For k <= 32 (any complex that fits in memory) each
    getrandbits(k) is the top k bits of the next 32-bit word of the
    generator, and getrandbits(32 m) is the next m words, least
    significant first. So the 4,000 choices are the first 4,000 words
    that fall below n once shifted right by 32 - k.
    """
    verts = vertex_order(s.complex.graph)
    if s.args.exhaustive:
        return combinations_with_replacement(verts, 2)
    n, base = len(verts), s.based.basepoint
    rng = random.Random(s.args.seed)
    picks, need = [], 4000
    while need:
        m = 2 * need  # more than half of the words fall below n
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        words = words >> (32 - n.bit_length())
        picks.append(words[words < n][:need])
        need -= len(picks[-1])
    pick = np.concatenate(picks).astype(np.intp)
    lo = np.minimum(pick[0::2], pick[1::2])
    hi = np.maximum(pick[0::2], pick[1::2])
    # the pairs through the basepoint are listed already
    b = verts.index(base)
    new = np.flatnonzero((lo != b) & (hi != b))
    key = lo[new] * n + hi[new]
    by = np.argsort(key, kind="stable")  # equal keys stay in draw order
    first = np.ones(len(by), dtype=bool)
    first[1:] = key[by[1:]] != key[by[:-1]]
    drawn = np.zeros(len(new), dtype=bool)
    drawn[by[first]] = True  # the first draw of each pair
    new = new[drawn]
    return [(base, v) for v in verts] + [
        (verts[i], verts[j]) for i, j in zip(lo[new].tolist(), hi[new].tolist())
    ]


# Canonical order: verify and all run the selected checks in this order.
# Each entry resolves its function through this module's globals when it
# runs, so wrapping a name on ``sysquad.cli`` wraps every call of it.
CHECKS = (
    Check("systolic", "simplicial", _never,
          lambda s: verify_systolic(s.complex, s.cap)),
    Check("spheres", "simplicial", _always,
          lambda s: check_spheres_triangle_free(s.based, s.cap)),
    Check("neighbours", "simplicial", _always,
          lambda s: check_ball_neighbours(s.based, s.cap)),
    Check("triangle", "simplicial", _always,
          lambda s: check_triangle_condition(s.based, s.cap)),
    Check("a", "square", _never,
          lambda s: check_replacement_rule_A(s.complex, s.cap)),
    Check("b", "square", _never,
          lambda s: check_replacement_rule_B(s.complex, s.cap)),
    Check("quad", "square", _always,
          lambda s: check_quadrangle_condition(s.based, s.cap)),
    Check("balls", "square", _never,
          lambda s: check_ball_isometry(
              s.complex, s.cap, dist=s.dist, modular=s.modular),
          uses_dist=True),
    Check("intervals", "square", lambda args: not args.exhaustive,
          lambda s: check_interval_isometry(
              s.complex, _interval_pairs(s), s.cap,
              dist=s.dist, modular=s.modular),
          uses_dist=True),
    Check("flat", "square", _always,
          lambda s: check_flat_intervals(s.based, s.cap)),
)
RULE_NAMES = ",".join(c.name for c in CHECKS)


def _select(args: argparse.Namespace, kind: str | None = None,
            kind_label: str | None = None) -> list[Check]:
    """The checks ``--rules`` names, by default every check of ``kind``.

    ``kind`` None accepts every check. The result keeps table order.
    """
    names = args.rules
    if names is None:
        names = [c.name for c in CHECKS if kind in (None, c.kind)]
    by_name = {c.name: c for c in CHECKS}
    for name in names:
        if name not in by_name:
            raise UsageError(f"unknown rule {name!r}; valid rules: {RULE_NAMES}")
        if kind is not None and by_name[name].kind != kind:
            raise UsageError(f"rule {name!r} does not apply to a {kind_label} complex")
    return [c for c in CHECKS if c.name in names]


def _run_checks(checks: list[Check], c, based: BasedComplex | None,
                args: argparse.Namespace) -> list[CheckReport]:
    """Run ``checks`` on one complex; reports keep table order whatever --jobs is.

    Only a False modularity verdict starts a pool of ``--jobs`` threads,
    since only then do the two isometry checks run their exact fallbacks,
    whose large numpy passes overlap on two threads. On 2 CPUs, ``verify
    --jobs 2`` of an R x R grid of squares less its centre vertex took
    0.63-0.70 of the one-thread time at R = 35 (about 4 s per fallback)
    and 0.70-0.91 at R = 25 (about 1 s), but 1.19-1.49 at R = 20 (0.2-0.3
    s). Every other battery runs in table order on this thread, whatever
    --jobs is: its checks take about a millisecond each on the generated
    disks, less than a pool's start and waits.
    """
    dist = modular = None
    if any(check.uses_dist for check in checks):
        dist = all_pairs(c.graph)
        modular = is_modular(c.graph, dist)
    subject = Subject(c, based, dist, modular, args)
    if modular is not False or args.jobs == 1 or len(checks) <= 1:
        return [check.run(subject) for check in checks]
    # imported here: concurrent.futures and the logging it loads take about
    # 6 ms of an import of this module
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        return list(pool.map(lambda check: check.run(subject), checks))


def _certificate_line(rep: CheckReport) -> str:
    if rep.counterexamples:
        return f"{rep.name}: {rep.counterexamples[0]}"
    return f"{rep.name}: failed with {rep.violations} violations"


def _certificates_csv(reports: list[CheckReport]) -> str:
    lines = ["check,passed,kind,vertices,info"]
    for rep in reports:
        for row in rep.to_csv_rows():
            lines.append(",".join(_csv_field(x) for x in row))
    return "\n".join(lines) + "\n"


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def _finish(reports: list[CheckReport], files: tuple[Path, Path] | None,
            brief: bool, notes: tuple[str, ...] = ()) -> int:
    """Shared epilogue of verify and all.

    Writes the text reports and the certificate CSV to ``files`` first,
    so a failed write prints nothing. Then prints ``notes`` and each
    report (one pass/FAIL line each when ``brief``), and puts the first
    failing report's first certificate on stderr.
    """
    if files is not None:
        text_path, csv_path = files
        text_path.write_text("\n".join(rep.to_text() for rep in reports),
                             encoding="utf-8")
        csv_path.write_text(_certificates_csv(reports), encoding="utf-8")
    for line in notes:
        print(line)
    for rep in reports:
        print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}" if brief
              else rep.to_text())
    for rep in reports:
        if not rep.passed:
            print(_certificate_line(rep), file=sys.stderr)
            return 1
    return 0


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _disk_spec(args: argparse.Namespace) -> DiskSpec:
    degrees = args.degree if args.degree is not None else frozenset(args.degrees)
    try:
        return DiskSpec(radius=args.radius, degrees=degrees, seed=args.seed)
    except ValueError as exc:  # a degree rule that cannot be systolic
        raise UsageError(str(exc)) from None


def _cmd_generate(args: argparse.Namespace) -> int:
    disk = triangulated_disk(_disk_spec(args))
    _emit(format_complex(disk.complex, disk.center), args.output)
    return 0


def _cmd_square(args: argparse.Namespace) -> int:
    c, base = read_complex(args.input)
    if isinstance(c, SquareComplex):
        raise UsageError("input already carries squares")
    if base is None:
        raise UsageError("input file has no base record")
    result = squaring(BasedComplex(c, base))
    _emit(
        format_complex(result.squared.complex, result.squared.basepoint),
        args.output,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    c, base = read_complex(args.input)
    if isinstance(c, SquareComplex):
        kind = label = "square"
    else:  # a file with neither triangles nor squares gets the simplicial battery
        kind, label = "simplicial", "simplicial" if len(c._rows) else "graph"
    checks = _select(args, kind, label)
    skipped: list[str] = []
    if base is None:
        skipped = sorted(check.name for check in checks if check.needs_base(args))
        if skipped and args.rules is not None:
            raise UsageError(f"rules {skipped} need a base record in the input")
        checks = [check for check in checks if check.name not in skipped]
    based = BasedComplex(c, base) if base is not None else None
    reports = _run_checks(checks, c, based, args)
    files = None
    if args.output is not None:
        files = (Path(args.output), Path(args.output + ".csv"))
    notes = tuple(f"skipped {name} (no basepoint in input)" for name in skipped)
    return _finish(reports, files, brief=False, notes=notes)


def _cmd_propa(args: argparse.Namespace) -> int:
    c, base = read_complex(args.input)
    if isinstance(c, SimplicialComplex2):
        if len(c._rows):
            raise UsageError("propa needs a square complex (run square first)")
        c = SquareComplex(c.graph)  # a file without cells: its graph, no squares
    if base is None:
        raise UsageError("input file has no base record")
    report = property_a_report(BasedComplex(c, base), args.n_max, args.cert_cap)
    _emit("\n".join(report.csv_lines()) + "\n", args.output)
    if not report.passed:
        print(_certificate_line(report.check), file=sys.stderr)
        return 1
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    checks = _select(args)
    spec = _disk_spec(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    files = (outdir / "reports.txt", outdir / "certificates.csv")

    disk = triangulated_disk(spec)
    (outdir / "disk.complex").write_text(
        format_complex(disk.complex, disk.center), encoding="utf-8"
    )
    b = BasedComplex(disk.complex, disk.center)
    simplicial = [c for c in checks if c.kind == "simplicial"]
    reports = _run_checks(simplicial, disk.complex, b, args)
    if not all(rep.passed for rep in reports):
        return _finish(reports, files, brief=True)

    result = squaring(b, precheck=False)
    (outdir / "squared.complex").write_text(
        format_complex(result.squared.complex, result.squared.basepoint),
        encoding="utf-8",
    )
    reports.append(check_quasi_isometry(result, args.cert_cap))
    square = [c for c in checks if c.kind == "square"]
    reports += _run_checks(square, result.squared.complex, result.squared, args)

    pa = property_a_report(result.squared, args.n_max, args.cert_cap)
    (outdir / "propa.csv").write_text(
        "\n".join(pa.csv_lines()) + "\n", encoding="utf-8"
    )
    reports.append(pa.check)
    return _finish(reports, files, brief=True)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty degree list")
    return values


def _parse_rules(text: str) -> tuple[str, ...]:
    names = tuple(x for x in text.replace(" ", "").split(",") if x)
    if not names:
        raise argparse.ArgumentTypeError("empty rule list")
    return names


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_generation_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int, help="uniform interior degree")
    group.add_argument(
        "--degrees", type=_parse_degrees, metavar="LIST",
        help="comma separated degree set; each interior vertex draws from it",
    )
    p.add_argument("--radius", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rules", type=_parse_rules, metavar="LIST", default=None,
        help="subset of checks: " + RULE_NAMES,
    )
    p.add_argument("--cert-cap", type=_int_at_least(0), default=DEFAULT_CERT_CAP)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument(
        "--exhaustive", action="store_true",
        help="interval isometry over all vertex pairs instead of the default sample",
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="sysquad",
        description="Systolic disk generation, squaring, verification and "
        "Property A reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a triangulated disk")
    _add_generation_flags(p)
    p.add_argument("--output", help="destination file (default stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("square", help="square a based simplicial complex file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="destination file (default stdout)")
    p.set_defaults(handler=_cmd_square)

    p = sub.add_parser("verify", help="run checks against a complex file")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the interval sample")
    _add_check_flags(p)
    p.add_argument(
        "--output",
        help="write the text report here and certificates to <PATH>.csv",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("propa", help="emit the Property A CSV for a squared file")
    p.add_argument("--input", required=True)
    p.add_argument("--n-max", type=_int_at_least(0), default=12)
    p.add_argument("--cert-cap", type=_int_at_least(0), default=DEFAULT_CERT_CAP)
    p.add_argument("--output", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_propa)

    p = sub.add_parser(
        "all", help="generate, verify, square, verify again, report"
    )
    _add_generation_flags(p)
    p.add_argument("--n-max", type=_int_at_least(0), default=12)
    _add_check_flags(p)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(handler=_cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ComplexFileError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing or unreadable input, unwritable output
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:  # a violated invariant of the input
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
