"""Correctness gate: what a passing sysquad output must look like.

Each function returns a list of failure messages; an empty list passes.
Only the standard library is used, so the gate does not trust the code
it checks.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

PROPA_HEADER = "n,norm,max_diff,ratio_num,ratio_den,edges_checked"


def report_failures(text: str) -> list[str]:
    """Every ``check`` block must read ``passed true`` and ``violations 0``."""
    failures = []
    checks = 0
    name = None
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "check":
            checks += 1
            name = value
        elif key == "passed" and value != "true":
            failures.append(f"{name}: passed {value}")
        elif key == "violations" and value != "0":
            failures.append(f"{name}: violations {value}")
    if checks == 0:
        failures.append("no check reports in output")
    return failures


def propa_failures(csv_text: str, edges: int, n_max: int = 12) -> list[str]:
    """Recompute every Property A row exactly.

    Row n must carry norm (n+2)(n+1)/2, max_diff 2(n+1), the reduced ratio
    4/(n+2) = max_diff/norm, and edges_checked equal to the squared
    complex's edge count.
    """
    lines = csv_text.splitlines()
    if not lines or lines[0] != PROPA_HEADER:
        return ["propa.csv: bad header"]
    rows = lines[1:]
    if len(rows) != n_max + 1:
        return [f"propa.csv: {len(rows)} rows, want {n_max + 1}"]
    failures = []
    for n, row in enumerate(rows):
        try:
            rn, norm, max_diff, num, den, checked = (int(x) for x in row.split(","))
        except ValueError:
            failures.append(f"propa.csv row {n}: unreadable {row!r}")
            continue
        ratio = Fraction(4, n + 2)
        good = (
            rn == n
            and Fraction(norm) == Fraction((n + 2) * (n + 1), 2)
            and max_diff == 2 * (n + 1)
            and (num, den) == (ratio.numerator, ratio.denominator)
            and Fraction(max_diff, norm) == ratio
            and checked == edges
        )
        if not good:
            failures.append(f"propa.csv row {n}: {row!r}")
    return failures


def complex_sizes(text: str) -> dict[str, int]:
    """Record counts of a complex file: vertices, edges, triangles, squares."""
    counts = {"v": 0, "e": 0, "t": 0, "q": 0}
    for line in text.splitlines():
        kind = line.split(" ", 1)[0]
        if kind in counts:
            counts[kind] += 1
    return {"V": counts["v"], "E": counts["e"],
            "triangles": counts["t"], "squares": counts["q"]}


def report_stats(text: str) -> dict[str, dict[str, int | str]]:
    """Work counts per check, from the ``stat`` lines of report text."""
    out: dict[str, dict[str, int | str]] = {}
    name = ""
    for line in text.splitlines():
        parts = line.split(" ")
        if parts[0] == "check":
            name = parts[1]
            out.setdefault(name, {})
        elif parts[0] == "stat" and len(parts) == 3:
            out[name][parts[1]] = int(parts[2]) if parts[2].isdigit() else parts[2]
    return out


def without_stats(text: str) -> str:
    """Report text minus ``stat`` lines, whose counters may change legitimately."""
    return "\n".join(l for l in text.splitlines() if not l.startswith("stat "))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_failures(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Names of outputs whose hash differs from the reference pass."""
    return [name for name in sorted(reference) if digests.get(name) != reference[name]]
