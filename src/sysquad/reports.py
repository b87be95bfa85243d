"""Check reports: pass/fail verdicts with certificates and counters.

Every verification routine returns a CheckReport. A report is
deterministic: certificates are sorted, stats keys are sorted, and the
text/CSV serializations are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_CERT_CAP = 25


@dataclass(frozen=True, order=True)
class Certificate:
    """A single counterexample: which relation failed, on which vertices."""

    kind: str
    vertices: tuple[int, ...]
    info: str = ""


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    counterexamples: tuple[Certificate, ...]
    stats: dict[str, int | str] = field(default_factory=dict)
    violations: int = 0
    cap: int = DEFAULT_CERT_CAP

    @property
    def truncated(self) -> bool:
        return self.violations > len(self.counterexamples)

    def to_text(self) -> str:
        lines = [f"check {self.name}", f"passed {str(self.passed).lower()}"]
        for key in sorted(self.stats):
            lines.append(f"stat {key} {self.stats[key]}")
        lines.append(f"violations {self.violations}")
        for cert in self.counterexamples:
            vs = " ".join(str(v) for v in cert.vertices)
            suffix = f" :: {cert.info}" if cert.info else ""
            lines.append(f"cert {cert.kind} {vs}{suffix}")
        if self.truncated:
            lines.append(f"truncated at cap {self.cap}")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> list[tuple[str, str, str, str, str]]:
        """Rows (check, passed, kind, vertices, info), one per certificate.

        A passing report contributes a single summary row with empty
        certificate columns so it still shows up in the CSV.
        """
        if not self.counterexamples:
            return [(self.name, str(self.passed).lower(), "", "", "")]
        rows = []
        for cert in self.counterexamples:
            vs = " ".join(str(v) for v in cert.vertices)
            rows.append((self.name, str(self.passed).lower(), cert.kind, vs, cert.info))
        return rows


class ReportBuilder:
    """Accumulates certificates and counters during a scan.

    All violations are counted; at most ``cap`` certificates are kept.
    Scans iterate in sorted orders, so the kept prefix is deterministic;
    it is sorted once more when the report is built.
    """

    def __init__(self, name: str, cap: int = DEFAULT_CERT_CAP):
        self.name = name
        self.cap = cap
        self._certs: list[Certificate] = []
        self._violations = 0
        self._stats: dict[str, int | str] = {}

    def count(self, key: str, n: int = 1) -> None:
        cur = self._stats.get(key, 0)
        self._stats[key] = (cur if isinstance(cur, int) else 0) + n

    def set_stat(self, key: str, value: int | str) -> None:
        self._stats[key] = value

    def violation(self, kind: str, vertices: tuple[int, ...], info: str = "") -> None:
        self._violations += 1
        if len(self._certs) < self.cap:
            self._certs.append(Certificate(kind, vertices, info))

    @property
    def violations(self) -> int:
        return self._violations

    def build(self) -> CheckReport:
        return CheckReport(
            name=self.name,
            passed=self._violations == 0,
            counterexamples=tuple(sorted(self._certs)),
            stats=dict(self._stats),
            violations=self._violations,
            cap=self.cap,
        )
