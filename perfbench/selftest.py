"""Self-test of the benchmark's correctness gate and its tracing.

Run from the root of a sysquad source tree (about 30 s):

    PYTHONPATH=src python3 perfbench/selftest.py

1. Spans: one traced pass of each workload emits a span for exactly the
   layers that workload calls, each nested directly under the pass span.
2. Mutations: after a clean flat6 pass, dropping one ``q`` record from
   ``squared.complex`` (caught by the output hashes), or shifting one
   ``propa.csv`` row by one (caught by the exact recomputation alone), must
   give the pass a non-zero fail ratio.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import worker
from spans import LAYERS, Tracer

ALL_SPANS = {span for _, span, _ in LAYERS}
CALLED = {
    "flat6": ALL_SPANS - {"fileformat.parse"},
    "hyper7": ALL_SPANS - {"squaring.quasi_isometry"},
    "scale7": ALL_SPANS - {"fileformat.parse", "quadric.ball_isometry"},
    "sweep": ALL_SPANS - {"fileformat.format", "fileformat.parse"},
}


def traced_pass(name: str, workdir: Path):
    workload = worker.WORKLOADS[name](1, workdir)
    tracer = Tracer()
    fns = tracer.functions()
    with tracer.pass_span() as span, tracer.patched_cli(fns):
        raw = workload.execute(fns)
    return workload, raw, tracer, span


def span_problems(name: str, tracer: Tracer, root) -> list[str]:
    problems = []
    layers = [s for s in tracer.spans if s is not root]
    for s in layers:
        if s.parent != root.id or s.pass_id != root.id:
            problems.append(f"{name}: span {s.name} is not nested under its pass")
    seen = {s.name for s in layers}
    if seen != CALLED[name]:
        problems.append(f"{name}: spans {sorted(seen ^ CALLED[name])} differ from the "
                        f"layers the workload calls")
    return problems


def fail_ratio(workload, raw) -> float:
    result = workload.check(raw)
    return len(result.failures) / result.attempted


def mutation_problems(workload, raw) -> list[str]:
    """Each mutation must fail the gate; the propa shift without the hashes too."""
    out = raw[0]
    workload.reference = None
    if fail_ratio(workload, raw) != 0:
        return ["flat6: clean pass fails the gate"]
    reference = workload.check(raw).digests
    problems = []
    for name, mutate, hashed in (("squared.complex", drop_square, True),
                                 ("propa.csv", shift_row, False)):
        workload.reference = reference if hashed else None
        path = out / name
        clean = path.read_text(encoding="utf-8")
        path.write_text(mutate(clean), encoding="utf-8")
        ratio = fail_ratio(workload, raw)
        path.write_text(clean, encoding="utf-8")
        print(f"mutation {mutate.__name__}: fail_ratio {ratio}")
        if ratio == 0:
            problems.append(f"mutation {mutate.__name__} of {name} went unnoticed")
    return problems


def drop_square(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("q "))
    return "".join(lines[:first] + lines[first + 1:])


def shift_row(text: str) -> str:
    lines = text.splitlines()
    lines[4] = ",".join(str(int(x) + 1) for x in lines[4].split(","))
    return "\n".join(lines) + "\n"


def main() -> int:
    problems = []
    base = Path(".bench_build")
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        for name in worker.WORKLOADS:
            workload, raw, tracer, root = traced_pass(name, Path(tmp) / name)
            found = span_problems(name, tracer, root)
            print(f"spans {name}: {len(tracer.spans) - 1} under the pass, "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
            if name == "flat6":
                problems += mutation_problems(workload, raw)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
