"""One workload's passes, in a fresh interpreter, as JSON on stdout.

``run.py`` starts this file once per benchmark run, so ``ru_maxrss`` at
the end is the peak of a process that ran only this workload. A pass is
timed without any wrapper unless it is a traced pass; traced and untraced
passes alternate in a traced run. Outputs are checked after each pass,
outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import sysquad.cli
from sysquad import BasedComplex, DiskSpec, Graph, SimplicialComplex2
from sysquad.metrics import vertex_order

import gate
from spans import RAW, Tracer

N_MAX = 12  # the CLI default for propa and all


@dataclass
class PassResult:
    wall_s: float
    basepoint_ms: list[float]  # one sample per basepoint; only the sweep has them
    attempted: int
    failures: dict[str, list[str]]  # failed operation -> messages
    digests: dict[str, str]
    sizes: dict[str, int]
    work: dict[str, dict]


@dataclass
class CliOp:
    argv: list[str]
    rc: int | None = None
    error: str = ""
    stdout: str = ""


def run_cli(argv: list[str]) -> CliOp:
    op = CliOp(argv)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            op.rc = sysquad.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        op.error = f"exit {exc.code}"
    except Exception as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.stdout = buf.getvalue()
    return op


class CliWorkload:
    """A fixed chain of ``sysquad`` subcommands writing into one directory.

    ``outputs`` maps each output to the index of the command that makes
    it: a file in the output directory, or ``stdout:<label>`` for the text
    a command prints. ``reports`` names the outputs that hold check reports.
    """

    outputs: dict[str, int]
    reports: tuple[str, ...]
    reference_pass = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = None

    def commands(self, out: Path, jobs: int) -> list[list[str]]:
        raise NotImplementedError

    def execute(self, fns, out: Path | None = None, jobs: int = 2):
        out = out or self.out
        t0 = time.perf_counter()
        ops = [run_cli(argv) for argv in self.commands(out, jobs)]
        return out, ops, time.perf_counter() - t0

    def check(self, raw) -> PassResult:
        out, ops, wall = raw
        failures: dict[str, list[str]] = {}

        def fail(i: int, message: str) -> None:
            failures.setdefault(f"{ops[i].argv[0]}#{i}", []).append(message)

        for i, op in enumerate(ops):
            if op.error or op.rc != 0:
                fail(i, op.error or f"exit {op.rc}")
        texts = {}
        for name, i in self.outputs.items():
            if name.startswith("stdout:"):
                texts[name] = ops[i].stdout
                continue
            try:
                texts[name] = (out / name).read_text(encoding="utf-8")
            except OSError as exc:
                fail(i, f"{name}: {exc}")
                texts[name] = ""
        work: dict[str, dict] = {}
        for name in self.reports:
            for message in gate.report_failures(texts[name]):
                fail(self.outputs[name], message)
            work.update(gate.report_stats(texts[name]))
            texts[name] = gate.without_stats(texts[name])
        squared = gate.complex_sizes(texts["squared.complex"])
        for message in gate.propa_failures(texts["propa.csv"], squared["E"], N_MAX):
            fail(self.outputs["propa.csv"], message)
        digests = {name: gate.sha256(text) for name, text in texts.items()}
        if self.reference is not None:
            for name in gate.digest_failures(self.reference, digests):
                fail(self.outputs[name], f"{name} differs from the reference output")
        disk = gate.complex_sizes(texts["disk.complex"])
        sizes = {"V": disk["V"], "E": disk["E"], "triangles": disk["triangles"],
                 "squares": squared["squares"], "squared_E": squared["E"]}
        return PassResult(wall, [], len(ops), failures, digests, sizes, work)


class Flat6(CliWorkload):
    outputs = {"disk.complex": 0, "squared.complex": 0, "propa.csv": 0, "reports.txt": 0}
    reports = ("reports.txt",)

    def commands(self, out, jobs):
        return [["all", "--degree", "6", "--radius", "12", "--seed", str(self.seed),
                 "--output", str(out)]]


class Scale7(CliWorkload):
    outputs = Flat6.outputs
    reports = Flat6.reports
    # ball isometry is cubic in the vertex count, so it stays out at this size
    RULES = "systolic,spheres,neighbours,triangle,a,b,quad,intervals,flat"

    def commands(self, out, jobs):
        return [["all", "--degree", "7", "--radius", "7", "--rules", self.RULES,
                 "--seed", str(self.seed), "--output", str(out)]]


class Hyper7(CliWorkload):
    outputs = {"disk.complex": 0, "stdout:verify-disk": 1, "squared.complex": 2,
               "stdout:verify-squared": 3, "propa.csv": 4}
    reports = ("stdout:verify-disk", "stdout:verify-squared")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the --jobs 1 chain is the reference every --jobs 2 pass must match
        ref = workdir / "reference"
        ref.mkdir(parents=True, exist_ok=True)
        self.reference_pass = self.check(self.execute(RAW, ref, jobs=1))
        self.reference = self.reference_pass.digests

    def commands(self, out, jobs):
        disk, sq = str(out / "disk.complex"), str(out / "squared.complex")
        return [
            ["generate", "--degree", "7", "--radius", "5", "--output", disk],
            ["verify", "--jobs", str(jobs), "--input", disk],
            ["square", "--input", disk, "--output", sq],
            ["verify", "--jobs", str(jobs), "--seed", str(self.seed), "--input", sq],
            ["propa", "--input", sq, "--output", str(out / "propa.csv")],
        ]


class Sweep:
    """The criterion-4 lemma sweep: every vertex of one disk as the basepoint.

    The disk is always ``DiskSpec(radius=4, degrees={6, 7}, seed=1)`` (124
    vertices); the benchmark seed permutes its vertex ids. Disk size and
    shape vary widely across generator seeds and the sweep costs about
    V**4, so a new disk per seed would make the seed, not the code, decide
    the time. A relabelled disk is a different input with the same work.
    """

    SPEC = DiskSpec(radius=4, degrees=frozenset({6, 7}), seed=1)
    CHECKS_PER_BASEPOINT = 11
    reference_pass = None

    def __init__(self, seed: int, workdir: Path):
        ids = sorted(RAW.triangulated_disk(self.SPEC).complex.graph.vertices)
        self.labels = dict(zip(ids, random.Random(seed).sample(ids, len(ids))))
        self.reference = None

    def relabel(self, c: SimplicialComplex2) -> SimplicialComplex2:
        lab = self.labels
        g = Graph([lab[v] for v in c.graph.vertices],
                  [(lab[u], lab[w]) for u, w in c.graph.edges])
        return SimplicialComplex2(g, [tuple(lab[v] for v in t) for t in c.triangles])

    def execute(self, fns):
        t0 = time.perf_counter()
        disk = fns.triangulated_disk(self.SPEC)
        c = self.relabel(disk.complex)
        systolic = fns.verify_systolic(c)
        results = []
        samples = []
        for p in sorted(c.graph.vertices):
            t = time.perf_counter()
            try:
                b = BasedComplex(c, p)
                reps = [fns.check_spheres_triangle_free(b), fns.check_ball_neighbours(b),
                        fns.check_triangle_condition(b)]
                res = fns.squaring(b, precheck=False)
                sq = res.squared.complex
                dist = fns.all_pairs(sq.graph, vertex_order(sq.graph))
                pairs = [(p, v) for v in sorted(sq.graph.vertices)]
                reps += [
                    fns.check_quasi_isometry(res),
                    fns.check_replacement_rule_A(sq),
                    fns.check_replacement_rule_B(sq),
                    fns.check_quadrangle_condition(res.squared),
                    fns.check_ball_isometry(sq, dist=dist),
                    fns.check_interval_isometry(sq, pairs=pairs, dist=dist),
                    fns.check_flat_intervals(res.squared),
                ]
                pa = fns.property_a_report(res.squared, N_MAX)
                results.append((p, reps, pa, sq))
            except Exception as exc:
                results.append((p, f"{type(exc).__name__}: {exc}", None, None))
            samples.append((time.perf_counter() - t) * 1000.0)
        return c, systolic, results, samples, time.perf_counter() - t0

    def check(self, raw) -> PassResult:
        c, systolic, results, samples, wall = raw
        failures: dict[str, list[str]] = {}
        lines = []
        work: dict[str, dict] = {}
        for message in gate.report_failures(systolic.to_text()):
            failures.setdefault("verify_systolic", []).append(message)
        squares = 0
        for p, reps, pa, sq in results:
            if isinstance(reps, str):
                failures.setdefault(f"basepoint {p}", []).append(reps)
                continue
            for rep in reps:
                text = rep.to_text()
                for message in gate.report_failures(text):
                    failures.setdefault(f"{rep.name}@{p}", []).append(message)
                lines.append(gate.without_stats(text))
                stats = work.setdefault(rep.name, {})
                for key, value in rep.stats.items():
                    if isinstance(value, int):
                        stats[key] = stats.get(key, 0) + value
            csv = "\n".join(pa.csv_lines()) + "\n"
            problems = gate.propa_failures(csv, len(sq.graph.edges), N_MAX)
            problems += gate.report_failures(pa.check.to_text())
            if problems:
                failures.setdefault(f"property-a@{p}", []).extend(problems)
            squares += len(sq.squares)
            lines.append(f"base {p}")
            lines.extend(" ".join(map(str, s)) for s in sorted(sq.squares))
            lines.append(csv)
        digests = {"sweep": gate.sha256("\n".join(lines))}
        if self.reference is not None and gate.digest_failures(self.reference, digests):
            failures.setdefault("sweep", []).append("outputs differ from the reference pass")
        sizes = {"V": len(c.graph.vertices), "E": len(c.graph.edges),
                 "triangles": len(c.triangles), "squares": squares,
                 "basepoints": len(results)}
        attempted = 1 + self.CHECKS_PER_BASEPOINT * len(results)
        return PassResult(wall, samples, attempted, failures, digests, sizes, work)


WORKLOADS = {"flat6": Flat6, "hyper7": Hyper7, "scale7": Scale7, "sweep": Sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    prepare_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    attempted, failures, passes = 0, {}, []
    first = workload.reference_pass
    if first is not None:
        attempted += first.attempted
        failures.update({f"reference {k}": v for k, v in first.failures.items()})

    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        layers = None
        if traced:
            fns = tracer.functions()
            with tracer.pass_span() as span, tracer.patched_cli(fns):
                raw = workload.execute(fns)
            layers = tracer.pass_metrics(span.id)
        else:
            raw = workload.execute(RAW)
        result = workload.check(raw)
        del raw  # keep one pass's outputs alive at a time, so RSS is one pass's peak
        if workload.reference is None:
            workload.reference = result.digests
            first = result
        attempted += result.attempted
        for key, messages in result.failures.items():
            failures.setdefault(f"pass {len(passes)} {key}", messages)
        passes.append({"traced": traced, "wall_s": result.wall_s,
                       "basepoint_ms": result.basepoint_ms, "layers": layers})
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer else 1)
        if enough and elapsed + result.wall_s > args.seconds:
            break

    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"{k}: {v[0]}" for k, v in sorted(failures.items())][:20],
        "sizes": first.sizes,
        "work": first.work,
        "digests": first.digests,
        "prepare_s": prepare_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
