"""sysquad benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a sysquad source tree:

    python3 perfbench/run.py --workload flat6 --seed 1 --seconds 20 --trace 0

It measures set-up time in fresh interpreters, then starts one worker
process (``worker.py``) that runs only the named workload, pass after pass,
for about ``--seconds`` seconds, and checks every output. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones. The lines before it name each metric with its unit and
record input sizes, work counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("flat6", "hyper7", "scale7", "sweep")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # the whole run must end within 180 s
HERE = Path(__file__).resolve().parent
IMPORT_CLI = "import sysquad.cli, time; print(repr(time.monotonic()))"


def setup_seconds(env: dict[str, str], deadline: float) -> list[float]:
    """Fresh interpreter until ``import sysquad.cli`` returns, several times.

    The first import is not timed: it writes the bytecode cache that an
    installed package would already have.
    """
    cmd = [sys.executable, "-c", IMPORT_CLI]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                              timeout=deadline - t0)
        if i:
            # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
            samples.append(float(proc.stdout) - t0)
    return samples


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, root: Path, env: dict[str, str], deadline: float) -> dict:
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(base / f"spans-{args.workload}.jsonl")]
    try:
        # run() kills the worker and waits for it if the deadline passes
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    plain = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [
        f"wall_s: median of {len(walls)} passes; with so few, no high percentile "
        f"has ten samples beyond it",
        f"setup_s: median of {len(setup)} fresh interpreters",
        "peak_rss_mb: ru_maxrss of the worker, which ran only this workload",
    ]
    samples = [ms for p in plain for ms in p["basepoint_ms"]]
    if samples:  # the sweep times each basepoint, 124 per pass
        percentiles = statistics.quantiles(samples, n=100)
        p90 = percentiles[89]
        metrics["basepoint_ms_p50"] = (percentiles[49], "ms")
        metrics["basepoint_ms_p90"] = (p90, "ms")
        notes.append(f"basepoint_ms: {len(samples)} samples, "
                     f"{sum(ms > p90 for ms in samples)} beyond p90")
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {}
    notes = [f"per-layer: median over {len(traced)} traced passes; "
             f"self time is span time minus time covered by child spans"]
    for key in sorted(traced[0]["layers"]):
        values = [p["layers"][key] for p in traced]
        if key.endswith("_s"):
            metrics[key] = (statistics.median(values), "s")
        else:
            metrics[key] = (values[0], "bytes" if "bytes" in key else "count")
            if len(set(values)) != 1:
                notes.append(f"warning: {key} differs between passes: {values}")
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "sysquad" / "cli.py").is_file():
        print(f"error: {root} holds no sysquad source tree (src/sysquad)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        setup = setup_seconds(env, deadline)
        result = run_worker(args, root, env, deadline)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, setup)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in notes + [f"failure: {f}" for f in result["failures"]]:
        print(f"  {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": result["sizes"], "work": result["work"], "digests": result["digests"],
        "passes": len(result["passes"]), "prepare_s": result["prepare_s"],
        "env": {"nproc": len(os.sched_getaffinity(0)), "commit": git_commit(root), **result["versions"]},
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
