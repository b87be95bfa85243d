"""Command line behaviour: exit codes, files, determinism."""

import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sysquad import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    format_complex,
    property_a_report,
    read_complex,
    squaring,
    triangulated_disk,
    DiskSpec,
)
import sysquad.cli
import sysquad.quadric
from sysquad import complexes
from sysquad.cli import CHECKS, main

from bruteforce import brute_interval_pairs, non_systolic_counterexamples


def run_cli(*argv):
    return main(list(argv))


def gen(tmp_path, name="disk.complex", radius=2, degree=6):
    out = tmp_path / name
    code = run_cli(
        "generate", "--degree", str(degree), "--radius", str(radius),
        "--output", str(out),
    )
    assert code == 0
    return out


# -------------------------------------------------------------------- generate


def test_generate_writes_readable_file(tmp_path):
    out = gen(tmp_path)
    c, base = read_complex(out)
    assert type(c) is SimplicialComplex2
    assert base is not None
    assert len(c.graph.vertices) == 19


def test_generate_is_byte_deterministic(tmp_path):
    a = gen(tmp_path, "a.complex")
    b = gen(tmp_path, "b.complex")
    assert a.read_bytes() == b.read_bytes()


def test_generate_degrees_list(tmp_path, capsys):
    code = run_cli("generate", "--degrees", "6,7", "--radius", "1", "--seed", "3")
    assert code == 0
    text = capsys.readouterr().out
    assert "v 0" in text


def test_generate_rejects_degree_and_degrees():
    with pytest.raises(SystemExit):
        run_cli("generate", "--degree", "6", "--degrees", "6,7", "--radius", "1")


def test_generate_bad_degree_fails(capsys):
    code = run_cli("generate", "--degree", "5", "--radius", "2")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: interior degree 5 < 6 cannot be systolic\n"


def test_generate_bad_degree_in_list_is_usage_error(capsys):
    code = run_cli("generate", "--degrees", "6,5", "--radius", "2")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: interior degree 5 < 6 cannot be systolic\n"


# ---------------------------------------------------------------------- square


def test_square_roundtrip(tmp_path):
    src = gen(tmp_path)
    out = tmp_path / "squared.complex"
    assert run_cli("square", "--input", str(src), "--output", str(out)) == 0
    c, base = read_complex(out)
    source, source_base = read_complex(src)
    assert type(c) is SquareComplex
    assert base == source_base
    assert c.graph.vertices == source.graph.vertices


def test_square_requires_basepoint(tmp_path, capsys):
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    p = tmp_path / "nobase.complex"
    p.write_text(format_complex(d.complex), encoding="utf-8")
    code = run_cli("square", "--input", str(p))
    assert code == 2
    assert "base" in capsys.readouterr().err


def test_square_rejects_square_input(tmp_path, capsys):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("square", "--input", str(mid)) == 2


def test_square_rejects_non_systolic(tmp_path, capsys):
    c, _ = non_systolic_counterexamples()[0]
    p = tmp_path / "bad.complex"
    p.write_text(format_complex(c, basepoint=0), encoding="utf-8")
    code = run_cli("square", "--input", str(p))
    assert code == 1
    assert "systolic" in capsys.readouterr().err


def test_square_non_systolic_prints_certificate(tmp_path, capsys):
    # a triangle plus an isolated vertex: the certificate, not a dataclass repr
    p = tmp_path / "split.complex"
    p.write_text("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 0 2\nt 0 1 2\nbase 0\n")
    assert run_cli("square", "--input", str(p)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "source complex is not systolic: disconnected 0 3 :: no-path\n"


# ---------------------------------------------------------------------- verify


def test_verify_simplicial_passes(tmp_path, capsys):
    src = gen(tmp_path)
    assert run_cli("verify", "--input", str(src)) == 0
    out = capsys.readouterr().out
    assert "check systolic" in out
    assert "passed true" in out


def test_verify_counterexample_exit_and_cert(tmp_path, capsys):
    c, tag = non_systolic_counterexamples()[0]
    p = tmp_path / "wheel.complex"
    p.write_text(format_complex(c), encoding="utf-8")
    code = run_cli("verify", "--input", str(p))
    captured = capsys.readouterr()
    assert code == 1
    assert tag in captured.err


def test_verify_square_file_runs_square_rules(tmp_path, capsys):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid)) == 0
    out = capsys.readouterr().out
    for name in ("rule-a", "rule-b", "quadrangle", "ball-isometry",
                 "interval-isometry", "flat-intervals"):
        assert f"check {name}" in out, name


def test_verify_writes_report_and_certificates(tmp_path):
    src = gen(tmp_path)
    report = tmp_path / "report.txt"
    assert run_cli("verify", "--input", str(src), "--output", str(report)) == 0
    assert report.exists()
    csv = tmp_path / "report.txt.csv"
    assert csv.exists()
    head = csv.read_text().splitlines()[0]
    assert head == "check,passed,kind,vertices,info"


def test_verify_rules_filter(tmp_path, capsys):
    src = gen(tmp_path)
    assert run_cli("verify", "--input", str(src), "--rules", "systolic") == 0
    out = capsys.readouterr().out
    assert "check systolic" in out
    assert "check spheres-triangle-free" not in out


def test_verify_unknown_rule(tmp_path, capsys):
    src = gen(tmp_path)
    assert run_cli("verify", "--input", str(src), "--rules", "bogus") == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert ",".join(c.name for c in CHECKS) in err


def test_verify_rule_kind_mismatch(tmp_path, capsys):
    src = gen(tmp_path)  # simplicial file, square-only rule requested
    assert run_cli("verify", "--input", str(src), "--rules", "balls") == 2


def test_verify_base_needing_rule_without_base(tmp_path, capsys):
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    p = tmp_path / "nobase.complex"
    p.write_text(format_complex(d.complex), encoding="utf-8")
    assert run_cli("verify", "--input", str(p), "--rules", "spheres") == 2
    # default selection just skips them, with a notice
    assert run_cli("verify", "--input", str(p)) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def squared_without_base(tmp_path):
    d = triangulated_disk(DiskSpec(radius=2, degrees=6))
    res = squaring(BasedComplex(d.complex, d.center))
    p = tmp_path / "sq_nobase.complex"
    p.write_text(format_complex(res.squared.complex), encoding="utf-8")
    return p


def test_verify_square_file_without_base_skips_based_checks(tmp_path, capsys):
    p = squared_without_base(tmp_path)
    assert run_cli("verify", "--input", str(p)) == 0
    out = capsys.readouterr().out
    skipped = "".join(f"skipped {name} (no basepoint in input)\n"
                      for name in ("flat", "intervals", "quad"))
    assert out.startswith(skipped + "check rule-a\n")
    checks = [line.split()[1] for line in out.splitlines() if line.startswith("check ")]
    assert checks == ["rule-a", "rule-b", "ball-isometry"]


def test_verify_square_file_without_base_exhaustive_runs_intervals(tmp_path, capsys):
    p = squared_without_base(tmp_path)
    assert run_cli("verify", "--input", str(p), "--exhaustive") == 0
    out = capsys.readouterr().out
    assert out.startswith("skipped flat (no basepoint in input)\n"
                          "skipped quad (no basepoint in input)\ncheck rule-a\n")
    assert "check interval-isometry" in out


def test_verify_square_file_without_base_rejects_based_rule(tmp_path, capsys):
    p = squared_without_base(tmp_path)
    assert run_cli("verify", "--input", str(p), "--rules", "quad") == 2
    assert "need a base record" in capsys.readouterr().err


@pytest.mark.parametrize("text, stderr", [
    ("v 0\nv 1\nv 2\nv 3\nv 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\nq 0 1 2 3\nbase 0\n",
     "quadrangle: disconnected 0 4 :: no-path\n"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 0 2\nt 0 1 2\n",
     "systolic: disconnected 0 3 :: no-path\n"),
], ids=["square", "triangle"])
def test_verify_disconnected_input_certifies(tmp_path, capsys, text, stderr):
    p = tmp_path / "split.complex"
    p.write_text(text)
    assert run_cli("verify", "--input", str(p)) == 1
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert "cert disconnected" in captured.out


def test_verify_vertexless_certificate_has_one_space(tmp_path, capsys):
    # a bare K_{2,3} has no triangles, so the simplicial battery runs and
    # its mod-2 cycle rank is a certificate on no vertices
    p = tmp_path / "k23.complex"
    p.write_text("v 0\nv 1\nv 2\nv 3\nv 4\n"
                 "e 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\nbase 0\n")
    assert run_cli("verify", "--input", str(p)) == 1
    captured = capsys.readouterr()
    assert captured.err == "systolic: h1 :: rank=2\n"
    assert "\ncert h1 :: rank=2\n" in captured.out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.complex"
    p.write_text("v 0\nv 0\n")
    assert run_cli("verify", "--input", str(p)) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("v 0\nv 1\nv 2\ne 0 1\ne 1 2\nt 2 0 1\n",
     "line 6: triangle (0, 1, 2) misses edge (0, 2)"),
    # a triangle names its least missing edge, a square the first along its file order
    ("v 0\nv 1\nv 2\ne 1 2\nt 2 1 0\n", "line 5: triangle (0, 1, 2) misses edge (0, 1)"),
    ("v 0\nv 1\nv 2\ne 0 1\nt 0 1 2\n", "line 5: triangle (0, 1, 2) misses edge (0, 2)"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\nq 2 3 0 1\n",
     "line 8: square (2, 3, 0, 1) misses edge (0, 3)"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\nq 2 3 0 1\n", "line 6: square (2, 3, 0, 1) misses edge (2, 3)"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\ne 0 3\nq 0 1 2 3\nq 1 0 3 2\n",
     "line 10: duplicate square (0, 1, 2, 3)"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 0 2\ne 2 3\ne 0 3\nt 0 1 2\nq 0 1 2 3\n",
     "line 11: file mixes triangles and squares"),
])
def test_verify_cell_parse_errors(tmp_path, capsys, text, message):
    p = tmp_path / "cells.complex"
    p.write_text(text)
    assert run_cli("verify", "--input", str(p)) == 2
    assert capsys.readouterr().err == f"{p}: {message}\n"


def test_verify_empty_file_passes(tmp_path, capsys):
    # no vertices: no components and no cycles, so the cycle rank is 0
    p = tmp_path / "empty.complex"
    p.write_text("")
    assert run_cli("verify", "--input", str(p)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "stat h1_rank_mod2 0\n" in captured.out


def test_verify_missing_file(tmp_path):
    assert run_cli("verify", "--input", str(tmp_path / "none.complex")) == 2


def test_verify_directory_input_is_file_error(tmp_path, capsys):
    assert run_cli("verify", "--input", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Is a directory" in captured.err


def test_all_output_on_existing_file_is_file_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    code = run_cli("all", "--degree", "6", "--radius", "1", "--output", str(target))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "File exists" in captured.err
    assert target.read_text() == "keep\n"


def test_verify_unwritable_output_prints_no_report(tmp_path, capsys):
    src = gen(tmp_path)
    capsys.readouterr()
    report = tmp_path / "missing_dir" / "r.txt"
    assert run_cli("verify", "--input", str(src), "--output", str(report)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not report.parent.exists()


def test_verify_jobs_do_not_change_output(tmp_path):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    outs = []
    for jobs in ("1", "4"):
        rep = tmp_path / f"rep{jobs}.txt"
        assert run_cli(
            "verify", "--input", str(mid), "--jobs", jobs, "--output", str(rep)
        ) == 0
        outs.append(rep.read_bytes() + (tmp_path / f"rep{jobs}.txt.csv").read_bytes())
    assert outs[0] == outs[1]


# a 6-cycle through vertex 0 on new vertices 10 to 14: it is isometric, so
# the graph is not modular, and the isometry fallbacks run on a thread pool
HEXAGON_AT_0 = "".join(f"v {v}\n" for v in range(10, 15)) + \
    "e 0 10\ne 10 11\ne 11 12\ne 12 13\ne 13 14\ne 0 14\n"

# a bare 6-cycle based at 0 beside the square 6 7 8 9: not modular
HEXAGON_SQUARE = "".join(f"v {v}\n" for v in range(10)) + \
    "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 0 5\ne 6 7\ne 7 8\ne 8 9\ne 6 9\nq 6 7 8 9\nbase 0\n"

# files whose checks share lazily built views on two threads: rule A has a
# pattern, rule B a hexagon, and on the theta flat-intervals lists K_{2,3}s
LAZY_VIEW_FILES = {
    "rule-a": "v 0\nv 1\nv 2\nv 3\nv 4\n" + HEXAGON_AT_0 +
              "e 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\nq 0 2 1 3\nq 0 3 1 4\n",
    "rule-b": "v 0\nv 1\nv 2\nv 3\nv 4\nv 5\nv 6\n" + HEXAGON_AT_0 +
              "e 0 1\ne 0 2\ne 0 3\ne 1 4\ne 2 4\ne 2 5\ne 3 5\ne 3 6\ne 1 6\n"
              "q 0 1 4 2\nq 0 2 5 3\nq 0 3 6 1\n",
    "theta": "v 0\nv 1\nv 2\nv 3\nv 4\n" + HEXAGON_AT_0 +
             "e 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\n"
             "q 0 2 1 3\nq 0 3 1 4\nq 0 2 1 4\nbase 0\n",
}


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of each thread pool the CLI starts."""
    import concurrent.futures

    started = []
    real = concurrent.futures.ThreadPoolExecutor

    def spy(max_workers=None, **kwargs):
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    return started


@pytest.mark.parametrize("name", LAZY_VIEW_FILES)
def test_lazy_views_give_the_same_output_on_two_threads(tmp_path, capsys, pools, name):
    p = tmp_path / f"{name}.complex"
    p.write_text(LAZY_VIEW_FILES[name])
    want = (run_cli("verify", "--input", str(p)), capsys.readouterr())
    assert want[0] == 1 and want[1].err
    for _ in range(20):
        got = (run_cli("verify", "--jobs", "2", "--input", str(p)), capsys.readouterr())
        assert got == want
    assert pools == [2] * 20


def test_threads_start_only_for_the_isometry_fallbacks(tmp_path, pools):
    # a squared disk is modular, so no --jobs value starts a pool
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid), "--jobs", "2") == 0
    assert run_cli("all", "--degree", "6", "--radius", "2", "--jobs", "2",
                   "--output", str(tmp_path / "run")) == 0
    assert pools == []
    # a hexagon beside a square is not: one pool at --jobs 2, none without
    # an isometry check, which leaves no verdict
    p = tmp_path / "hexagon-square.complex"
    p.write_text(HEXAGON_SQUARE)
    assert run_cli("verify", "--input", str(p), "--jobs", "2") == 1
    assert pools == [2]
    assert run_cli("verify", "--input", str(p), "--jobs", "2", "--rules", "a,b") == 0
    assert run_cli("verify", "--input", str(p), "--jobs", "1") == 1
    assert pools == [2]


def test_verify_exhaustive_flag(tmp_path):
    src = gen(tmp_path, radius=1)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid), "--exhaustive") == 0


def test_verify_interval_sample_is_seeded(tmp_path, capsys):
    # every (base, v) pair of the 232-vertex squaring, then the new pairs
    # among 2,000 draws seeded by --seed
    assert run_cli(
        "all", "--degree", "7", "--radius", "4", "--output", str(tmp_path / "run"),
    ) == 0
    squared = str(tmp_path / "run" / "squared.complex")
    outs = {}
    for seed in ("0", "0", "1"):
        capsys.readouterr()
        assert run_cli(
            "verify", "--input", squared, "--rules", "intervals", "--seed", seed,
        ) == 0
        out = capsys.readouterr().out
        assert outs.setdefault(seed, out) == out
    assert "stat intervals 2128\n" in outs["0"]
    assert "stat intervals 2145\n" in outs["1"]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 469, 617, 1024, 1025, 11173])
def test_interval_sample_matches_one_choice_per_draw(n):
    from types import SimpleNamespace

    from sysquad import Graph

    # ids spaced and shifted past 64 bits; the base in the middle
    verts = [2**70 + 7 * i for i in range(n)]
    c = SimplicialComplex2(Graph(verts), [])
    for seed in range(20):
        s = SimpleNamespace(complex=c, based=SimpleNamespace(basepoint=verts[n // 2]),
                            args=SimpleNamespace(exhaustive=False, seed=seed))
        assert sysquad.cli._interval_pairs(s) == brute_interval_pairs(s), (n, seed)


NUMPY_OOM = "Unable to allocate 21.9 GiB for an array with shape (76742, 76742)"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("message, shown", [
    (NUMPY_OOM, NUMPY_OOM),
    ("", "out of memory"),  # CPython's own MemoryError carries no message
], ids=["numpy", "bare"])
def test_verify_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch,
                                               jobs, message, shown):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    capsys.readouterr()
    monkeypatch.setattr(sysquad.cli, "all_pairs", exhausted)
    assert run_cli(
        "verify", "--input", str(mid), "--rules", "balls", "--jobs", jobs,
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {shown}\n"


# ----------------------------------------------------------------------- propa


def test_propa_csv_matches_library(tmp_path):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    out = tmp_path / "propa.csv"
    assert run_cli(
        "propa", "--input", str(mid), "--n-max", "6", "--output", str(out)
    ) == 0

    b = BasedComplex(*read_complex(mid))
    expected = property_a_report(b, 6).csv_lines()
    assert out.read_text().splitlines() == expected


def test_propa_ratio_columns_are_reduced(tmp_path, capsys):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("propa", "--input", str(mid), "--n-max", "8") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        n, _norm, _diff, num, den, _edges = map(int, line.split(","))
        assert Fraction(num, den) == Fraction(4, n + 2)


def test_propa_rejects_simplicial_input(tmp_path):
    src = gen(tmp_path)
    assert run_cli("propa", "--input", str(src)) == 2


def test_propa_requires_basepoint(tmp_path):
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    res = squaring(BasedComplex(d.complex, d.center))
    p = tmp_path / "sq_nobase.complex"
    p.write_text(format_complex(res.squared.complex), encoding="utf-8")
    assert run_cli("propa", "--input", str(p)) == 2


def test_propa_unreached_vertex_certifies(tmp_path, capsys):
    # filled square plus an isolated vertex: header-only CSV, exit 1
    p = tmp_path / "split.complex"
    p.write_text("v 0\nv 1\nv 2\nv 3\nv 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
                 "q 0 1 2 3\nbase 0\n")
    out = tmp_path / "propa.csv"
    assert run_cli("propa", "--input", str(p), "--output", str(out)) == 1
    assert out.read_text() == "n,norm,max_diff,ratio_num,ratio_den,edges_checked\n"
    assert capsys.readouterr().err == "property-a: disconnected 0 4 :: no-path\n"


def test_propa_non_flat_input_certifies(tmp_path, capsys):
    # bare K_{2,3} based at 0: vertex 1 has three downward neighbours
    p = tmp_path / "k23.complex"
    p.write_text("v 0\nv 1\nv 2\nv 3\nv 4\n"
                 "e 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\nbase 0\n")
    out = tmp_path / "propa.csv"
    assert run_cli("propa", "--input", str(p), "--output", str(out)) == 1
    assert out.read_text() == "n,norm,max_diff,ratio_num,ratio_den,edges_checked\n"
    assert capsys.readouterr().err == "property-a: non-flat 1 :: downward-degree=3\n"


@pytest.mark.parametrize("squared", [False, True])
def test_propa_takes_ids_of_any_size(tmp_path, capsys, squared):
    # the based path 2**70, 2**70 + 1, 2**70 + 2 reads as the path 0, 1, 2
    csvs = []
    for first in (2**70, 0):
        a, b, c = first, first + 1, first + 2
        p = tmp_path / f"path{first}.complex"
        p.write_text(f"v {a}\nv {b}\nv {c}\ne {a} {b}\ne {b} {c}\nbase {a}\n")
        if squared:
            sq = tmp_path / f"path{first}-sq.complex"
            assert run_cli("square", "--input", str(p), "--output", str(sq)) == 0
            p = sq
        out = tmp_path / f"propa{first}.csv"
        assert run_cli("propa", "--input", str(p), "--output", str(out)) == 0
        csvs.append(out.read_text())
    assert capsys.readouterr().err == ""
    assert csvs[0] == csvs[1]
    assert csvs[0].splitlines()[1] == "0,1,2,2,1,2"


# ------------------------------------------------------------------------- all


def test_all_chain_produces_artifacts(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    code = run_cli(
        "all", "--degree", "6", "--radius", "2", "--n-max", "4",
        "--output", str(outdir),
    )
    assert code == 0
    for name in ("disk.complex", "squared.complex", "reports.txt",
                 "certificates.csv", "propa.csv"):
        assert (outdir / name).exists(), name
    out = capsys.readouterr().out
    assert "systolic: pass" in out
    assert "property-a: pass" in out


def test_all_chain_deterministic_across_jobs(tmp_path):
    blobs = []
    for jobs in ("1", "3"):
        outdir = tmp_path / f"run{jobs}"
        assert run_cli(
            "all", "--degree", "6", "--radius", "2", "--n-max", "3",
            "--jobs", jobs, "--output", str(outdir),
        ) == 0
        blobs.append(b"".join(
            (outdir / name).read_bytes()
            for name in sorted(
                ("disk.complex", "squared.complex", "reports.txt",
                 "certificates.csv", "propa.csv")
            )
        ))
    assert blobs[0] == blobs[1]


def test_all_checks_rules_before_generating(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    code = run_cli(
        "all", "--degree", "6", "--radius", "2", "--rules", "bogus",
        "--output", str(outdir),
    )
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: unknown rule 'bogus'")
    assert ",".join(c.name for c in CHECKS) in err


def test_all_checks_degrees_before_writing(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    code = run_cli("all", "--degree", "5", "--radius", "2", "--output", str(outdir))
    assert code == 2
    assert not outdir.exists()
    assert capsys.readouterr().err == "error: interior degree 5 < 6 cannot be systolic\n"


def test_checks_resolve_cli_names_when_they_run(tmp_path, monkeypatch):
    # wrapping a check's name on sysquad.cli must reach both verify and all
    calls = []
    real = sysquad.cli.check_replacement_rule_A

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sysquad.cli, "check_replacement_rule_A", counting)
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid), "--rules", "a") == 0
    assert len(calls) == 1
    assert run_cli(
        "all", "--degree", "6", "--radius", "1", "--output", str(tmp_path / "run"),
    ) == 0
    assert len(calls) == 2


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of all_pairs and is_modular from the CLI and from the checks."""
    calls = {"all_pairs": 0, "is_modular": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in (sysquad.cli, sysquad.quadric):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_one_modularity_certificate_per_square_complex(tmp_path, kernel_calls, jobs):
    # both isometry checks read the verdict computed beside the shared matrix
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid), "--jobs", jobs) == 0
    assert kernel_calls == {"all_pairs": 1, "is_modular": 1}
    assert run_cli(
        "all", "--degree", "6", "--radius", "2", "--jobs", jobs,
        "--output", str(tmp_path / "run"),
    ) == 0
    assert kernel_calls == {"all_pairs": 2, "is_modular": 2}
    assert run_cli("verify", "--input", str(mid), "--rules", "a,b", "--jobs", jobs) == 0
    assert kernel_calls == {"all_pairs": 2, "is_modular": 2}


# the index views: each is built once per graph or complex, and read by every check
INDEX_VIEWS = {"_components": Graph, "_common_neighbours": Graph, "_corners": SquareComplex,
               "_square_table": SquareComplex}


@pytest.fixture
def view_builds(monkeypatch):
    """Records each index-view build as (name, object) in ``builds``, and
    the name of the function that starts each ``_search``, directly or
    through ``_levels``, in ``searches``. Only ``BasedComplex``'s own search
    and the component view may start one on a passing run; the
    quasi-isometry certificates' ``_distance`` starts one per kept
    certificate."""
    builds, searches = [], []
    for name, cls in INDEX_VIEWS.items():
        view = vars(cls)[name]
        monkeypatch.setattr(view, "func", lambda obj, f=view.func, name=name: (
            builds.append((name, obj)), f(obj))[1])
    search = complexes._search

    def counted(g, s, lev, slot):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_levels":
            caller = caller.f_back
        searches.append(caller.f_code.co_name)
        return search(g, s, lev, slot)

    monkeypatch.setattr(complexes, "_search", counted)
    return builds, searches


def build_counts(builds):
    """How often each index view was built, by view name and object."""
    return Counter((name, id(obj)) for name, obj in builds)


def test_verify_builds_each_index_view_once(tmp_path, view_builds):
    builds, searches = view_builds
    src = gen(tmp_path, radius=3)
    mid = tmp_path / "sq.complex"
    assert run_cli("square", "--input", str(src), "--output", str(mid)) == 0
    builds.clear()
    searches.clear()
    assert run_cli("verify", "--input", str(mid), "--jobs", "1") == 0
    names = dict(builds)
    assert sorted(name for name, _ in builds) == sorted(INDEX_VIEWS)
    assert names["_components"] is names["_common_neighbours"] is names["_corners"].graph
    assert names["_square_table"] is names["_corners"]
    # the based complex's search, then the component view's one component
    assert searches == ["__init__", "_components"]


def test_all_builds_each_index_view_once(tmp_path, view_builds):
    builds, searches = view_builds
    assert run_cli("all", "--degree", "6", "--radius", "3", "--output", str(tmp_path)) == 0
    counts = Counter(name for name, _ in builds)
    assert counts == {"_components": 2, "_common_neighbours": 1, "_corners": 1,
                      "_square_table": 1}
    assert max(build_counts(builds).values()) == 1  # the disk's graph and the squared one
    squared = dict(builds)["_corners"]
    assert dict(builds)["_common_neighbours"] is squared.graph
    assert squared.graph in [obj for name, obj in builds if name == "_components"]
    # the disk's based complex (the squared one reuses its levels), then one
    # component view per graph; no certificate, so no _distance
    assert searches == ["__init__", "_components", "_components"]


def test_index_views_on_two_threads_give_the_same_bytes(tmp_path, view_builds, pools):
    # cached_property locks a build on Python 3.11 only, so from 3.12 two
    # threads may both build a view; the output is the same either way
    builds, _ = view_builds
    most = 1 if sys.version_info < (3, 12) else 2
    hexagon = tmp_path / "hexagon-square.complex"
    hexagon.write_text(HEXAGON_SQUARE)
    outs = {}
    for jobs in ("1", "2"):
        run = tmp_path / f"run{jobs}"
        assert run_cli("all", "--degree", "6", "--radius", "3", "--jobs", jobs,
                       "--output", str(run)) == 0
        rep = tmp_path / f"verify{jobs}.txt"
        assert run_cli("verify", "--input", str(tmp_path / "run1" / "squared.complex"),
                       "--seed", "1", "--jobs", jobs, "--output", str(rep)) == 0
        # a non-modular input, whose isometry fallbacks run on the threads
        mixed = tmp_path / f"mixed{jobs}.txt"
        assert run_cli("verify", "--input", str(hexagon), "--seed", "1", "--jobs", jobs,
                       "--output", str(mixed)) == 1
        outs[jobs] = [(run / name).read_bytes() for name in sorted(p.name for p in run.iterdir())]
        outs[jobs] += [Path(f"{path}{end}").read_bytes() for path in (rep, mixed)
                       for end in ("", ".csv")]
        assert max(build_counts(builds).values()) <= (1 if jobs == "1" else most)
        builds.clear()
    assert outs["1"] == outs["2"]
    assert pools == [2]


def test_all_requires_output_directory():
    with pytest.raises(SystemExit):
        run_cli("all", "--degree", "6", "--radius", "1")


# -------------------------------------------------------------------- plumbing


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--input", "x.complex", "--jobs", "0"], "--jobs"),
    (["all", "--degree", "6", "--radius", "2", "--jobs", "-3"], "--jobs"),
    (["verify", "--input", "x.complex", "--cert-cap", "-1"], "--cert-cap"),
    (["propa", "--input", "x.complex", "--n-max", "-1"], "--n-max"),
    (["all", "--degree", "6", "--radius", "2", "--n-max", "-1"], "--n-max"),
    (["generate", "--degree", "6", "--radius", "-1"], "--radius"),
    (["all", "--degree", "6", "--radius", "-1"], "--radius"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, flag):
    if argv[0] == "all":
        argv = argv + ["--output", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as ei:
        run_cli(*argv)
    assert ei.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "--input", "x.complex", "--rules", ","],
    ["all", "--degree", "6", "--radius", "2", "--rules", ","],
], ids=["verify", "all"])
def test_empty_rules_is_usage_error(tmp_path, capsys, argv):
    if argv[0] == "all":
        argv = argv + ["--output", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as ei:
        run_cli(*argv)
    assert ei.value.code == 2
    assert "argument --rules: empty rule list" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        run_cli()
    assert ei.value.code == 2


def test_console_script_entrypoint(tmp_path):
    out = tmp_path / "d.complex"
    proc = subprocess.run(
        [sys.executable, "-m", "sysquad.cli", "generate", "--degree", "6",
         "--radius", "1", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert type(read_complex(out)[0]) is SimplicialComplex2


def test_main_builds_the_parser_once(tmp_path, capsys):
    # three calls in one process, an argparse error between them, each
    # giving the exit code and output of a fresh process
    tet = tmp_path / "tet.complex"
    tet.write_text("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
                   "t 0 1 2\nt 0 1 3\nt 0 2 3\nt 1 2 3\n")
    argvs = [["verify", "--input", str(tet)],
             ["verify", "--input", str(tet), "--cert-cap", "-1"],
             ["generate", "--degree", "6", "--radius", "1"]]
    sysquad.cli._build_parser.cache_clear()
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "sysquad.cli", *argv],
                               capture_output=True, text=True)
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out = capsys.readouterr()
        assert (codes[-1], out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert codes == [1, 2, 0]
    info = sysquad.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter sees what
    # the import itself loads
    code = ("import sys, sysquad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_generated_file_matches_library_serialization(tmp_path):
    out = gen(tmp_path, radius=1)
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    assert out.read_text() == format_complex(d.complex, basepoint=d.center)


@pytest.mark.parametrize("text, message", [
    # the duplicate cell on line 8 comes before the duplicate edge on line 9
    ("v 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\nt 0 1 2\nt 2 1 0\ne 0 1\n",
     "line 8: duplicate triangle (0, 1, 2)"),
    # a repeated vertex is found before any missing edge, wherever it stands
    ("v 0\nv 1\nv 2\ne 0 1\ne 1 2\nt 0 1 2\nt 0 1 1\n",
     "line 7: triangle (0, 1, 1) repeats a vertex"),
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\nq 0 1 1 2\nq 0 1 2 3\n",
     "line 7: square (0, 1, 1, 2) repeats a vertex"),
    # mixed kinds are found before the triangle's missing edge (0, 2)
    ("v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\ne 0 3\nt 0 1 2\nq 0 1 2 3\n",
     "line 10: file mixes triangles and squares"),
], ids=["dup-cell-then-dup-edge", "missing-edge-then-repeat", "repeat-then-missing-edge",
        "mixed-with-missing-edge"])
def test_file_with_several_errors_names_the_first(tmp_path, capsys, text, message):
    p = tmp_path / "bad.complex"
    p.write_text(text)
    assert run_cli("verify", "--input", str(p)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}: {message}\n"
