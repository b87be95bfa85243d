"""Command line behaviour: exit codes, files, determinism."""

import subprocess
import sys
from fractions import Fraction

import pytest

from sysquad import (
    BasedComplex,
    format_complex,
    non_systolic_counterexamples,
    property_a_report,
    read_complex,
    squaring,
    triangulated_disk,
    write_complex,
    DiskSpec,
)
import sysquad.cli
from sysquad.cli import CHECKS, main


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
    parsed = read_complex(out)
    assert parsed.kind == "simplicial"
    assert parsed.basepoint is not None
    assert len(parsed.vertices) == 19


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
    assert code == 1
    assert "cannot be systolic" in capsys.readouterr().err


# ---------------------------------------------------------------------- square


def test_square_roundtrip(tmp_path):
    src = gen(tmp_path)
    out = tmp_path / "squared.complex"
    assert run_cli("square", "--input", str(src), "--output", str(out)) == 0
    parsed = read_complex(out)
    assert parsed.kind == "square"
    assert parsed.basepoint == read_complex(src).basepoint
    assert parsed.vertices == read_complex(src).vertices


def test_square_requires_basepoint(tmp_path, capsys):
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    p = tmp_path / "nobase.complex"
    write_complex(p, d.complex)
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
    write_complex(p, c, basepoint=0)
    code = run_cli("square", "--input", str(p))
    assert code == 1
    assert "systolic" in capsys.readouterr().err


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
    write_complex(p, c)
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
    write_complex(p, d.complex)
    assert run_cli("verify", "--input", str(p), "--rules", "spheres") == 2
    # default selection just skips them, with a notice
    assert run_cli("verify", "--input", str(p)) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def squared_without_base(tmp_path):
    d = triangulated_disk(DiskSpec(radius=2, degrees=6))
    res = squaring(BasedComplex(d.complex, d.center))
    p = tmp_path / "sq_nobase.complex"
    write_complex(p, res.squared.complex)
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


def test_verify_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.complex"
    p.write_text("v 0\nv 0\n")
    assert run_cli("verify", "--input", str(p)) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_missing_file(tmp_path):
    assert run_cli("verify", "--input", str(tmp_path / "none.complex")) == 2


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


def test_verify_exhaustive_flag(tmp_path):
    src = gen(tmp_path, radius=1)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    assert run_cli("verify", "--input", str(mid), "--exhaustive") == 0


# ----------------------------------------------------------------------- propa


def test_propa_csv_matches_library(tmp_path):
    src = gen(tmp_path)
    mid = tmp_path / "sq.complex"
    run_cli("square", "--input", str(src), "--output", str(mid))
    out = tmp_path / "propa.csv"
    assert run_cli(
        "propa", "--input", str(mid), "--n-max", "6", "--output", str(out)
    ) == 0

    parsed = read_complex(mid)
    b = BasedComplex(parsed.to_square(), parsed.basepoint)
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
    write_complex(p, res.squared.complex)
    assert run_cli("propa", "--input", str(p)) == 2


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
    assert read_complex(out).kind == "simplicial"


def test_generated_file_matches_library_serialization(tmp_path):
    out = gen(tmp_path, radius=1)
    d = triangulated_disk(DiskSpec(radius=1, degrees=6))
    assert out.read_text() == format_complex(d.complex, basepoint=d.center)
