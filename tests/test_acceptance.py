"""Acceptance battery: eight go/no-go criteria for the whole package.

Each test prints a single verdict line (with measured runtime where a
budget was stated). Budgets are documented by the printed numbers; the
assertions themselves are on correctness only.
"""

import time
from fractions import Fraction
from itertools import cycle

import pytest

from sysquad import (
    BasedComplex,
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_quadrangle_condition,
    check_replacement_rule_A,
    check_replacement_rule_B,
    check_ball_neighbours,
    check_quasi_isometry,
    check_spheres_triangle_free,
    check_triangle_condition,
    enumerate_embedded_4cycles,
    format_complex,
    property_a_report,
    squaring,
    verify_systolic,
)
from sysquad.metrics import all_pairs, vertex_order
from sysquad.cli import main as cli_main

from bruteforce import (
    adjacency,
    bfs_dist,
    brute_girth,
    brute_interval_vertices,
    brute_k23,
    brute_quasi_isometry_ok,
    brute_weight_diff,
    brute_weight_norm,
    count_4cycles_trace,
    cycle_edges,
    find_K23,
    four_cycles_by_subsets,
    girth,
    non_systolic_counterexamples,
    random_graph,
)
from conftest import interval, k23_complex_based, l1, rule_a_mutant, rule_b_mutant, weights

N_MAX = 12


@pytest.fixture(scope="module")
def radius8_reports(squaring6, squaring7):
    out = {}
    for name, res in (("degree6", squaring6), ("degree7", squaring7)):
        t0 = time.perf_counter()
        rep = property_a_report(res.squared, N_MAX)
        out[name] = (res, rep, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def center_squarings(lemma_disks):
    return [squaring(BasedComplex(d.complex, d.center)) for d in lemma_disks]


def test_criterion_1_norm_identity(radius8_reports):
    total = 0.0
    for name, (res, rep, dt) in radius8_reports.items():
        total += dt
        n_vertices = len(res.squared.graph.vertices)
        assert rep.check.stats["vertices"] == n_vertices, name
        bad = [c for c in rep.check.counterexamples if c.kind == "weight-norm"]
        assert not bad, f"{name}: {bad[:3]}"
        for row in rep.rows:
            assert row.norm == (row.n + 2) * (row.n + 1) // 2, (name, row)
    print(
        f"[criterion 1] PASS norm identity (n+2)(n+1)/2 on both radius-8 "
        f"squarings, n=0..{N_MAX}, every vertex; compute {total:.2f}s (budget 30s)"
    )


def test_criterion_2_difference_identity(radius8_reports):
    for name, (res, rep, _dt) in radius8_reports.items():
        n_edges = len(res.squared.graph.edges)
        assert rep.check.stats["edges"] == n_edges, name
        bad = [c for c in rep.check.counterexamples if c.kind == "weight-difference"]
        assert not bad, f"{name}: {bad[:3]}"
        for row in rep.rows:
            assert row.max_diff == 2 * (row.n + 1), (name, row)
            assert row.edges_checked == n_edges, (name, row)
    print(
        "[criterion 2] PASS difference identity 2(n+1) on every edge of both "
        "radius-8 squarings, n=0..12 (same run as criterion 1)"
    )


def test_criterion_3_convergence_ratio(radius8_reports):
    for name, (_res, rep, _dt) in radius8_reports.items():
        ratios = [row.ratio for row in rep.rows]
        for row in rep.rows:
            assert row.ratio == Fraction(4, row.n + 2), (name, row)
        assert all(a > b for a, b in zip(ratios, ratios[1:])), name
    print(
        "[criterion 3] PASS ratio column is exactly 4/(n+2) and strictly "
        "decreasing on both radius-8 squarings"
    )


def test_criterion_4_lemma_suite(lemma_disks):
    t0 = time.perf_counter()
    basepoints = 0
    for d in lemma_disks:
        c = d.complex
        assert verify_systolic(c).passed
        for p in sorted(c.graph.vertices):
            b = BasedComplex(c, p)
            for check in (
                check_spheres_triangle_free,
                check_ball_neighbours,
                check_triangle_condition,
            ):
                rep = check(b)
                assert rep.passed, (p, rep.to_text())
            res = squaring(b, precheck=False)
            sq = res.squared.complex
            dist = all_pairs(sq.graph, vertex_order(sq.graph))
            pairs = [(p, v) for v in sorted(sq.graph.vertices)]
            for rep in (
                check_quadrangle_condition(res.squared),
                check_ball_isometry(sq, dist=dist),
                check_interval_isometry(sq, pairs=pairs, dist=dist),
            ):
                assert rep.passed, (p, rep.to_text())
            basepoints += 1
    dt = time.perf_counter() - t0
    print(
        f"[criterion 4] PASS level lemmas + quadrangle + ball isometry + "
        f"interval isometry on {len(lemma_disks)} disks, all {basepoints} "
        f"basepoints, zero counterexamples; {dt:.1f}s (budget 300s)"
    )


def test_criterion_5_metric_bounds(radius8_reports, center_squarings):
    t0 = time.perf_counter()
    instances = [
        (name, res) for name, (res, _rep, _dt) in radius8_reports.items()
    ] + [(f"disk{i}", res) for i, res in enumerate(center_squarings)]
    worst = Fraction(0)
    oracle_runs = 0
    for name, res in instances:
        rep = check_quasi_isometry(res)
        assert rep.passed, (name, rep.to_text())
        n = len(res.source.graph.vertices)
        assert rep.stats["pairs"] == n * n, name
        if n <= 500:
            assert brute_quasi_isometry_ok(res.source.graph, res.squared.graph), name
            oracle_runs += 1
        num, den = map(int, rep.stats["max_ratio"].split("/"))
        ratio = Fraction(num, den)
        assert ratio <= 2, (name, ratio)
        worst = max(worst, ratio)
    dt = time.perf_counter() - t0
    print(
        f"[criterion 5] PASS d_source <= d_squared <= 2*d_source on all "
        f"{len(instances)} instances by local certificate, every pair "
        f"confirmed by the all-pairs oracle on the {oracle_runs} with <= 500 "
        f"vertices; max ratio {worst.numerator}/{worst.denominator}; {dt:.1f}s"
    )


def test_criterion_6_rules_and_mutants(radius8_reports, center_squarings):
    instances = [res for _name, (res, _rep, _dt) in radius8_reports.items()]
    instances += center_squarings
    for res in instances:
        sq = res.squared.complex
        assert check_replacement_rule_A(sq).passed
        assert check_replacement_rule_B(sq).passed
        assert check_flat_intervals(res.squared).passed

    rep_a = check_replacement_rule_A(rule_a_mutant())
    assert not rep_a.passed
    assert rep_a.counterexamples[0].vertices == (0, 1, 2, 3, 4)
    assert rep_a.counterexamples[0].info == "missing-outer-square"

    rep_b = check_replacement_rule_B(rule_b_mutant())
    assert not rep_b.passed
    assert rep_b.counterexamples[0].vertices == (0, 1, 2, 3, 4, 5, 6)
    assert rep_b.counterexamples[0].info == "no-chorded-antipode"

    rep_f = check_flat_intervals(k23_complex_based())
    assert not rep_f.passed
    assert rep_f.counterexamples[0].vertices == (0, 1, 2, 3, 4)

    print(
        f"[criterion 6] PASS replacement rules A+B and flat intervals on all "
        f"{len(instances)} squarings; all 3 mutants fail their targeted check "
        f"with the expected certificate"
    )


def test_criterion_7_oracle_equivalence(lemma_disks, center_squarings, disk6_r8, squaring6):
    t0 = time.perf_counter()
    graphs = [d.complex.graph for d in lemma_disks]
    graphs.append(disk6_r8.complex.graph)
    square_instances = list(center_squarings) + [squaring6]
    graphs += [res.squared.graph for res in square_instances]
    assert all(len(g.vertices) <= 500 for g in graphs)

    for g in graphs:
        assert count_4cycles_trace(g) == len(enumerate_embedded_4cycles(g))
        assert brute_girth(g) == girth(g)

    for d in list(lemma_disks) + [disk6_r8]:
        levels = BasedComplex(d.complex, d.center).levels
        assert levels == bfs_dist(adjacency(d.complex.graph), d.center)

    for res in square_instances:
        b = res.squared
        g = b.graph
        for v in sorted(g.vertices):
            assert interval(b, v) == brute_interval_vertices(
                g, b.basepoint, v
            )
        for v in sorted(g.vertices):
            for n in (0, 5, 12):
                assert sum(weights(b, v, n).values()) == brute_weight_norm(
                    g, b.basepoint, v, n
                )
        for v, w in sorted(g.edges)[::5]:
            for n in (0, 7):
                got = l1(weights(b, v, n), weights(b, w, n))
                assert got == brute_weight_diff(g, b.basepoint, v, w, n)

    sizes = cycle(range(6, 13))
    densities = cycle([0.2, 0.35, 0.5, 0.65])
    for seed in range(50):
        g = random_graph(next(sizes), next(densities), seed=seed)
        got = {cycle_edges(c) for c in enumerate_embedded_4cycles(g)}
        assert got == four_cycles_by_subsets(g), f"seed={seed}"
        assert girth(g) == brute_girth(g), f"seed={seed}"
        assert find_K23(g) == brute_k23(g), f"seed={seed}"

    dt = time.perf_counter() - t0
    print(
        f"[criterion 7] PASS oracle equivalence: 4-cycle counts, girth, "
        f"level/interval sets, weight sums on {len(graphs)} instances "
        f"<= 500 vertices plus 50 seeded random graphs; {dt:.1f}s"
    )


def test_criterion_8_negative_corpus(tmp_path, capsys):
    corpus = non_systolic_counterexamples()
    assert len(corpus) >= 3
    for idx, (c, tag) in enumerate(corpus):
        rep = verify_systolic(c)
        assert not rep.passed, tag
        assert tag in {cert.kind for cert in rep.counterexamples}, tag

        path = tmp_path / f"bad{idx}.complex"
        path.write_text(format_complex(c), encoding="utf-8")
        code = cli_main(["verify", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1, tag
        # stderr carries the first certificate of the failing check
        assert "systolic:" in err, (tag, err)

    broken = tmp_path / "broken.complex"
    broken.write_text("v 0\ne 0 1\n")
    assert cli_main(["verify", "--input", str(broken)]) == 2
    capsys.readouterr()

    print(
        f"[criterion 8] PASS all {len(corpus)} negative complexes fail with "
        f"their expected tag; CLI exits 1 on violations and 2 on bad input"
    )
