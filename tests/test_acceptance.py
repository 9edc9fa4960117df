"""Acceptance suite: one check per shipping criterion, with its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Slopes are least-squares fits of log(metric) against log(n)
over n >= 6, mirroring the bench harness.
"""

import math
import random
import resource
import time

from ggtkit.bench import bench_run, fit_slope, to_csv
from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.checker import INPUT_LEMMA, POOL, REGULAR, VALID, check_proof
from ggtkit.dimacs import write_dimacs
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.literals import triangle_of
from ggtkit.lr_engine import (
    build_pool_with_stats,
    build_regrti_with_stats,
)
from ggtkit.proof_io import serialize_proof
from ggtkit.proofs import AXIOM, LEMMA, RESOLVE
from ggtkit.solver import solve
from tests.oracles import allowed_pivot_vars, is_satisfiable, random_order, semantic_entails


def _report(name, elapsed, budget, detail=""):
    print(f"ACCEPT {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


def test_criterion_1_formula_counts_and_unsat():
    start = time.monotonic()
    for n in range(3, 13):
        assert len(gen_gt(n).clauses) == n + 2 * math.comb(n, 3)
        assert len(gen_ggt(n, 1).clauses) == n + (4 if n >= 4 else 2) * math.comb(n, 3)
    for n in (3, 4, 5):
        assert not is_satisfiable(gen_gt(n).clauses, n)
    for seed in range(10):
        for n in (4, 5):
            assert not is_satisfiable(gen_ggt(n, seed).clauses, n)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("1 formula counts + truth-table unsat", elapsed, 1)


def test_criterion_2_pn_valid_regular_and_slopes():
    start = time.monotonic()
    points = []
    widths = []
    for n in range(2, 33):
        d = build_pn(n)
        assert check_proof(d, gen_gt(n), (VALID, REGULAR)).ok, n
        if 8 <= n <= 32:
            points.append((n, len(d)))
            widths.append((n, d.max_width()))
    line_slope = fit_slope(points)
    width_slope = fit_slope(widths)
    assert line_slope <= 3.2, line_slope
    assert width_slope <= 2.2, width_slope
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("2 pn refutations", elapsed, 10,
            f"(line slope {line_slope:.2f}, width slope {width_slope:.2f})")


def test_criterion_3_ppi_randomized():
    start = time.monotonic()
    rng = random.Random(2024)
    for n in range(4, 11):
        allowed_cache = {}
        for _ in range(200):
            pi = random_order(n, rng, rng.randrange(0, 2 * n))
            d = build_ppi(n, pi)
            assert d.root_clause == bpo_clause(pi)
            report = check_proof(d, gen_gt_pi(n, pi), (VALID, REGULAR))
            assert report.ok, (n, sorted(pi.pairs))
            allowed = allowed_cache.get(pi.pairs)
            if allowed is None:
                allowed = allowed_pivot_vars(pi, n)
                allowed_cache[pi.pairs] = allowed
            for nd in d.nodes:
                if nd.pivot is not None:
                    assert nd.pivot in allowed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("3 ppi derivations (200 random orders per n in 4..10)", elapsed, 60)


def test_criterion_4_pool_refutations():
    start = time.monotonic()
    points, widths = [], []
    for n in range(4, 13):
        for seed in (0, 1, 2):
            d, st = build_pool_with_stats(n, seed)
            f = gen_ggt(n, seed)
            report = check_proof(d, f, (VALID, REGULAR, POOL))
            assert report.ok, (n, seed, report.lines()[:4])
            assert st.stages <= 6 * math.comb(n, 3), (n, seed, st.stages)
            assert st.case_iv <= 2 * math.comb(n, 3), (n, seed, st.case_iv)
            if n >= 6 and seed == 0:
                points.append((n, st.lines))
                widths.append((n, st.max_width))
    line_slope = fit_slope(points)
    width_slope = fit_slope(widths)
    assert line_slope <= 6.2, line_slope
    assert width_slope <= 2.2, width_slope
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    assert peak_gb < 2.0, peak_gb
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("4 pool refutations", elapsed, 300,
            f"(line slope {line_slope:.2f}, width slope {width_slope:.2f}, peak {peak_gb:.2f} GB)")


def test_criterion_5_regrti_refutations():
    start = time.monotonic()
    points = []
    for n in range(4, 11):
        for seed in (0, 1, 2):
            d, st = build_regrti_with_stats(n, seed)
            f = gen_ggt(n, seed)
            report = check_proof(d, f, (VALID, REGULAR, POOL, INPUT_LEMMA))
            assert report.ok, (n, seed, report.lines()[:4])
            assert st.unfold_lines <= st.segment_budget, (n, seed)
            if n >= 6 and seed == 0:
                points.append((n, st.lines))
    slope = fit_slope(points)
    assert slope <= 7.2, slope
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("5 regrti refutations", elapsed, 300, f"(line slope {slope:.2f})")


def test_criterion_6_soundness_oracle():
    start = time.monotonic()
    checked = 0
    emitted = []
    for n in (2, 3, 4):
        emitted.append((build_pn(n), list(gen_gt(n).clauses), n))
    pi = Bpo.of(4, [(1, 3)])
    emitted.append((build_ppi(4, pi), list(gen_gt_pi(4, pi).clauses), 4))
    for seed in (0, 1, 2):
        f = gen_ggt(4, seed)
        emitted.append((build_pool_with_stats(4, seed)[0], list(f.clauses), 4))
        emitted.append((build_regrti_with_stats(4, seed)[0], list(f.clauses), 4))
        emitted.append((solve(f, trace=True).trace, list(f.clauses), 4))
    for d, clauses, n in emitted:
        for nd in d.nodes:
            assert semantic_entails(clauses, frozenset(nd.clause), n), (n, nd)
            checked += 1
    elapsed = time.monotonic() - start
    _report("6 soundness oracle", elapsed, 120, f"({checked} clauses entailed)")


def test_criterion_7_dpll():
    start = time.monotonic()
    points = []
    for n in range(4, 17):
        for seed in (0, 1, 2):
            f = gen_ggt(n, seed)
            result = solve(f)
            assert result.status == "UNSAT"
            assert result.stats.restarts == 0
            for clause in result.learned_clauses:
                assert triangle_of(clause, n) is not None
            if n >= 6 and seed == 0:
                points.append((n, result.stats.conflicts))
    for n in (4, 6, 8):
        f = gen_ggt(n, 0)
        result = solve(f, trace=True)
        assert check_proof(result.trace, f, (VALID,)).ok
        assert result.trace.root_clause == frozenset()
    slope = fit_slope(points)
    assert slope <= 7.0, slope
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report("7 dpll solver", elapsed, 180, f"(conflict slope {slope:.2f})")


def test_criterion_8_checker_discrimination():
    start = time.monotonic()
    import tests.test_mutations as muts

    muts.test_corrupted_pivot_mutants()
    muts.test_forward_lemma_mutants()
    muts.test_repeated_pivot_mutants()
    muts.test_non_input_lemma_mutants()
    elapsed = time.monotonic() - start
    _report("8 checker discrimination (>=100 mutants, 0 false accepts)", elapsed, 120)


def test_criterion_9_determinism():
    start = time.monotonic()
    assert write_dimacs(gen_ggt(8, 3)) == write_dimacs(gen_ggt(8, 3))
    a, _ = build_pool_with_stats(6, 2)
    b, _ = build_pool_with_stats(6, 2)
    assert serialize_proof(a) == serialize_proof(b)
    r1, _ = bench_run(range(4, 7), range(2), ("pn", "pool", "dpll"), wall=False)
    r2, _ = bench_run(range(4, 7), range(2), ("pn", "pool", "dpll"), wall=False)
    assert to_csv(r1) == to_csv(r2)
    elapsed = time.monotonic() - start
    _report("9 determinism", elapsed, 120)


def test_criterion_10_no_degenerate_inferences():
    # the paper's pool refutations have no degenerate resolution step, and
    # these builders make no w-resolution step either
    start = time.monotonic()
    for n in range(4, 11):
        for seed in range(4):
            for build in (build_pool_with_stats, build_regrti_with_stats):
                d, _ = build(n, seed)
                rules = {nd.rule for nd in d.nodes}
                assert rules <= {AXIOM, LEMMA, RESOLVE}, (build.__name__, n, seed, rules)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("10 no degenerate inferences (pool, regRTI; n 4..10, seeds 0-3)", elapsed, 60)
