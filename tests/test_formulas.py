import math
import random

import pytest

from ggtkit.bpo import Bpo
from ggtkit.formulas import (
    GGT,
    _admissible_guards,
    FormulaInstance,
    GuardError,
    SizeError,
    cyclic_classes,
    gen_ggt,
    gen_gt,
    gen_gt_pi,
    gt_pi_triangles,
    guarded_copies,
    guards,
    read_guards,
)
from ggtkit.literals import (
    PairError, bits, clause_key, decode_lit, encode_lit, make_clause, min_first, trans_clause,
)
from tests.oracles import all_assignments, is_satisfiable, random_order, satisfies


def test_gt3_exact_clauses():
    # vars 1=x01, 2=x02, 3=x12
    f = gen_gt(3)
    got = {clause_key(c) for c in f.clauses}
    assert got == {(-1, -2), (1, -3), (2, 3), (-1, 2, -3), (1, -2, 3)}


def test_gt2_two_units():
    f = gen_gt(2)
    assert {clause_key(c) for c in f.clauses} == {(-1,), (1,)}


def test_clause_counts_closed_forms():
    for n in range(2, 13):
        assert len(gen_gt(n).clauses) == n + 2 * math.comb(n, 3)
    for n in range(4, 13):
        assert len(gen_ggt(n, 3).clauses) == n + 4 * math.comb(n, 3)
    assert len(gen_ggt(4, 0).clauses) == 20


def test_gt_clauses_canonical():
    for n in (3, 5, 6):
        for c in gen_gt(n).clauses:
            assert len(c) == len(set(c))
            assert not any(-l in c for l in c)


def test_small_instances_unsatisfiable():
    for n in (2, 3, 4, 5):
        assert not is_satisfiable(gen_gt(n).clauses, n)
    for seed in range(10):
        for n in (4, 5):
            assert not is_satisfiable(gen_ggt(n, seed).clauses, n)


def test_guard_resolution_recovers_transitivity():
    n = 5
    f = gen_ggt(n, 2)
    gmap = f.guard_map
    for (i, j, k) in cyclic_classes(n):
        t = trans_clause(i, j, k, n)
        g = gmap[min_first(i, j, k)]
        assert frozenset(t | {g}) in f.clause_set()
        assert frozenset(t | {-g}) in f.clause_set()


def test_guard_invariants():
    for seed in range(10):
        gmap = guards(6, seed)
        for (i, j, k), g in gmap.items():
            r, s = decode_lit(g, 6)
            assert r != s
            assert not {r, s} <= {i, j, k}


def test_guard_lits_match_guard_pairs():
    for n in range(4, 13):
        for seed in range(3):
            gmap = guards(n, seed)
            assert set(gmap) == set(cyclic_classes(n))
            for rep in cyclic_classes(n):
                assert decode_lit(gmap[rep], n) in _admissible_guards(n, rep)
    # a map read off clauses built from a pair table holds the table's literals
    table = {rep: _admissible_guards(4, rep)[-1] for rep in cyclic_classes(4)}
    direct = _instance(4, {rep: encode_lit(*table[rep], 4) for rep in table}).guard_map
    assert direct == {rep: encode_lit(*table[rep], 4) for rep in cyclic_classes(4)}


def test_guard_cyclic_invariance():
    gmap = guards(5, 4)
    assert gmap[min_first(1, 2, 3)] == gmap[min_first(2, 3, 1)] == gmap[min_first(3, 1, 2)]


def test_guards_differ_across_seeds():
    a, b = guards(6, 0), guards(6, 1)
    assert any(a[key] != b[key] for key in a)


def test_guards_determinism():
    assert guards(7, 5) == guards(7, 5)


def _instance(n, gmap, copies=None):
    """GGT(n) clauses with the guards of `gmap`; `copies(t, g)` lists a
    triangle's guarded copies, by default the +g copy first."""
    copies = copies or (lambda t, g: [t | {g}, t | {-g}])
    clauses = [c for c in gen_gt(n).clauses if len(c) != 3]
    for rep in cyclic_classes(n):
        clauses.extend(make_clause(c) for c in copies(trans_clause(*rep, n), gmap[rep]))
    return FormulaInstance(family=GGT, n=n, clauses=tuple(clauses))


def test_guard_map_is_read_off_the_clauses():
    for n in range(4, 14):
        for seed in range(4):
            f = gen_ggt(n, seed)
            assert f.guard_map == guards(n, seed) == read_guards(n, f.clauses)
    # at n = 5 the minimality clauses have four literals too, and hold no triangle
    assert all(len(c) == 4 for c in gen_ggt(5, 0).clauses[:5])


def test_guard_map_sign_is_the_first_copy_s_guard():
    gmap = guards(6, 2)
    swapped = _instance(6, gmap, lambda t, g: [t | {-g}, t | {g}]).guard_map
    assert swapped == {rep: -g for rep, g in gmap.items()}


def test_guard_map_of_unguarded_and_other_families():
    assert gen_ggt(3, 1).guard_map is None
    assert FormulaInstance(family=GGT, n=5, clauses=gen_gt(5).clauses).guard_map is None
    assert gen_gt(6).guard_map is None
    assert read_guards(6, gen_gt(6).clauses) is None


@pytest.mark.parametrize("guards_of_copies, found", [
    (lambda g, h: [g], "[{g}]"),
    (lambda g, h: [g, -g, h], "[{g}, {neg}, {h}]"),
    (lambda g, h: [g, h], "[{g}, {h}]"),
], ids=["one copy", "three copies", "not opposite"])
def test_unpaired_guards_name_the_triangle(guards_of_copies, found):
    f = gen_ggt(6, 0)
    tri, g = (0, 1, 2), f.guard_map[(0, 1, 2)]
    t = trans_clause(*tri, 6)
    h = next(v for v in range(1, 16) if v != abs(g) and v not in map(abs, t))
    clauses = [c for c in f.clauses if not t < c] + [t | {x} for x in guards_of_copies(g, h)]
    with pytest.raises(GuardError) as info:
        read_guards(6, clauses)
    want = found.format(g=g, neg=-g, h=h)
    assert str(info.value) == f"triangle {tri} has guarded copies {want}; it needs one opposite pair"


def test_guarded_copies_follow_the_clause_order():
    for n in (4, 5, 7):
        f = gen_ggt(n, 1)
        copies = list(guarded_copies(n, f.clauses))
        # after the n minimality clauses, each class's +g and -g copies in turn
        assert [idx for idx, _, _ in copies] == list(range(n, len(f.clauses)))
        assert [(tri, g) for _, tri, g in copies[::2]] == list(f.guard_map.items())
        assert all(g == -h for (_, _, g), (_, _, h) in zip(copies[::2], copies[1::2]))
    assert list(guarded_copies(3, gen_ggt(3, 0).clauses)) == []


def test_guards_reject_small_n():
    with pytest.raises(SizeError):
        guards(3, 0)


def test_ggt_small_n_falls_back_unguarded():
    f = gen_ggt(3, 9)
    assert f.family == GGT and f.guard_map is None and f.seed == 9
    assert f.clauses == gen_gt(3).clauses


def test_gt_pi_empty_equals_gt():
    for n in (3, 4, 6):
        assert gen_gt_pi(n, Bpo.empty(n)).clauses == gen_gt(n).clauses


def test_gt_pi_gamma_enumeration():
    # pi = {(1,3)} over n=4: gamma clauses exactly for k=3, j=1, i in {0,2}
    pi = Bpo.of(4, [(1, 3)])
    betas, gammas = gt_pi_triangles(4, pi)
    expect = {trans_clause(0, 1, 3, 4), trans_clause(2, 1, 3, 4)}
    assert {trans_clause(*tri, 4) for tri in gammas} == expect
    # alpha only for minimal vertices, beta over minimals
    f = gen_gt_pi(4, pi)
    m = pi.minimal.bit_count()
    assert len(f.clauses) == m + len(betas) + len(gammas)


def pi_witness_assignment(n: int, pi: Bpo) -> dict[int, bool] | None:
    """A satisfying assignment for GT_pi when pi is nonempty.

    Puts one fixed non-minimal vertex j below every minimal vertex and
    orders everything else against the canonical direction.
    """
    non_minimal = [v for v in range(n) if not pi.minimal >> v & 1]
    if not non_minimal:
        return None
    j = non_minimal[0]
    assignment = {}
    for a in range(n):
        for b in range(a + 1, n):
            assignment[encode_lit(a, b, n)] = False
    for i in bits(pi.minimal):
        lit = encode_lit(j, i, n)
        assignment[abs(lit)] = lit > 0
    return assignment


def test_gt_pi_nonempty_is_satisfiable():
    rng = random.Random(11)
    for n in (3, 4, 5):
        for _ in range(20):
            a, b = rng.sample(range(n), 2)
            pi = Bpo.of(n, [(a, b)])
            f = gen_gt_pi(n, pi)
            sigma_map = pi_witness_assignment(n, pi)
            sigma = frozenset(v if val else -v for v, val in sigma_map.items())
            assert all(satisfies(sigma, c) for c in f.clauses)


def test_gt_pi_restricted_is_unsatisfiable():
    # fixing the pi pairs true leaves no satisfying assignment
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(10):
            pi = random_order(n, rng, n)
            f = gen_gt_pi(n, pi)
            fixed = {encode_lit(i, j, n) for i, j in pi.pairs}
            for sigma in all_assignments(n):
                if fixed <= sigma:
                    assert not all(satisfies(sigma, c) for c in f.clauses)


def test_size_errors():
    with pytest.raises(SizeError):
        gen_gt(1)
    with pytest.raises(SizeError):
        gen_ggt(1, 0)
    with pytest.raises(SizeError, match="gtpi needs n >= 2, got 1"):
        gen_gt_pi(1, Bpo.empty(1))
    with pytest.raises(PairError, match="pi is over 4 vertices, formula wants 5"):
        gen_gt_pi(5, Bpo.empty(4))
