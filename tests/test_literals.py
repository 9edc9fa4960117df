import itertools
import random

import pytest

from tests import oracles
from ggtkit.bpo import associated_bpo
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.literals import (
    PairError,
    TautologyError,
    alpha_clause,
    bits,
    clause_key,
    cyclic_classes,
    decode_lit,
    encode_lit,
    lit_table,
    make_clause,
    min_first,
    num_vars,
    pair_table,
    trans_clause,
    trans_table,
    triangle_of,
    triangle_table,
)


def test_codec_first_pair():
    assert encode_lit(0, 1, 4) == 1


def test_codec_formula_example():
    # v(2,3) = 2*4 - 3 + 1 = 6
    assert encode_lit(2, 3, 4) == 6
    assert encode_lit(3, 2, 4) == -6


def test_codec_roundtrip_exhaustive_n6():
    n = 6
    seen = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lit = encode_lit(i, j, n)
            assert decode_lit(lit, n) == (i, j)
            seen.add(lit)
    assert seen == {l for v in range(1, num_vars(n) + 1) for l in (v, -v)}


def test_decode_lit_inverts_encode_lit_up_to_n40():
    for n in range(2, 41):
        nvars = num_vars(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert decode_lit(encode_lit(i, j, n), n) == (i, j)
        # 0, one past the end, and -(nvars+1), which indexes the table's
        # slot of +nvars from the end
        for lit in (0, nvars + 1, -(nvars + 1)):
            with pytest.raises(PairError, match=f"literal {lit} out of range for n={n}"):
                decode_lit(lit, n)


def test_codec_bijective_onto_range():
    n = 5
    positives = {encode_lit(i, j, n) for i in range(n) for j in range(i + 1, n)}
    assert positives == set(range(1, num_vars(n) + 1))


def test_codec_rejects_bad_pairs():
    with pytest.raises(PairError):
        encode_lit(1, 1, 4)
    with pytest.raises(PairError):
        encode_lit(0, 4, 4)
    with pytest.raises(PairError):
        decode_lit(7, 4)


def test_canonical_identification():
    # x[i,j] and the negation of x[j,i] are the same literal
    n = 6
    for i in range(n):
        for j in range(n):
            if i != j:
                assert encode_lit(i, j, n) == -encode_lit(j, i, n)


def test_make_clause_rejects_tautology():
    with pytest.raises(TautologyError):
        make_clause([1, -1, 2])


def test_make_clause_and_trans_clause_reject_bad_input():
    with pytest.raises(PairError, match="literal 0 is not allowed"):
        make_clause([1, 0])
    with pytest.raises(PairError, match=r"degenerate or out-of-range transitivity triple \(0,0,1\)"):
        trans_clause(0, 0, 1, 4)


def test_clause_key_deterministic():
    assert clause_key([3, -1, 2, -2]) == (-1, 2, -2, 3)


def test_clause_key_matches_the_abs_sign_order():
    rng = random.Random(11)
    for _ in range(2000):
        pool = rng.sample(range(1, 30), rng.randint(1, 8))
        # both polarities of one variable, and repeated literals
        lits = [rng.choice((v, -v)) for v in pool for _ in range(rng.randint(1, 3))]
        rng.shuffle(lits)
        for clause in (tuple(lits), frozenset(lits), lits):
            assert clause_key(clause) == tuple(sorted(clause, key=lambda l: (abs(l), l < 0)))
    assert clause_key(()) == ()
    assert clause_key((5, -5, 5, -5, -5)) == (5, 5, -5, -5, -5)


def test_triangle_of_recognizes_cycles():
    n = 5
    assert triangle_of(trans_clause(2, 4, 1, n), n) == (1, 2, 4)
    assert triangle_of(trans_clause(0, 1, 2, n), n) == (0, 1, 2)
    assert triangle_of(alpha_clause(0, n), n) is None
    assert triangle_of(frozenset({1, 2, 3}), n) is None


def _three_literal_clauses(n):
    for vs in itertools.combinations(range(1, num_vars(n) + 1), 3):
        for signs in itertools.product((1, -1), repeat=3):
            yield frozenset(s * v for s, v in zip(signs, vs))


def test_triangle_of_matches_the_decoding_reference():
    for n in (4, 5):
        clauses = list(_three_literal_clauses(n))
        assert len(clauses) == 8 * (num_vars(n) * (num_vars(n) - 1) * (num_vars(n) - 2) // 6)
        named = [c for c in clauses if oracles.triangle_of(c, n) is not None]
        assert len(named) == len(triangle_table(n)) == 2 * (n * (n - 1) * (n - 2) // 6)
        for clause in clauses:
            assert triangle_of(clause, n) == oracles.triangle_of(clause, n)
    # at n = 13, seeded 3-clauses: random ones, and transitivity clauses
    # with one literal negated or replaced
    n = 13
    lits = [l for v in range(1, num_vars(n) + 1) for l in (v, -v)]
    rng = random.Random(13)
    for _ in range(3000):
        vs = rng.sample(range(1, num_vars(n) + 1), 3)
        clause = frozenset(v if rng.random() < 0.5 else -v for v in vs)
        assert triangle_of(clause, n) == oracles.triangle_of(clause, n)
        tri = tuple(rng.sample(range(n), 3))
        clause = trans_clause(*tri, n)
        assert triangle_of(clause, n) == oracles.triangle_of(clause, n) == min_first(*tri)
        lit = rng.choice(sorted(clause))
        other = rng.choice([l for l in lits if l not in clause and -l not in clause])
        for changed in (clause - {lit} | {-lit}, clause - {lit} | {other}):
            assert triangle_of(changed, n) == oracles.triangle_of(changed, n)


def test_tables_are_shared_and_read_only():
    assert pair_table(7) is pair_table(7)
    assert triangle_table(7) is triangle_table(7)
    with pytest.raises(TypeError):
        triangle_table(7)[frozenset({1, 2, 3})] = (0, 1, 2)


def test_lit_table_agrees_with_encode_lit():
    for n in range(2, 41):
        table = lit_table(n)
        assert len(table) == n and all(len(row) == n for row in table)
        for i, j in itertools.product(range(n), repeat=2):
            assert table[i][j] == (encode_lit(i, j, n) if i != j else 0)


def test_trans_table_agrees_with_trans_clause():
    for n in range(4, 14):
        table = trans_table(n)
        assert list(table) == cyclic_classes(n)  # keyed by min-first triangle
        for tri, clause in table.items():
            assert clause == trans_clause(*tri, n)
            assert triangle_table(n)[clause] == tri


def test_forward_tables_are_shared_and_read_only():
    assert lit_table(7) is lit_table(7)
    assert trans_table(7) is trans_table(7)
    # the inverse holds triangle_table's own frozensets, not copies
    assert sorted(map(id, trans_table(7).values())) == sorted(map(id, triangle_table(7)))
    with pytest.raises(TypeError):
        lit_table(7)[0][1] = 5
    with pytest.raises(TypeError):
        trans_table(7)[(0, 1, 2)] = frozenset()


def test_gt_derivations_at_n40_build_no_triangle_table():
    # at n = 40 the tables would hold 8 MB; build_pn and build_ppi make
    # their axioms with trans_clause, which reads lit_table alone
    misses = triangle_table.cache_info().misses
    build_pn(40)
    build_ppi(40, associated_bpo(40, oracles.spec_rows(40, [(0, 5), (3, 5), (7, 30), (30, 39)])))
    assert triangle_table.cache_info().misses == misses


def test_triangle_of_is_none_for_literals_out_of_range():
    # a literal outside +-1..C(n,2) names no triangle over n vertices
    nvars = num_vars(5)
    for lit in (nvars + 1, -(nvars + 1)):
        assert triangle_of(frozenset({1, -5, lit}), 5) is None


def test_min_first_names_the_triangle():
    for i, j, k in ((0, 2, 5), (3, 1, 4), (4, 3, 1)):
        rots = ((i, j, k), (j, k, i), (k, i, j))
        names = {min_first(*r) for r in rots}
        assert len(names) == 1
        (name,) = names
        assert name in rots and name[0] == min(i, j, k)
        assert trans_clause(*name, 6) == trans_clause(i, j, k, 6)
        assert triangle_of(trans_clause(i, j, k, 6), 6) == name


def test_bits_in_increasing_order():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(1 << 200 | 2)) == [1, 200]
