import random

import pytest

from ggtkit.bpo import (
    Bpo,
    BpoError,
    CyclicOrderError,
    associated_bpo,
    bpo_clause,
    rows_of,
)
from ggtkit.literals import bits, decode_lit, encode_lit, num_vars
from tests.oracles import random_order, reference_associated_pairs, spec_rows


def test_figure_one_example():
    # vertices relabeled 1..11 -> 0..10
    edges = [(3, 6), (6, 10), (7, 10), (4, 7), (4, 8), (5, 8), (5, 9), (9, 11)]
    pi = associated_bpo(11, spec_rows(11, [(a - 1, b - 1) for a, b in edges]))
    assert frozenset(bits(pi.minimal)) == frozenset({0, 1, 2, 3, 4})
    expect = {(3, 6), (3, 10), (4, 7), (4, 10), (4, 8), (5, 8), (5, 9), (5, 11)}
    assert pi.pairs == frozenset((a - 1, b - 1) for a, b in expect)
    assert len(bpo_clause(pi)) == 8


def test_empty_tau():
    pi = associated_bpo(5, [0] * 5)
    assert pi.pairs == frozenset()
    assert frozenset(bits(pi.minimal)) == frozenset(range(5))
    assert bpo_clause(pi) == frozenset()


def test_two_step_closure():
    assert associated_bpo(3, spec_rows(3, [(0, 1), (1, 2)])).pairs == frozenset({(0, 1), (0, 2)})


def test_cyclic_specification_rejected():
    with pytest.raises(CyclicOrderError):
        associated_bpo(3, spec_rows(3, [(0, 1), (1, 2), (2, 0)]))
    with pytest.raises(CyclicOrderError):
        associated_bpo(2, spec_rows(2, [(0, 1), (1, 0)]))


def test_bpo_domain_range_disjoint():
    with pytest.raises(BpoError):
        Bpo.of(3, [(0, 1), (1, 2)])


def test_singleton_clause():
    pi = Bpo.of(3, [(0, 2)])
    assert bpo_clause(pi) == frozenset({-encode_lit(0, 2, 3)})


def test_associated_bpo_idempotent():
    rng = random.Random(3)
    for n in range(2, 8):
        for _ in range(40):
            pi = random_order(n, rng, 2 * n)
            again = associated_bpo(n, spec_rows(n, pi.pairs))
            assert again.pairs == pi.pairs


def test_text_form_reads_back_to_the_order():
    rng = random.Random(8)
    for n in range(4, 41):
        assert Bpo.parse(n, Bpo.empty(n).text) == Bpo.empty(n)
        for _ in range(6):
            pi = random_order(n, rng, rng.randrange(1, 2 * n))
            assert Bpo.parse(n, pi.text) == pi
    assert Bpo.empty(4).text == "" and Bpo.of(5, [(1, 4), (0, 3)]).text == "0:3,1:4"


def test_minimals_contain_isolated_points():
    pi = Bpo.of(6, [(0, 4)])
    assert frozenset(bits(pi.minimal)) == frozenset({0, 1, 2, 3, 5})


def test_associated_bpo_matches_the_pair_set_closure():
    # random pair sets, about a third of them cyclic: the bitmask closure
    # agrees with the depth-first pair-set closure, cycles included
    rng = random.Random(20)
    cyclic = 0
    for n in range(2, 14):
        for _ in range(100):
            pairs = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, 2 * n))}
            try:
                want = reference_associated_pairs(n, pairs)
            except CyclicOrderError:
                cyclic += 1
                with pytest.raises(CyclicOrderError):
                    associated_bpo(n, spec_rows(n, pairs))
                continue
            pi = associated_bpo(n, spec_rows(n, pairs))
            assert pi.pairs == want
            assert pi == Bpo.of(n, want)
    assert 100 < cyclic < 1100


def test_rows_of_matches_decode_lit():
    # seeded sets of true literals, at most one per variable, any polarity
    rng = random.Random(0)
    for n in range(2, 17):
        for _ in range(20):
            variables = rng.sample(range(1, num_vars(n) + 1), rng.randint(0, num_vars(n)))
            lits = [v if rng.random() < 0.5 else -v for v in variables]
            want = [0] * n
            for lit in lits:
                i, j = decode_lit(lit, n)
                want[i] |= 1 << j
            assert rows_of(n, lits) == want, (n, lits)
            assert rows_of(n, iter(lits)) == want
    assert rows_of(5, ()) == [0] * 5
