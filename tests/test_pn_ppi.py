import random

import pytest

from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.checker import REGULAR, VALID, check_proof
from ggtkit.formulas import SizeError, gen_gt, gen_gt_pi, guards
from ggtkit.gtproofs import build_pn, build_ppi, build_ppi_dag
from ggtkit.literals import bits, encode_lit, min_first
from ggtkit.proofs import below_pivot_masks
from tests.oracles import allowed_pivot_vars, random_order, semantic_entails


def test_pn_n2_three_nodes():
    d = build_pn(2)
    assert len(d) == 3
    assert d.root_clause == frozenset()


def test_pn_valid_regular_small():
    for n in range(2, 9):
        d = build_pn(n)
        report = check_proof(d, gen_gt(n), (VALID, REGULAR))
        assert report.ok, (n, report.lines()[:4])
        assert d.root_clause == frozenset()


def test_pn_node_bound():
    for n in (8, 16, 32):
        assert len(build_pn(n)) <= 4 * n**3


def test_pn_soundness_oracle():
    # every clause of the n=4 refutation is entailed by the axioms
    n = 4
    d = build_pn(n)
    clauses = list(gen_gt(n).clauses)
    for nd in d.nodes:
        assert semantic_entails(clauses, frozenset(nd.clause), n)


def test_ppi_empty_equals_pn():
    for n in (2, 3, 5):
        assert build_ppi(n, Bpo.empty(n)).nodes == build_pn(n).nodes


def test_ppi_single_pair():
    n = 4
    pi = Bpo.of(n, [(1, 3)])
    d = build_ppi(n, pi)
    assert d.root_clause == bpo_clause(pi)
    report = check_proof(d, gen_gt_pi(n, pi), (VALID, REGULAR))
    assert report.ok
    allowed = allowed_pivot_vars(pi, n)
    for nd in d.nodes:
        if nd.pivot is not None:
            assert nd.pivot in allowed


def test_ppi_randomized():
    rng = random.Random(19)
    for n in range(4, 9):
        for _ in range(40):
            pi = random_order(n, rng, rng.randrange(0, 2 * n))
            d = build_ppi(n, pi)
            f = gen_gt_pi(n, pi)
            report = check_proof(d, f, (VALID, REGULAR))
            assert report.ok, (n, sorted(pi.pairs), report.lines()[:4])
            assert d.root_clause == bpo_clause(pi)
            allowed = allowed_pivot_vars(pi, n)
            fset = f.clause_set()
            for nd in d.nodes:
                if nd.pivot is not None:
                    assert nd.pivot in allowed
                else:
                    assert frozenset(nd.clause) in fset  # leaves are formula clauses only
            assert len(d) <= 4 * n**3


def test_ppi_total_bpo():
    # every vertex except one below a single maximum
    n = 5
    pi = Bpo.of(n, [(i, 4) for i in range(4)])
    d = build_ppi(n, pi)
    assert d.root_clause == bpo_clause(pi)
    assert check_proof(d, gen_gt_pi(n, pi), (VALID, REGULAR)).ok


def _seeded_skeletons():
    """The skeletons of seeded orders at n = 4..13, each with a guard map
    drawn for it."""
    rng = random.Random(23)
    for n in range(4, 14):
        for _ in range(6):
            pi = random_order(n, rng, rng.randrange(0, 2 * n))
            yield build_ppi_dag(pi), guards(n, rng.randrange(1000))


def test_each_transitivity_axiom_carries_its_min_first_triangle():
    for skel, _ in _seeded_skeletons():
        for nid, kind in enumerate(skel.kind):
            if kind is None or kind[0] == "alpha":
                assert skel.tri[nid] is None
            else:
                assert skel.tri[nid] == min_first(*kind[1])


def test_blocked_axioms_have_their_guard_variable_resolved_below():
    # the per-node test `Skeleton.blocked` replaces: the variables resolved
    # on some path toward the root, plus the axiom's guard variable
    blocked = 0
    for skel, gmap in _seeded_skeletons():
        masks = below_pivot_masks(skel.premises, skel.pivot)
        want = [nid for nid, kind in enumerate(skel.kind)
                if kind is not None and kind[0] != "alpha"
                and masks[nid] >> abs(gmap[min_first(*kind[1])]) & 1]
        assert skel.blocked(gmap) == want
        blocked += len(want)
    assert blocked > 100


def test_root_resolves_the_two_lowest_minimal_vertices():
    # the solver's last decision step relies on it: with minimal vertices
    # m0 < m1 < ..., the root resolves on the pair {m0, m1}; with one
    # minimal vertex it is that vertex's minimality clause
    rng = random.Random(29)
    several = single = 0
    for n in range(2, 41):
        for _ in range(5):
            pi = random_order(n, rng, rng.randrange(0, n * min(n, 8)))
            skel = build_ppi_dag(pi)
            minimal = list(bits(pi.minimal))
            root = skel.root
            if len(minimal) >= 2:
                several += 1
                assert skel.premises[root], (n, pi.text)
                assert skel.pivot[root] == encode_lit(minimal[0], minimal[1], n), (n, pi.text)
            else:
                single += 1
                assert skel.premises[root] == (), (n, pi.text)
                assert skel.kind[root] == ("alpha", minimal[0]), (n, pi.text)
    assert several > 100 and single > 40, (several, single)


def test_derivations_reject_a_size_or_an_order_of_another_size():
    with pytest.raises(SizeError, match="derivation needs n >= 2, got 1"):
        build_ppi_dag(Bpo.empty(1))
    with pytest.raises(ValueError, match="pi is over 4 vertices, wanted 5"):
        build_ppi(5, Bpo.empty(4))
