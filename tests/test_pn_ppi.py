import random

from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.checker import REGULAR, VALID, check_proof
from ggtkit.formulas import gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn, build_ppi
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
