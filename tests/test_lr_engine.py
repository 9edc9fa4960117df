import math
from functools import partial

import pytest

from ggtkit.checker import POOL, REGULAR, VALID, check_proof
from ggtkit.formulas import FormulaInstance, GGT, gen_ggt, cyclic_classes
from ggtkit.gtproofs import Skeleton, build_pn, build_ppi_dag, ppi_clauses
from ggtkit.bpo import Bpo
from ggtkit.literals import encode_lit, trans_clause, make_clause
from ggtkit.lr_engine import (
    INPUT_MODE,
    POOL_MODE,
    NodeBudgetExceeded,
    StageRecord,
    _Engine,
    build_pool_with_stats,
    build_regrti_with_stats,
)
from ggtkit.proofs import LEMMA, TREE
from tests.postorder_reference import postorder


def test_pool_small_all_profiles():
    for n in (4, 5, 6):
        for seed in (0, 1, 2):
            d, st = build_pool_with_stats(n, seed)
            f = gen_ggt(n, seed)
            report = check_proof(d, f, (VALID, REGULAR, POOL))
            assert report.ok, (n, seed, report.lines()[:5])
            assert d.root_clause == frozenset()
            assert d.shape == TREE


def test_stage_and_branch_bounds():
    # the combinatorial bounds, five seeds per size
    for n in range(4, 11):
        for seed in range(5):
            _, st = build_pool_with_stats(n, seed)
            assert st.stages <= 6 * math.comb(n, 3)
            assert st.case_iv <= 2 * math.comb(n, 3)


def test_pool_deterministic():
    a, _ = build_pool_with_stats(6, 3)
    b, _ = build_pool_with_stats(6, 3)
    assert a.nodes == b.nodes


def test_pool_needs_guarded_instance():
    from ggtkit.formulas import SizeError

    with pytest.raises(SizeError) as info:
        build_pool_with_stats(3, 0)
    assert str(info.value) == "pool construction needs a guarded instance (ggt, n >= 4)"


def test_node_budget_enforced():
    with pytest.raises(NodeBudgetExceeded):
        build_pool_with_stats(8, 0, max_nodes=50)


def test_lemma_targets_precede_references():
    d, _ = build_pool_with_stats(6, 1)
    for nd in d.nodes:
        if nd.rule == LEMMA:
            assert nd.target < nd.nid
            assert d.nodes[nd.target].clause == nd.clause


def _avoiding_guards(n: int) -> tuple[dict[tuple[int, int, int], int], int]:
    """Guards outside each axiom's resolution cone wherever possible.

    The deepest transitivity use of the base derivation has every variable
    below it, so one triple per size cannot be covered; returns the guard
    map (each triple's guard literal) and how many triples stayed uncovered.
    """
    from ggtkit.formulas import _admissible_guards

    skel = build_ppi_dag(n, Bpo.empty(n))
    clauses = ppi_clauses(skel, Bpo.empty(n))
    masks = skel.masks()
    cones = {}
    for nid in skel.trans_postorder():
        cones[clauses[nid]] = masks[nid]
    table = {}
    uncovered = 0
    for rep in cyclic_classes(n):
        mask = cones[trans_clause(*rep, n)]
        options = _admissible_guards(n, rep)
        free = [g for g in options if not mask >> abs(encode_lit(*g, n)) & 1]
        if free:
            table[rep] = encode_lit(*free[0], n)
        else:
            uncovered += 1
            table[rep] = encode_lit(*options[0], n)
    return table, uncovered


def _instance_for(gmap: dict[tuple[int, int, int], int], n: int) -> FormulaInstance:
    from ggtkit.literals import alpha_clause

    clauses = [alpha_clause(i, n) for i in range(n)]
    for rep in cyclic_classes(n):
        t = trans_clause(*rep, n)
        g = gmap[rep]
        clauses.append(make_clause(t | {g}))
        clauses.append(make_clause(t | {-g}))
    return FormulaInstance(family=GGT, n=n, clauses=tuple(clauses), seed=-1)


def test_cone_avoiding_guards_suppress_branching():
    # a stage without a blocked axiom finishes its leaf outright, so the
    # stage count is pinned by the branchings alone
    n = 4
    gmap, uncovered = _avoiding_guards(n)
    assert uncovered == 1  # the deepest use sees every variable below it
    f = _instance_for(gmap, n)
    assert f.guard_map == gmap
    d, st = build_pool_with_stats(f)
    assert check_proof(d, f, (VALID, REGULAR, POOL)).ok
    assert st.stages == 1 + 2 * st.case_iv_gamma + 3 * st.case_iv_beta
    # with random guards, far more of the 8 triples end up branching
    _, st_rand = build_pool_with_stats(4, 0)
    assert st.case_iv <= st_rand.case_iv


def test_stage_accounting_identity():
    # every stage consumes one leaf; a branch adds two or three new ones
    for n in (4, 5, 6, 7):
        for seed in (0, 1):
            _, st = build_pool_with_stats(n, seed)
            assert st.case_iv == st.case_iv_gamma + st.case_iv_beta
            assert st.stages == 1 + 2 * st.case_iv_gamma + 3 * st.case_iv_beta


def test_stage_log():
    for build in (build_pool_with_stats, build_regrti_with_stats):
        for n in (5, 7):
            _, st = build(n, 0)
            assert all(isinstance(rec, StageRecord) for rec in st.stage_log)
            assert [rec.stage for rec in st.stage_log] == list(range(1, st.stages + 1))
            assert sum(rec.case == "branch" for rec in st.stage_log) == st.case_iv
            assert st.stage_log[-1].leaves == 0


def test_available_nodes_are_exactly_those_left_of_the_next_leaf():
    # after every stage, a learned node has its id exactly when it lies
    # strictly left of the next leaf in the finished tree's postorder, that
    # is before the first position of the subtree that replaced the leaf;
    # checking every learned node, not only those a lookup reaches, catches
    # an id given before the walk passed the node
    checks = right = 0
    for mode in (POOL_MODE, INPUT_MODE):
        for n in range(4, 10):
            for seed in range(4):
                eng = _Engine(gen_ggt(n, seed), mode, None)
                snaps = []
                while eng.leaves:
                    eng._stage()
                    if eng.leaves:
                        root = eng.walk[0][0]
                        parent, entered = eng.walk[-2]
                        learned = [node for nodes in eng.learned.values() for node in nodes]
                        numbered = [node.nid >= 0 for node in learned]
                        snaps.append((parent, entered - 1, learned, numbered))
                d, _ = eng.run()
                if not snaps:
                    continue
                pos, first = postorder(root)
                assert len(pos) == len(d)
                for parent, slot, learned, numbered in snaps:
                    start = first[id(parent.kids[slot])]
                    for node, has_id in zip(learned, numbered):
                        left = pos[id(node)] < start
                        assert has_id == left, (mode, n, seed)
                        assert node.nid == pos[id(node)]
                        checks += 1
                        right += not left
    assert checks > right > 0  # some learned nodes did lie right of the next leaf


@pytest.mark.parametrize("build", [build_pool_with_stats, build_regrti_with_stats])
def test_only_expanding_stages_derive_clauses(monkeypatch, build):
    # a branching stage classifies its axioms from their kinds and derives
    # no resolvent of its order derivation
    derive = Skeleton.clauses
    calls = []

    def counted(skel):
        calls.append(skel)
        return derive(skel)

    monkeypatch.setattr(Skeleton, "clauses", counted)
    branchings = 0
    for n in range(5, 10):
        for seed in range(4):
            calls.clear()
            _, st = build(n, seed)
            assert len(calls) == st.stages - st.case_iv, (n, seed)
            branchings += st.case_iv
    assert branchings > 0


@pytest.mark.parametrize("build", [
    partial(build_pool_with_stats, 6, 0), partial(build_regrti_with_stats, 6, 0), partial(build_pn, 6),
], ids=["pool", "regrti", "pn"])
def test_a_wrong_derivation_root_raises(monkeypatch, build):
    # the pool builds reach the root check on their expanding stages, and
    # build_pn checks the root as the derivation yields it
    derive = Skeleton.clauses

    def wrong_root(skel):
        for nid, clause in enumerate(derive(skel)):
            yield clause ^ {1} if nid == skel.root else clause

    monkeypatch.setattr(Skeleton, "clauses", wrong_root)
    with pytest.raises(AssertionError, match="differs from the pi clause"):
        build()
