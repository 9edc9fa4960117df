import math
import random
from functools import partial

import pytest

from ggtkit.checker import POOL, REGULAR, VALID, check_proof
from ggtkit.formulas import FormulaInstance, GGT, gen_ggt, cyclic_classes
from ggtkit.gtproofs import Skeleton, build_pn, build_ppi_dag
from ggtkit import gtproofs, lr_engine
from ggtkit.bpo import Bpo, associated_bpo
from ggtkit.literals import encode_lit, pair_table, trans_clause, make_clause
from ggtkit.lr_engine import (
    INPUT_MODE,
    POOL_MODE,
    ConstructionError,
    NodeBudgetExceeded,
    StageRecord,
    _Engine,
    build_pool_with_stats,
    build_regrti_with_stats,
)
from ggtkit.proofs import LEMMA, RESOLVE, TREE, below_pivot_masks, resolve_on_var
from tests import oracles
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

    skel = build_ppi_dag(Bpo.empty(n))
    clauses = list(skel.clauses())
    masks = below_pivot_masks(skel.premises, skel.pivot)
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


@pytest.mark.parametrize("mode", [POOL_MODE, INPUT_MODE])
def test_every_learned_node_is_input_derived(mode):
    # `_derive` resolves two axioms, and `_unfold` learns only input-derived
    # inferences, so a lemma `_available` offers is an input lemma
    learned = 0
    for n in range(4, 10):
        for seed in range(4):
            eng = _Engine(gen_ggt(n, seed), mode, None)
            eng.run()
            nodes = [node for nodes in eng.learned.values() for node in nodes]
            assert all(node.inp for node in nodes), (n, seed)
            learned += len(nodes)
    assert learned > 100


@pytest.mark.parametrize("mode", [POOL_MODE, INPUT_MODE])
def test_chain_plans_read_the_leaf_order(monkeypatch, mode):
    # a chain's new pairs P join pi-minimal vertices, so a path out of a
    # minimal vertex in tau + P takes P edges first and tau edges after:
    # the branch's rows tau, rebuilt from its literals, and its order's
    # rows pi give tau + P and pi + P the same associated order
    case_branch, plan_chain = _Engine._case_branch, _Engine._plan_chain
    leaf, plans = [], []

    def branching(engine, rec, skel, trigger):
        leaf[:] = [rec]
        return case_branch(engine, rec, skel, trigger)

    def planned(engine, rows, new_pairs, steps):
        n, rec = engine.n, leaf[0]
        assert rows == rec.pi.rows
        pair = pair_table(n)
        tau = [0] * n
        for lit in rec.cplus:
            a, b = pair[-lit]
            tau[a] |= 1 << b
        with_pi = list(rows)
        for a, b in new_pairs:
            tau[a] |= 1 << b
            with_pi[a] |= 1 << b
        assert associated_bpo(n, tau) == associated_bpo(n, with_pi), (n, sorted(rec.cplus))
        plans.append(new_pairs)
        return plan_chain(engine, rows, new_pairs, steps)

    monkeypatch.setattr(_Engine, "_case_branch", branching)
    monkeypatch.setattr(_Engine, "_plan_chain", planned)
    for n in range(4, 11):
        for seed in range(4):
            _Engine(gen_ggt(n, seed), mode, None).run()
    assert len(plans) > 500


@pytest.mark.parametrize("build", [build_pool_with_stats, build_regrti_with_stats])
def test_only_expanding_stages_derive_clauses(monkeypatch, build):
    # a branching stage classifies its axioms from their kinds and unfolds
    # no order derivation; no stage runs the skeleton's own clause pass
    unfold = _Engine._unfold
    calls, passes = [], []

    def counted(engine, skel, decisions):
        calls.append(skel)
        return unfold(engine, skel, decisions)

    monkeypatch.setattr(_Engine, "_unfold", counted)
    monkeypatch.setattr(Skeleton, "clauses", lambda skel: passes.append(skel))
    branchings = 0
    for n in range(5, 10):
        for seed in range(4):
            calls.clear()
            _, st = build(n, seed)
            assert len(calls) == st.stages - st.case_iv, (n, seed)
            branchings += st.case_iv
    assert branchings > 0
    assert passes == []


@pytest.mark.parametrize("build", [build_pool_with_stats, build_regrti_with_stats])
def test_each_expanding_stage_derives_its_clauses_once(monkeypatch, build):
    # a build resolves each inference of an expanding stage's order
    # derivation once, each pair of guarded copies it learns from once
    # (`_derive`), and each step and closure join of a case-iv subproof
    # twice: planned (`_plan_chain` and the closure check), then built
    calls, skeletons, derived, steps = [], [], [], []

    def counted(*args):
        calls.append(args)
        return resolve_on_var(*args)

    def kept(pi):
        skeletons.append(build_ppi_dag(pi))
        return skeletons[-1]

    def learned(engine, tclause, glit):
        derived.append(tclause)
        return derive(engine, tclause, glit)

    def planned(engine, rows, new_pairs, chain_steps):
        steps.append(len(chain_steps))
        return plan_chain(engine, rows, new_pairs, chain_steps)

    resolve_on_var, derive, plan_chain = lr_engine.resolve_on_var, _Engine._derive, _Engine._plan_chain
    monkeypatch.setattr(lr_engine, "resolve_on_var", counted)
    monkeypatch.setattr(gtproofs, "resolve_on_var", counted)
    monkeypatch.setattr(lr_engine, "build_ppi_dag", kept)
    monkeypatch.setattr(_Engine, "_derive", learned)
    monkeypatch.setattr(_Engine, "_plan_chain", planned)
    for n in range(5, 10):
        for seed in range(4):
            for log in (calls, skeletons, derived, steps):
                log.clear()
            d, st = build(n, seed)
            inferences = sum(sum(map(bool, skel.premises))
                             for skel, rec in zip(skeletons, st.stage_log) if rec.case == "expand")
            joins = 2 * st.case_iv_gamma + 3 * st.case_iv_beta
            assert len(calls) == inferences + len(derived) + 2 * (sum(steps) + joins), (n, seed)
            if build is build_pool_with_stats:
                # a pool build emits each of those inferences once, so only
                # the planning resolutions go unemitted
                lines = sum(node.rule == RESOLVE for node in d.nodes)
                assert len(calls) == lines + sum(steps) + joins, (n, seed)


@pytest.mark.parametrize("build", [build_pool_with_stats, build_regrti_with_stats])
def test_guarded_clauses_key_the_stage_table(monkeypatch, build):
    # `_unfold` cites a repeated clause through one table keyed by clause;
    # pool builds cite what a table keyed by skeleton node would because,
    # in every expanding stage, distinct inferences have distinct guarded
    # clauses and none has the clause of an axiom classified "derive"
    stages = []
    unfold = _Engine._unfold

    def kept(engine, skel, decisions):
        stages.append((skel, decisions))
        return unfold(engine, skel, decisions)

    monkeypatch.setattr(_Engine, "_unfold", kept)
    for n in range(4, 11):
        for seed in range(4):
            build(n, seed)
    derives = 0
    for skel, decisions in stages:
        clauses = list(skel.clauses())
        for nid, prem in enumerate(skel.premises):
            if prem:
                clauses[nid] = resolve_on_var(RESOLVE, clauses[prem[0]], clauses[prem[1]],
                                              skel.pivot[nid])
            elif decisions.get(nid, ("",))[0] == "guard":
                clauses[nid] |= {decisions[nid][1]}
        inferences = [clauses[nid] for nid, prem in enumerate(skel.premises) if prem]
        assert len(set(inferences)) == len(inferences)
        derived = {clauses[nid] for nid, (what, _) in decisions.items() if what == "derive"}
        assert derived.isdisjoint(inferences)
        derives += len(derived)
    assert len(stages) > 500 and derives > 500


def _clashing_guard(unfold):
    """`_Engine._unfold`, except that an axiom of an order derivation
    with a literal no inference below it resolves on is given that
    literal's negation as its guard literal: resolved into the axiom's
    consumer, the guard meets the literal."""
    def clash(engine, skel, decisions):
        masks = below_pivot_masks(skel.premises, skel.pivot)
        for nid in decisions:
            free = [lit for lit in engine.trans[skel.tri[nid]] if not masks[nid] >> abs(lit) & 1]
            if free:
                decisions[nid] = ("guard", -free[0])
        return unfold(engine, skel, decisions)

    return clash


@pytest.mark.parametrize("build", [build_pool_with_stats, build_regrti_with_stats])
def test_a_guard_literal_meeting_its_negation_raises(monkeypatch, build):
    monkeypatch.setattr(_Engine, "_unfold", _clashing_guard(_Engine._unfold))
    with pytest.raises(ConstructionError, match="guard literal meets its negation on the way down"):
        build(6, 0)


def _wrong_skeleton_root(derive):
    def wrong_root(skel):
        for nid, clause in enumerate(derive(skel)):
            yield clause ^ {1} if nid == skel.root else clause

    return wrong_root


def _wrong_unfolded_root(unfold):
    def wrong_root(engine, skel, decisions):
        root = unfold(engine, skel, decisions)
        root.clause ^= {1}
        return root

    return wrong_root


@pytest.mark.parametrize("build,owner,attr,wrong,error", [
    (partial(build_pool_with_stats, 6, 0), _Engine, "_unfold", _wrong_unfolded_root,
     ConstructionError),
    (partial(build_regrti_with_stats, 6, 0), _Engine, "_unfold", _wrong_unfolded_root,
     ConstructionError),
    (partial(build_pn, 6), Skeleton, "clauses", _wrong_skeleton_root, ConstructionError),
], ids=["pool", "regrti", "pn"])
def test_a_wrong_derivation_root_raises(monkeypatch, build, owner, attr, wrong, error):
    # the pool builds check the root each expanding stage unfolds, and
    # build_pn checks the root as the derivation yields it
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    with pytest.raises(error, match="differs from the pi clause"):
        build()


def test_trans_postorder_matches_the_two_visit_reference(monkeypatch):
    # every stage's skeleton of the GGT(4..10) builds, then seeded orders at n = 13
    skeletons = []
    build = lr_engine.build_ppi_dag

    def kept(pi):
        skeletons.append(build(pi))
        return skeletons[-1]

    monkeypatch.setattr(lr_engine, "build_ppi_dag", kept)
    for n in range(4, 11):
        for seed in range(3):
            for make in (build_pool_with_stats, build_regrti_with_stats):
                make(n, seed)
    monkeypatch.undo()
    assert len(skeletons) > 1000
    rng = random.Random(13)
    skeletons.extend(build_ppi_dag(oracles.random_order(13, rng, rng.randrange(0, 26)))
                     for _ in range(100))
    for skel in skeletons:
        assert skel.trans_postorder() == oracles.trans_postorder(skel)
