import dataclasses
import itertools
import random

import pytest

import ggtkit.checker
from ggtkit.checker import (
    ALL_PROFILES,
    GREEDY_UP,
    INPUT_LEMMA,
    POOL,
    REGULAR,
    VALID,
    check_proof,
    input_subtrees,
)
from ggtkit.formulas import FormulaInstance, gen_ggt, gen_gt
from ggtkit.literals import clause_key
from ggtkit.lr_engine import build_regrti_with_stats
from ggtkit.proofs import (
    AXIOM,
    LEMMA,
    RESOLVE,
    TREE,
    W_RESOLVE,
    Derivation,
    ProofNode,
    ProofStructureError,
    apply_rule,
    check_postorder,
)
from ggtkit.proof_io import ProofParseError, parse_proof, serialize_proof
from ggtkit.propagation import ClauseIndex, unit_propagate


def tiny_refutation():
    """Two units and one resolution: the GT2 refutation."""
    f = gen_gt(2)
    nodes = (
        ProofNode(0, AXIOM, (1,)),
        ProofNode(1, AXIOM, (-1,)),
        ProofNode(2, RESOLVE, (), (0, 1), 1),
    )
    return Derivation(nodes, root=2, shape=TREE, family="gt", n=2), f


def test_tiny_refutation_passes_all_profiles():
    d, f = tiny_refutation()
    report = check_proof(d, f, (VALID, REGULAR, POOL, INPUT_LEMMA, GREEDY_UP))
    assert report.ok, report.lines()


def test_check_proof_rejects_an_unknown_profile():
    d, f = tiny_refutation()
    with pytest.raises(ValueError, match="unknown profile 'bogus'"):
        check_proof(d, f, (VALID, "bogus"))


def test_axiom_not_in_formula_fails_valid():
    d, f = tiny_refutation()
    nodes = list(d.nodes)
    nodes[0] = ProofNode(0, AXIOM, (1, -1))  # not a formula clause (and never canonical)
    bad = Derivation(tuple(nodes), root=2, shape=TREE, family="gt", n=2)
    report = check_proof(bad, f, (VALID,))
    assert [v.node for v in report.violations] == [0, 2]


def _ck(clause):
    return tuple(clause_key(clause))


def test_repeated_pivot_fails_regular():
    # resolve on variable 1 twice along one path, every step valid
    c_a = frozenset({1, 2})
    c_b = frozenset({-1, 3})
    c_c = frozenset({-3, 1})
    c_d = frozenset({-1})
    f = FormulaInstance(family="gt", n=3, clauses=(c_a, c_b, c_c, c_d))
    r1 = apply_rule(RESOLVE, c_a, c_b, 1)  # {2,3}
    r2 = apply_rule(RESOLVE, r1, c_c, 3)  # {1,2}
    r3 = apply_rule(RESOLVE, r2, c_d, 1)  # {2}: variable 1 again
    nodes = (
        ProofNode(0, AXIOM, _ck(c_a)),
        ProofNode(1, AXIOM, _ck(c_b)),
        ProofNode(2, RESOLVE, _ck(r1), (0, 1), 1),
        ProofNode(3, AXIOM, _ck(c_c)),
        ProofNode(4, RESOLVE, _ck(r2), (2, 3), 3),
        ProofNode(5, AXIOM, _ck(c_d)),
        ProofNode(6, RESOLVE, _ck(r3), (4, 5), 1),
    )
    d = Derivation(nodes, root=6, shape=TREE, family="gt", n=3)
    report = check_proof(d, f, (VALID, REGULAR))
    assert not [v for v in report.violations if v.profile == VALID]
    regs = [v for v in report.violations if v.profile == REGULAR]
    assert regs and any(v.node == 2 for v in regs)


REGRTI_5, _ = build_regrti_with_stats(5, 0)


@pytest.mark.parametrize("profile", ALL_PROFILES)
@pytest.mark.parametrize("pivot", [-1, 0])
@pytest.mark.parametrize("rule", [RESOLVE, W_RESOLVE])
def test_non_positive_pivot_is_reported_not_raised(profile, pivot, rule):
    d, f = REGRTI_5, gen_ggt(5, 0)
    nid = next(nd.nid for nd in d.nodes if nd.rule == RESOLVE and nd.nid > 20)
    nodes = list(d.nodes)
    nodes[nid] = dataclasses.replace(nodes[nid], pivot=pivot, rule=rule)
    lines = check_proof(dataclasses.replace(d, nodes=tuple(nodes)), f, (profile,)).lines()
    if profile == VALID:
        assert f"[valid] node {nid}: pivot variable must be positive, got {pivot}" in lines
    elif profile == GREEDY_UP:
        # a pivot that is not a variable resolves on no path variable
        assert lines == check_proof(d, f, (profile,)).lines()
    else:
        assert f"[regular] node {nid}: pivot {pivot} is not a variable" in lines


def test_regular_reports_a_repeated_huge_pivot():
    # the masks number the distinct pivots, so no mask is as wide as a pivot
    big = 10**9
    c_a, c_b, c_c, c_d = (big, 2), (-big, 3), (-3, big), (-big,)
    f = FormulaInstance(family="gt", n=3, clauses=tuple(map(frozenset, (c_a, c_b, c_c, c_d))))
    nodes = (
        ProofNode(0, AXIOM, c_a),
        ProofNode(1, AXIOM, c_b),
        ProofNode(2, RESOLVE, (2, 3), (0, 1), big),
        ProofNode(3, AXIOM, c_c),
        ProofNode(4, RESOLVE, (2, big), (2, 3), 3),
        ProofNode(5, AXIOM, c_d),
        ProofNode(6, RESOLVE, (2,), (4, 5), big),
    )
    d = Derivation(nodes, root=6, shape=TREE, family="gt", n=3)
    assert check_proof(d, f, (VALID, REGULAR)).lines() == [
        "valid: PASS",
        "regular: FAIL (1)",
        f"[regular] node 2: variable {big} is resolved again on the path below",
    ]


def test_root_clause_variable_pivot_fails_regular():
    # derivation of {2} that resolves on variable 2 along the way
    c_a = frozenset({1, 2})
    c_b = frozenset({-2, 3})
    c_c = frozenset({-3, 2})
    c_d = frozenset({-1})
    f = FormulaInstance(family="gt", n=3, clauses=(c_a, c_b, c_c, c_d))
    r1 = apply_rule(RESOLVE, c_a, c_b, 2)  # {1,3}
    r2 = apply_rule(RESOLVE, r1, c_c, 3)  # {1,2}
    nodes = (
        ProofNode(0, AXIOM, _ck(c_a)),
        ProofNode(1, AXIOM, _ck(c_b)),
        ProofNode(2, RESOLVE, _ck(r1), (0, 1), 2),
        ProofNode(3, AXIOM, _ck(c_c)),
        ProofNode(4, RESOLVE, _ck(r2), (2, 3), 3),
        ProofNode(5, AXIOM, _ck(c_d)),
        ProofNode(6, RESOLVE, (2,), (4, 5), 1),
    )
    d = Derivation(nodes, root=6, shape=TREE, family="gt", n=3)
    report = check_proof(d, f, (REGULAR,))
    assert any("root clause" in v.message for v in report.violations)


def test_forward_lemma_reference_fails_pool():
    d, f = tiny_refutation()
    nodes = [
        ProofNode(0, AXIOM, (1,)),
        ProofNode(1, LEMMA, (-1,), target=3),
        ProofNode(2, RESOLVE, (), (0, 1), 1),
        ProofNode(3, AXIOM, (-1,)),
    ]
    bad = Derivation(tuple(nodes), root=2, shape=TREE, family="gt", n=2)
    report = check_proof(bad, f, (POOL,))
    assert any("not earlier" in v.message for v in report.violations)


_CROSSING_FORMULA = FormulaInstance(family="gt", n=3, clauses=tuple(frozenset(c) for c in (
    {1, 2, 3}, {-2, 4}, {-2, -4}, {-3, 5}, {-3, -5}, {-1, 2, 3})))


def _crossing_lemma_tree():
    """A tree whose ids are not postorder places: its left subtree cites, by
    a smaller id, a clause derived later in the root's postorder."""
    nodes = (
        ProofNode(0, AXIOM, (-2, 4)),
        ProofNode(1, AXIOM, (-2, -4)),
        ProofNode(2, RESOLVE, (-2,), (0, 1), 4),
        ProofNode(3, AXIOM, (-3, 5)),
        ProofNode(4, AXIOM, (-3, -5)),
        ProofNode(5, RESOLVE, (-3,), (3, 4), 5),
        ProofNode(6, AXIOM, (1, 2, 3)),
        ProofNode(7, LEMMA, (-3,), target=5),  # right subtree, later in postorder
        ProofNode(8, RESOLVE, (1, 2), (6, 7), 3),
        ProofNode(9, RESOLVE, (1,), (8, 2), 2),
        ProofNode(10, AXIOM, (-1, 2, 3)),
        ProofNode(11, LEMMA, (-2,), target=2),  # left subtree, earlier in postorder
        ProofNode(12, RESOLVE, (-1, 3), (10, 11), 2),
        ProofNode(13, RESOLVE, (-1,), (12, 5), 3),
        ProofNode(14, RESOLVE, (), (9, 13), 1),
    )
    return Derivation(nodes, root=14, shape=TREE, family="gt", n=3), _CROSSING_FORMULA


def _crossing_lemma_tree_in_postorder():
    """The same tree numbered in postorder: the left subtree's lemma (node
    1) now cites a larger id, and the right subtree's (node 8) a smaller one."""
    nodes = (
        ProofNode(0, AXIOM, (1, 2, 3)),
        ProofNode(1, LEMMA, (-3,), target=12),
        ProofNode(2, RESOLVE, (1, 2), (0, 1), 3),
        ProofNode(3, AXIOM, (-2, 4)),
        ProofNode(4, AXIOM, (-2, -4)),
        ProofNode(5, RESOLVE, (-2,), (3, 4), 4),
        ProofNode(6, RESOLVE, (1,), (2, 5), 2),
        ProofNode(7, AXIOM, (-1, 2, 3)),
        ProofNode(8, LEMMA, (-2,), target=5),
        ProofNode(9, RESOLVE, (-1, 3), (7, 8), 2),
        ProofNode(10, AXIOM, (-3, 5)),
        ProofNode(11, AXIOM, (-3, -5)),
        ProofNode(12, RESOLVE, (-3,), (10, 11), 5),
        ProofNode(13, RESOLVE, (-1,), (9, 12), 3),
        ProofNode(14, RESOLVE, (), (6, 13), 1),
    )
    return Derivation(nodes, root=14, shape=TREE, family="gt", n=3), _CROSSING_FORMULA


def test_lemma_targets_compare_postorder_places_not_ids():
    # numbered otherwise, the tree is malformed for the checker as for the
    # parser, with the same message
    d, f = _crossing_lemma_tree()
    with pytest.raises(ProofStructureError) as checked:
        check_proof(d, f, (VALID, INPUT_LEMMA))
    assert str(checked.value) == "node 9: premises (8, 2) break postorder layout"
    with pytest.raises(ProofParseError) as parsed:
        parse_proof(serialize_proof(d))
    # node 9 is on line 11, after the header and nodes 0-8
    assert str(parsed.value) == f"line 11: {checked.value}"
    # numbered in postorder, ids are places
    d, f = _crossing_lemma_tree_in_postorder()
    report = check_proof(d, f, (VALID, INPUT_LEMMA))
    assert [(v.profile, v.node) for v in report.violations] == [(POOL, 1)]


def test_nonempty_root_clause_fails_pool():
    # a valid, regular tree deriving {2}: a derivation, not a refutation
    f = FormulaInstance(family="gt", n=3, clauses=(frozenset({1, 2}), frozenset({-1})))
    nodes = (ProofNode(0, AXIOM, (1, 2)), ProofNode(1, AXIOM, (-1,)),
             ProofNode(2, RESOLVE, (2,), (0, 1), 1))
    d = Derivation(nodes, root=2, shape=TREE, family="gt", n=3)
    assert check_proof(d, f, (VALID, POOL)).lines() == [
        "valid: PASS", "regular: PASS", "pool: FAIL (1)", "[pool] node 2: root clause is not empty",
    ]


def test_unused_node_fails_pool():
    # the GT2 refutation after an axiom that no inference uses
    _, f = tiny_refutation()
    nodes = (ProofNode(0, AXIOM, (1,)), ProofNode(1, AXIOM, (1,)), ProofNode(2, AXIOM, (-1,)),
             ProofNode(3, RESOLVE, (), (1, 2), 1))
    bad = Derivation(nodes, root=3, shape=TREE, family="gt", n=2)
    assert check_proof(bad, f, (VALID, REGULAR, GREEDY_UP)).ok
    for profile in (POOL, INPUT_LEMMA):
        report = check_proof(bad, f, (profile,))
        assert [(v.profile, v.node) for v in report.violations] == [(POOL, 0)]
    assert check_proof(bad, f, (POOL,)).lines() == [
        "regular: PASS", "pool: FAIL (1)", "[pool] node 0: no inference uses this node",
    ]
    assert check_proof(bad, f, (INPUT_LEMMA,)).lines() == [
        "regular: PASS", "pool: FAIL (1)", "input_lemma: PASS",
        "[pool] node 0: no inference uses this node",
    ]


def test_implied_profiles_are_reported():
    # a GT2 tree that w-resolves variable 1 twice on one path: valid, tree
    # shaped and fully used, but not regular
    f = gen_gt(2)
    nodes = (
        ProofNode(0, AXIOM, (1,)),
        ProofNode(1, AXIOM, (-1,)),
        ProofNode(2, W_RESOLVE, (), (0, 1), 1),
        ProofNode(3, AXIOM, (1,)),
        ProofNode(4, W_RESOLVE, (), (2, 3), 1),
    )
    d = Derivation(nodes, root=4, shape=TREE, family="gt", n=2)
    assert check_proof(d, f, (VALID,)).ok
    report = check_proof(d, f, (POOL,))
    assert report.profiles == (REGULAR, POOL)
    assert not report.ok
    assert report.lines()[:2] == ["regular: FAIL (1)", "pool: PASS"]
    report = check_proof(d, f, (INPUT_LEMMA, VALID))
    assert report.profiles == (VALID, REGULAR, POOL, INPUT_LEMMA)
    assert report.lines()[:4] == ["valid: PASS", "regular: FAIL (1)", "pool: PASS", "input_lemma: PASS"]
    full = check_proof(d, f, ALL_PROFILES)
    assert full.profiles == ALL_PROFILES


def test_input_chains_are_input_subtrees():
    nodes = (
        ProofNode(0, AXIOM, _ck({1, 2})),
        ProofNode(1, AXIOM, _ck({-1, 3})),
        ProofNode(2, RESOLVE, _ck({2, 3}), (0, 1), 1),
        ProofNode(3, AXIOM, _ck({-2, 4})),
        ProofNode(4, RESOLVE, _ck({3, 4}), (2, 3), 2),
    )
    d = Derivation(nodes, root=4, shape=TREE, family="gt", n=4)
    flags = input_subtrees(d)
    assert flags[2] and flags[4]


def test_non_input_lemma_fails_input_profile():
    # handcrafted: a lemma whose target has two derived premises
    clauses = tuple(
        frozenset(c)
        for c in ({1, 3}, {-3, 2}, {-1, 4}, {-4, 2}, {-2, 5}, {-5, -2})
    )
    f = FormulaInstance(family="gt", n=4, clauses=clauses)
    nodes = (
        ProofNode(0, AXIOM, _ck({1, 3})),
        ProofNode(1, AXIOM, _ck({-3, 2})),
        ProofNode(2, RESOLVE, _ck({1, 2}), (0, 1), 3),
        ProofNode(3, AXIOM, _ck({-1, 4})),
        ProofNode(4, AXIOM, _ck({-4, 2})),
        ProofNode(5, RESOLVE, _ck({-1, 2}), (3, 4), 4),
        ProofNode(6, RESOLVE, _ck({2}), (2, 5), 1),  # not input: both premises derived
        ProofNode(7, AXIOM, _ck({-2, 5})),
        ProofNode(8, RESOLVE, _ck({5}), (6, 7), 2),
        ProofNode(9, LEMMA, _ck({2}), target=6),
        ProofNode(10, AXIOM, _ck({-5, -2})),
        ProofNode(11, RESOLVE, _ck({-5}), (9, 10), 2),
        ProofNode(12, RESOLVE, (), (8, 11), 5),
    )
    d = Derivation(nodes, root=12, shape=TREE, family="gt", n=4)
    assert check_proof(d, f, (VALID, REGULAR, POOL)).ok
    report = check_proof(d, f, (INPUT_LEMMA,))
    assert any("not derived by an input" in v.message for v in report.violations)


def test_input_lemma_discrimination_on_pool_proof():
    # pool-mode proofs reuse shared interior clauses, which are not input
    from ggtkit.lr_engine import build_pool_with_stats

    d = build_pool_with_stats(6, 0)[0]
    f = gen_ggt(6, 0)
    assert check_proof(d, f, (VALID, REGULAR, POOL)).ok
    report = check_proof(d, f, (INPUT_LEMMA,))
    assert not report.ok  # at least one lemma is not input-derived


def input_derivable(gamma, cplus, nvars):
    """Independent oracle: is some subclause of the context derivable by an
    input derivation from gamma that never resolves on a context variable?"""
    gamma = [frozenset(c) for c in gamma]
    ctx_vars = {abs(l) for l in cplus}
    target = frozenset(cplus)
    seen = set()
    frontier = list(gamma)
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur <= target:
            return True
        for g in gamma:
            for lit in g:
                if abs(lit) in ctx_vars or -lit not in cur:
                    continue
                nxt = (g - {lit}) | (cur - {-lit})
                if any(-l in nxt for l in nxt):
                    continue
                if nxt not in seen:
                    frontier.append(nxt)
    return False


def test_greedy_condition_matches_input_derivability():
    # the unit-propagation criterion agrees with the derivability oracle
    rng = random.Random(42)
    for n in (3, 4):
        clauses = list(gen_ggt(n, 1).clauses)
        nv = n * (n - 1) // 2
        agree = 0
        for _ in range(120):
            gamma = rng.sample(clauses, rng.randrange(2, len(clauses)))
            ctx_vars = rng.sample(range(1, nv + 1), rng.randrange(0, nv))
            cplus = frozenset(v if rng.random() < 0.5 else -v for v in ctx_vars)
            result = unit_propagate(ClauseIndex(gamma), {-l for l in cplus})
            up_says = result.conflict is not None
            oracle_says = input_derivable(gamma, cplus, nv)
            assert up_says == oracle_says, (n, sorted(cplus), up_says, oracle_says)
            agree += 1
        assert agree == 120


def test_greedy_up_flags_or_rejects_non_input_closure():
    # a node refutable by unit propagation must be derived by an input proof
    n = 2
    f = gen_gt(2)
    # balanced tree: ((1),( -1)) -> empty, but root derived from two derived nodes
    c1, c2 = frozenset({1}), frozenset({-1})
    fi = FormulaInstance(family="gt", n=2, clauses=(frozenset({1, 2}), frozenset({1, -2}),
                                                    frozenset({-1, 2}), frozenset({-1, -2})))
    ck = lambda c: tuple(clause_key(c))
    nodes = (
        ProofNode(0, AXIOM, ck({1, 2})),
        ProofNode(1, AXIOM, ck({1, -2})),
        ProofNode(2, RESOLVE, ck({1}), (0, 1), 2),
        ProofNode(3, AXIOM, ck({-1, 2})),
        ProofNode(4, AXIOM, ck({-1, -2})),
        ProofNode(5, RESOLVE, ck({-1}), (3, 4), 2),
        ProofNode(6, RESOLVE, (), (2, 5), 1),
    )
    d = Derivation(nodes, root=6, shape=TREE, family="gt", n=2)
    assert check_proof(d, fi, (VALID, REGULAR)).ok  # var 2 pivots sit on different paths
    greedy = check_proof(d, fi, (GREEDY_UP,))
    # the root combines two input proofs: flagged as multi-clause learning, not failed
    assert greedy.ok and any("multi-clause" in flag for flag in greedy.flags)


def test_checker_is_deterministic():
    d, f = tiny_refutation()
    r1 = check_proof(d, f, (VALID, REGULAR, POOL))
    r2 = check_proof(d, f, (VALID, REGULAR, POOL))
    assert r1.lines() == r2.lines()


def _malformed(change, **fields):
    """The tiny refutation with node `change` replaced field by field, or
    with the derivation's own fields replaced when `change` is None."""
    d, f = tiny_refutation()
    nodes = list(d.nodes)
    if change is not None:
        nodes[change] = dataclasses.replace(nodes[change], **fields)
        fields = {}
    return dataclasses.replace(d, nodes=tuple(nodes), **fields), f


def _twice_used(extra_root_use):
    # nodes 0 and 1 each feed two inferences; with `extra_root_use` a node
    # after the root also uses the root
    nodes = [
        ProofNode(0, AXIOM, (1,)),
        ProofNode(1, AXIOM, (-1,)),
        ProofNode(2, RESOLVE, (), (0, 1), 1),
        ProofNode(3, RESOLVE, (), (0, 1), 1),
    ]
    if extra_root_use:
        nodes.append(ProofNode(4, RESOLVE, (), (2, 3), 1))
    return Derivation(tuple(nodes), root=2, shape=TREE, family="gt", n=2), gen_gt(2)


@pytest.mark.parametrize("malformed, message", [
    (_malformed(1, nid=2), "node 1 carries id 2"),
    (_malformed(0, premises=(1, 1)), "node 0: axiom with premises"),
    (_malformed(0, target=1), "node 0: axiom with premises"),
    (_malformed(1, rule=LEMMA), "node 1: lemma-ref needs a target"),
    (_malformed(1, rule=LEMMA, target=5), "node 1: lemma target 5 out of range"),
    (_malformed(1, rule=LEMMA, target=1), "node 1: lemma target 1 out of range"),
    (_malformed(2, premises=(0,)), "node 2: inference needs two premises and a pivot"),
    (_malformed(2, pivot=None), "node 2: inference needs two premises and a pivot"),
    (_malformed(2, premises=(0, 2)), "node 2: forward premise reference"),
    (_malformed(2, premises=(-1, 1)), "node 2: forward premise reference"),
    (_malformed(1, rule="X"), "node 1: unknown rule 'X'"),
    (_malformed(None, root=3), "root 3 out of range"),
    (_malformed(None, shape="forest"), "unknown shape 'forest'"),
    (_malformed(2, premises=(0, 0)), "node 2: premises (0, 0) break postorder layout"),
    (_twice_used(False), "node 3: premises (0, 1) break postorder layout"),
    (_twice_used(True), "node 3: premises (0, 1) break postorder layout"),
    (_malformed(None, root=1), "tree root used as a premise"),
])
def test_structure_error_messages(malformed, message):
    d, f = malformed
    with pytest.raises(ProofStructureError) as info:
        d.validate_structure()
    assert str(info.value) == message
    with pytest.raises(ProofStructureError) as info:
        check_proof(d, f, (VALID,))
    assert str(info.value) == message


def test_postorder_layout_uses_each_node_at_most_once():
    # every premise assignment of up to 7 nodes: each node a leaf or an
    # inference on two earlier ids.  validate_structure and the parser rely
    # on the layout check alone to rule out a node used twice in a tree.
    laid_out = []
    for k in range(1, 8):
        options = [[ProofNode(i, AXIOM, ())]
                   + [ProofNode(i, RESOLVE, (), (a, b), 1) for a in range(i) for b in range(i)]
                   for i in range(k)]
        count = 0
        for nodes in itertools.product(*options):
            try:
                check_postorder(nodes)
            except ProofStructureError:
                continue
            count += 1
            uses = [p for nd in nodes for p in nd.premises]
            assert len(set(uses)) == len(uses), nodes
        laid_out.append(count)
    # the sequences of binary trees, each in postorder, with k nodes in all
    assert laid_out == [1, 1, 2, 3, 6, 10, 20]


def test_input_subtrees_runs_once_per_check(monkeypatch):
    # input_lemma and greedy_up read the same flags
    f = gen_ggt(5, 0)
    d = build_regrti_with_stats(f)[0]
    expected = check_proof(d, f, ALL_PROFILES).lines()
    calls = []

    def counted(proof):
        calls.append(proof)
        return input_subtrees(proof)

    monkeypatch.setattr(ggtkit.checker, "input_subtrees", counted)
    assert check_proof(d, f, ALL_PROFILES).lines() == expected
    assert calls == [d]
