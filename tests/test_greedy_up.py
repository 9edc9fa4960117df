"""The greedy_up profile.

Hand-built trees pin each verdict of the profile; built refutations and
their mutants are checked against the quadratic reference implementation
in greedy_reference.
"""

import dataclasses
import itertools
import random
import tracemalloc
import zlib

import pytest

from tests.greedy_reference import reference_greedy_report
from ggtkit.checker import GREEDY_UP, VALID, check_proof
from ggtkit.formulas import FormulaInstance, gen_ggt
from ggtkit.literals import clause_key
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proofs import (
    AXIOM,
    LEMMA,
    RESOLVE,
    TREE,
    W_RESOLVE,
    Derivation,
    ProofNode,
    resolve_on_var,
)


class _Tree:
    """Builds a tree proof bottom-up; node ids come out in postorder."""

    def __init__(self):
        self.nodes: list[ProofNode] = []

    def axiom(self, clause) -> int:
        self.nodes.append(ProofNode(len(self.nodes), AXIOM, tuple(clause_key(clause))))
        return len(self.nodes) - 1

    def infer(self, rule, a: int, b: int, var: int) -> int:
        clause = resolve_on_var(
            rule, frozenset(self.nodes[a].clause), frozenset(self.nodes[b].clause), var
        )
        self.nodes.append(ProofNode(len(self.nodes), rule, tuple(clause_key(clause)), (a, b), var))
        return len(self.nodes) - 1

    def greedy_lines(self, clauses) -> list[str]:
        f = FormulaInstance(family="gt", n=4, clauses=tuple(frozenset(c) for c in clauses))
        d = Derivation(tuple(self.nodes), root=len(self.nodes) - 1, shape=TREE, family="gt", n=4)
        assert check_proof(d, f, (VALID,)).ok
        return check_proof(d, f, (GREEDY_UP,)).lines()


_PATH_VARS = (
    "[greedy_up] node {}: input refutation of the path context exists "
    "but the subderivation resolves on path variables [{}]"
)
_OPPOSITE = "flag: node {}: path context contains opposite literals; greedy test skipped"
_COMPOSITE = "flag: node {}: derived from a composition of input proofs (multi-clause learning pattern)"


def test_opposite_literals_in_path_context_are_flagged():
    # the leaf {1, 2} sits below the clause {-1, 2}
    t = _Tree()
    r = t.infer(RESOLVE, t.axiom({1, 2}), t.axiom({-1, 3}), 1)  # {2, 3}
    t.infer(RESOLVE, r, t.axiom({-3, -1}), 3)  # {-1, 2}
    assert t.greedy_lines([{1, 2}, {-1, 3}, {-3, -1}]) == [
        "greedy_up: FAIL (2)",
        _PATH_VARS.format(2, 1),
        _PATH_VARS.format(4, 1),
        _OPPOSITE.format(0),
    ]


def test_resolving_on_a_path_variable_is_a_violation():
    # variable 1 is resolved at node 2 and again at the root, whose
    # context propagates to a conflict without any context variable
    clauses = [{1, 2}, {-1, 3}, {-3, 1}, {-1}]
    t = _Tree()
    r = t.infer(RESOLVE, t.axiom({1, 2}), t.axiom({-1, 3}), 1)  # {2, 3}
    r = t.infer(RESOLVE, r, t.axiom({-3, 1}), 3)  # {1, 2}
    t.infer(RESOLVE, r, t.axiom({-1}), 1)  # {2}
    assert t.greedy_lines(clauses) == [
        "greedy_up: FAIL (2)",
        _PATH_VARS.format(2, 1),
        _PATH_VARS.format(4, 1),
        _OPPOSITE.format(1),
    ]


def test_refutable_node_without_input_derivation_is_a_violation():
    # {} from {1} and {-1}, each from two derived two-literal clauses: the
    # root has no input premise, while {1} and {-1} compose input proofs
    clauses = [{a, b, c} for a, b, c in itertools.product((1, -1), (2, -2), (3, -3))]
    t = _Tree()

    def two(a, b):
        return t.infer(RESOLVE, t.axiom({a, b, 3}), t.axiom({a, b, -3}), 3)

    y = t.infer(RESOLVE, two(1, 2), two(1, -2), 2)
    z = t.infer(RESOLVE, two(-1, 2), two(-1, -2), 2)
    t.infer(RESOLVE, y, z, 1)
    assert t.greedy_lines(clauses + [{1}, {-1}]) == [
        "greedy_up: FAIL (1)",
        "[greedy_up] node 14: unit propagation refutes the path context but the subderivation is not input",
        _COMPOSITE.format(6),
        _COMPOSITE.format(13),
    ]


# Each tree w-resolves {2} (node 2, derived from {1, 2} and {-1, 2}) with a
# second premise on variable 1.  Neither {2} nor the w-resolvent {2, 3}
# mentions variable 1, so only the phantom pivot literal puts it into the
# path context of node 2 and its subtree: node 2 then resolves on a path
# variable, and the leaf of the opposite polarity is flagged.
@pytest.mark.parametrize(
    "second, expected",
    [
        # -1 in the second premise: the phantom for premise 0 is +1
        ("neg", [_PATH_VARS.format(2, 1), _OPPOSITE.format(1)]),
        # +1 in the second premise: the phantom for premise 0 is -1
        ("pos", [_PATH_VARS.format(2, 1), _OPPOSITE.format(0)]),
        # both premises lack variable 1: +1 for premise 0, -1 for premise 1
        ("none", [_PATH_VARS.format(2, 1), _PATH_VARS.format(5, 1), _OPPOSITE.format(1),
                  _OPPOSITE.format(3), _COMPOSITE.format(6)]),
    ],
)
def test_w_resolution_phantom_enters_the_premise_context(second, expected):
    t = _Tree()
    a0 = t.infer(RESOLVE, t.axiom({1, 2}), t.axiom({-1, 2}), 1)
    if second == "neg":
        a1 = t.axiom({-1, 3})
    elif second == "pos":
        a1 = t.axiom({1, 3})
    else:
        a1 = t.infer(RESOLVE, t.axiom({1, 3}), t.axiom({-1, 3}), 1)
    t.infer(W_RESOLVE, a0, a1, 1)
    lines = t.greedy_lines([{1, 2}, {-1, 2}, {1, 3}, {-1, 3}])
    violations = sum(1 for line in expected if not line.startswith("flag"))
    assert lines == [f"greedy_up: FAIL ({violations})"] + expected


def _mutants(d: Derivation, nvars: int, rng: random.Random):
    """Corrupted-pivot and forward-lemma mutants, as the checker suite builds them."""
    def replaced(node):
        nodes = list(d.nodes)
        nodes[node.nid] = node
        return Derivation(tuple(nodes), root=d.root, shape=d.shape, family=d.family, n=d.n)

    resolvents = [nd for nd in d.nodes if nd.rule == RESOLVE]
    for nd in rng.sample(resolvents, min(2, len(resolvents))):
        used = {abs(l) for p in nd.premises for l in d.nodes[p].clause}
        free = [v for v in range(1, nvars + 1) if v not in used]
        yield replaced(ProofNode(nd.nid, RESOLVE, nd.clause, nd.premises, rng.choice(free)))
    lemmas = [nd for nd in d.nodes if nd.rule == LEMMA]
    for nd in rng.sample(lemmas, min(2, len(lemmas))):
        later = [m.nid for m in d.nodes[nd.nid + 1:] if m.clause == nd.clause]
        target = later[0] if later else rng.randrange(nd.nid + 1, len(d.nodes))
        yield replaced(ProofNode(nd.nid, LEMMA, nd.clause, target=target))


def test_greedy_up_matches_reference_on_built_proofs_and_mutants():
    rng = random.Random(7)
    checked = 0
    for n in (4, 5, 6, 7):
        for g in range(4):
            f = gen_ggt(n, g)
            for build in (build_pool_with_stats, build_regrti_with_stats):
                d = build(f)[0]
                for proof in (d, *_mutants(d, f.nvars, rng)):
                    got = check_proof(proof, f, (GREEDY_UP,)).lines()
                    assert got == reference_greedy_report(proof, f).lines(), (n, g, build.__name__)
                    checked += 1
    assert checked >= 150


def test_greedy_up_report_on_the_ggt10_regrti_proof():
    # counts and crc of the report lines as occurrence-list propagation
    # gave them; the quadratic reference takes seconds at this size
    f = gen_ggt(10, 0)
    d = build_regrti_with_stats(f)[0]
    report = check_proof(d, f, (GREEDY_UP,))
    assert (len(d.nodes), len(report.violations), len(report.flags)) == (5969, 33, 681)
    assert zlib.crc32("\n".join(report.lines()).encode()) == 1577008440


def test_a_node_is_checked_before_its_clause_becomes_available():
    # {4} (node 14) has no input derivation, and {5} (node 17) is derived
    # from a lemma on it by one input step on variable 4.  Its parent puts 4
    # back into the path context {4, 5, -9}, which no clause available
    # before node 17 refutes by propagation; only {5} itself would.  So
    # node 17 passes although it resolves on a path variable.  The root
    # w-resolves the two {4} on the unused variable 9.
    clauses = [{a, b, c, 4} for a, b, c in itertools.product((1, -1), (2, -2), (3, -3))]
    t = _Tree()

    def two(a, b):
        return t.infer(RESOLVE, t.axiom({a, b, 3, 4}), t.axiom({a, b, -3, 4}), 3)

    y = t.infer(RESOLVE, two(1, 2), two(1, -2), 2)
    z = t.infer(RESOLVE, two(-1, 2), two(-1, -2), 2)
    lemma_target = t.infer(RESOLVE, y, z, 1)
    t.nodes.append(ProofNode(len(t.nodes), LEMMA, (4,), target=lemma_target))
    x = t.infer(RESOLVE, len(t.nodes) - 1, t.axiom({-4, 5}), 4)
    p = t.infer(RESOLVE, x, t.axiom({-5, 4}), 5)
    t.infer(W_RESOLVE, lemma_target, p, 9)
    assert t.greedy_lines(clauses + [{-4, 5}, {-5, 4}]) == [
        "greedy_up: FAIL (2)",
        _PATH_VARS.format(19, 4),
        _PATH_VARS.format(20, 4),
        _COMPOSITE.format(6),
        _COMPOSITE.format(13),
        _OPPOSITE.format(16),
    ]


def test_mask_width_follows_the_count_of_variables_not_their_values():
    # one pivot of a GGT(5) seed-1 regRTI proof set to 10**7: the report is
    # the one before the edit (crc pinned), and the masks stay small
    f = gen_ggt(5, 1)
    d = build_regrti_with_stats(f)[0]
    nid = next(nd.nid for nd in d.nodes if nd.premises)
    nodes = list(d.nodes)
    nodes[nid] = dataclasses.replace(nodes[nid], pivot=10**7)
    tracemalloc.start()
    try:
        lines = check_proof(dataclasses.replace(d, nodes=tuple(nodes)), f, (GREEDY_UP,)).lines()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (nid, len(lines), lines[0]) == (2, 22, "greedy_up: PASS")
    assert zlib.crc32("\n".join(lines).encode()) == 1935280292
    assert lines == check_proof(d, f, (GREEDY_UP,)).lines()
    assert peak < 1 << 20
