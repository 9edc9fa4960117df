"""Proof checking against the structural profiles.

Profiles:
  valid        every node follows from its premises by its rule; axioms
               occur in the formula; lemma refs repeat their target clause.
  regular      no variable is resolved twice along any root-to-leaf path,
               and no root-clause variable is ever a pivot.
  pool         tree shape, regular, empty root clause, every node but the
               root a premise of some inference, lemma targets strictly
               earlier in the root's left-to-right postorder (compared by
               place, which is the id only in a proof numbered in postorder).
  input_lemma  pool, plus every lemma target is derived by an input
               subderivation (each inference has a leaf premise).
  greedy_up    whenever unit propagation refutes the falsified path
               context from the available learned clauses, the node must
               be derived by an input subderivation avoiding path variables.

valid is one pass over the node ids.  Each node's clause set is built
once, kept until the last inference that uses the node as a premise and
dropped there, so the sets alive at once are those of nodes still
waiting for their last consumer; a node nothing uses keeps none.  A
plain resolution step is accepted by set algebra: one premise holds the
pivot and the other its negation, neither holds both, the clause is
their union less the pivot pair, and no literal clashes.  With both
premises clash-free a clash takes a literal of each, so only the shorter
premise is searched.  Every other step, and every step the test does not
accept, goes through `resolve_on_var`, the one source of violation
messages.  A lemma compares its clause tuple with its target's and
builds the target's set only when the tuples differ.

Violations carry the offending node id.  Multi-input learning patterns
(compositions of input proofs) are reported as flags, not failures.

greedy_up is one pass over the node ids.  Path contexts, subtree pivot
variables and the composite-input predicate are bitmasks and flags filled
in beforehand, and the available learned clauses (the input-derived
inference clauses with smaller ids) go into one append-only ClauseIndex
after each node is checked.  Unit propagation runs only at nodes whose
context is consistent and which are not input-derived nodes free of
pivots on path variables.  At every other node the verdict does not
depend on the propagation: an inconsistent context is flagged without
it, and an input node resolving on no path variable passes whether or
not propagation refutes its context.  Every leaf is such a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import neg

from ggtkit.formulas import FormulaInstance
from ggtkit.literals import bits
from ggtkit.proofs import (
    AXIOM,
    INFERENCE_RULES,
    LEAF_RULES,
    LEMMA,
    RESOLVE,
    TREE,
    W_RESOLVE,
    Derivation,
    RuleError,
    below_pivot_masks,
    collector_paused,
    input_step,
    resolve_on_var,
)
from ggtkit.propagation import ClauseIndex, unit_propagate

VALID = "valid"
REGULAR = "regular"
POOL = "pool"
INPUT_LEMMA = "input_lemma"
GREEDY_UP = "greedy_up"

ALL_PROFILES = (VALID, REGULAR, POOL, INPUT_LEMMA, GREEDY_UP)

# the profiles each artifact passes before it is written or counted; dpll is
# the solver's dag trace
SELF_CHECK = {
    "pn": (VALID, REGULAR),
    "pool": (VALID, REGULAR, POOL),
    "regrti": (VALID, REGULAR, POOL, INPUT_LEMMA),
    "dpll": (VALID,),
}


@dataclass
class Violation:
    profile: str
    node: int
    message: str

    def __str__(self) -> str:
        return f"[{self.profile}] node {self.node}: {self.message}"


@dataclass
class CheckReport:
    profiles: tuple[str, ...]
    violations: list[Violation] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = []
        for profile in self.profiles:
            bad = [v for v in self.violations if v.profile == profile]
            out.append(f"{profile}: {'PASS' if not bad else 'FAIL (%d)' % len(bad)}")
        out.extend(str(v) for v in self.violations)
        out.extend(f"flag: {f}" for f in self.flags)
        return out


def _check_valid(d: Derivation, f: FormulaInstance, report: CheckReport) -> None:
    fset = f.clause_set()
    nodes = d.nodes
    # the id of the last inference using each node as a premise: a node's
    # clause set is kept until then, and not at all if nothing uses it
    last = [-1] * len(nodes)
    for nd in nodes:
        if nd.premises:
            p0, p1 = nd.premises
            last[p0] = last[p1] = nd.nid
    sets: list[frozenset | None] = [None] * len(nodes)
    # whether each node's clause is free of a literal and its negation
    clean = [False] * len(nodes)
    for nd in nodes:
        nid = nd.nid
        rule = nd.rule
        clause = frozenset(nd.clause)
        if last[nid] >= 0:
            sets[nid] = clause
        if rule == AXIOM:
            clean[nid] = clause.isdisjoint(map(neg, clause))
            if clause not in fset:
                report.violations.append(
                    Violation(VALID, nid, "axiom clause not in the formula")
                )
            continue
        if rule == LEMMA:
            target = nodes[nd.target].clause
            if nd.clause == target:
                clean[nid] = clean[nd.target]
                continue
            clean[nid] = clause.isdisjoint(map(neg, clause))
            if clause != frozenset(target):
                report.violations.append(
                    Violation(VALID, nid, f"lemma clause differs from target {nd.target}")
                )
            continue
        p0, p1 = nd.premises
        a, b = sets[p0], sets[p1]
        if last[p0] == nid:
            sets[p0] = None
        if last[p1] == nid:
            sets[p1] = None
        v = nd.pivot
        if rule == RESOLVE and v > 0 and clean[p0] and clean[p1]:
            # one premise holds v and the other -v, neither holds both, and
            # the clause is their union less the pivot pair.  With both
            # premises clean, a clash in the clause takes a literal of each,
            # so the shorter premise is enough to look for one.
            va = v in a
            if (
                va != (v in b)
                and va != (-v in a)
                and va == (-v in b)
                and clause == (a | b) - {v, -v}
                and clause.isdisjoint(map(neg, a if len(a) <= len(b) else b))
            ):
                clean[nid] = True
                continue
        # whatever the test above does not accept goes through the rule
        # itself, the one source of violation messages
        clean[nid] = clause.isdisjoint(map(neg, clause))
        try:
            expected = resolve_on_var(rule, a, b, v)
        except RuleError as exc:
            report.violations.append(Violation(VALID, nid, str(exc)))
            continue
        if expected != clause:
            report.violations.append(
                Violation(VALID, nid, "clause is not the resolvent of its premises")
            )


def _check_regular(d: Derivation, report: CheckReport) -> None:
    masks = below_pivot_masks([nd.premises for nd in d.nodes], [nd.pivot for nd in d.nodes])
    for nd in d.nodes:
        if nd.rule in INFERENCE_RULES and masks[nd.nid] >> nd.pivot & 1:
            report.violations.append(
                Violation(
                    REGULAR,
                    nd.nid,
                    f"variable {nd.pivot} is resolved again on the path below",
                )
            )
    root_vars = {abs(l) for l in d.nodes[d.root].clause}
    if root_vars:
        for nd in d.nodes:
            if nd.rule in INFERENCE_RULES and nd.pivot in root_vars:
                report.violations.append(
                    Violation(REGULAR, nd.nid, f"pivot {nd.pivot} occurs in the root clause")
                )


def _check_pool(d: Derivation, report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(POOL, d.root, "proof is not tree-shaped"))
        return
    if d.nodes[d.root].clause:
        report.violations.append(Violation(POOL, d.root, "root clause is not empty"))
    # bottom-up subtree sizes, then top-down each subtree's last place in the
    # root's left-to-right postorder.  The root's place is its id and a node
    # off its tree keeps its id, so in a proof numbered in postorder every
    # place is the id.
    nodes = d.nodes
    used = [False] * len(nodes)
    size = [1] * len(nodes)
    for nd in nodes:
        if nd.premises:
            p0, p1 = nd.premises
            used[p0] = used[p1] = True
            size[nd.nid] += size[p0] + size[p1]
    place = list(range(len(nodes)))
    on_tree = [False] * len(nodes)
    on_tree[d.root] = True
    for nid in range(len(nodes) - 1, -1, -1):
        if on_tree[nid] and nodes[nid].premises:
            p0, p1 = nodes[nid].premises
            on_tree[p0] = on_tree[p1] = True
            place[p1] = place[nid] - 1
            place[p0] = place[p1] - size[p1]
    for nd in nodes:
        # a lemma off the root's tree gets no order check: the top of its
        # component is reported as unused
        if nd.rule == LEMMA and on_tree[nd.nid] and place[nd.target] > place[nd.nid]:
            report.violations.append(
                Violation(POOL, nd.nid, f"lemma target {nd.target} not earlier in postorder")
            )
        if not used[nd.nid] and nd.nid != d.root:
            report.violations.append(Violation(POOL, nd.nid, "no inference uses this node"))


def input_subtrees(d: Derivation) -> list[bool]:
    """Whether each node's subderivation is an input derivation."""
    is_input = [False] * len(d.nodes)
    for nd in d.nodes:
        if nd.rule in LEAF_RULES:
            is_input[nd.nid] = True
        else:
            p0, p1 = nd.premises
            is_input[nd.nid] = input_step(
                d.nodes[p0].rule, is_input[p0], d.nodes[p1].rule, is_input[p1]
            )
    return is_input


def _check_input_lemma(d: Derivation, report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(INPUT_LEMMA, d.root, "proof is not tree-shaped"))
        return
    is_input = input_subtrees(d)
    for nd in d.nodes:
        if nd.rule == LEMMA and not is_input[nd.target]:
            report.violations.append(
                Violation(
                    INPUT_LEMMA,
                    nd.nid,
                    f"lemma target {nd.target} is not derived by an input subderivation",
                )
            )


def _phantom_lit(d: Derivation, w_node, slot: int) -> int:
    """Pivot literal attributed to premise `slot` of a w-resolution."""
    v = w_node.pivot
    a0 = d.nodes[w_node.premises[0]].clause
    a1 = d.nodes[w_node.premises[1]].clause
    if v in a0 or -v in a1:
        return v if slot == 0 else -v
    if v in a1 or -v in a0:
        return -v if slot == 0 else v
    return v if slot == 0 else -v  # both phantom; premise order fixes polarity


def _check_greedy_up(d: Derivation, f: FormulaInstance, report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(GREEDY_UP, d.root, "profile needs a tree proof"))
        return
    nodes = d.nodes
    is_input = input_subtrees(d)
    # bottom-up: the pivot variables of each subtree, and whether every
    # inference in it has an input-derived premise
    pivots = [0] * len(nodes)
    composite = [True] * len(nodes)
    for nd in nodes:
        if nd.rule in INFERENCE_RULES:
            p0, p1 = nd.premises
            pivots[nd.nid] = 1 << nd.pivot | pivots[p0] | pivots[p1]
            composite[nd.nid] = (is_input[p0] or is_input[p1]) and composite[p0] and composite[p1]
    # top-down: the path context C+ as positive and negative variable masks;
    # premises come before their consumer, and each has at most one in a tree
    pos = [0] * len(nodes)
    neg = [0] * len(nodes)
    for nid in range(len(nodes) - 1, -1, -1):
        nd = nodes[nid]
        p, q = pos[nid], neg[nid]
        for lit in nd.clause:
            if lit > 0:
                p |= 1 << lit
            else:
                q |= 1 << -lit
        pos[nid], neg[nid] = p, q
        for slot, child in enumerate(nd.premises):
            pos[child], neg[child] = p, q
            if nd.rule == W_RESOLVE:
                lit = _phantom_lit(d, nd, slot)
                if lit > 0:
                    pos[child] |= 1 << lit
                else:
                    neg[child] |= 1 << -lit
    gamma = ClauseIndex(f.clauses)
    for nd in nodes:
        nid = nd.nid
        p, q = pos[nid], neg[nid]
        bad = pivots[nid] & (p | q)
        if p & q:
            report.flags.append(
                f"node {nid}: path context contains opposite literals; greedy test skipped"
            )
        # an input node resolving on no path variable passes either way
        elif bad or not is_input[nid]:
            assignment = [-v for v in bits(p)] + list(bits(q))
            refuted = unit_propagate(gamma, assignment).conflict is not None
            if refuted and bad:
                report.violations.append(
                    Violation(
                        GREEDY_UP,
                        nid,
                        f"input refutation of the path context exists but the subderivation resolves on path variables {list(bits(bad))}",
                    )
                )
            elif refuted and composite[nid]:
                report.flags.append(
                    f"node {nid}: derived from a composition of input proofs (multi-clause learning pattern)"
                )
            elif refuted:
                report.violations.append(
                    Violation(
                        GREEDY_UP,
                        nid,
                        "unit propagation refutes the path context but the subderivation is not input",
                    )
                )
        if is_input[nid] and nd.rule in INFERENCE_RULES:
            gamma.add(nd.clause)


def check_proof(d: Derivation, f: FormulaInstance, profiles) -> CheckReport:
    """Check a derivation against the requested profiles.

    A profile brings the ones it builds on: pool runs regular, and
    input_lemma runs regular and pool.  The report lists every profile
    that ran, in ALL_PROFILES order.  Structural malformation raises
    ProofStructureError before any profile runs; profile failures are
    collected in the report.
    """
    if isinstance(profiles, str):
        profiles = (profiles,)
    profiles = tuple(profiles)
    for p in profiles:
        if p not in ALL_PROFILES:
            raise ValueError(f"unknown profile {p!r}")
    wanted = set(profiles)
    if INPUT_LEMMA in wanted:
        wanted.add(POOL)
    if POOL in wanted:
        wanted.add(REGULAR)
    profiles = tuple(p for p in ALL_PROFILES if p in wanted)
    report = CheckReport(profiles=profiles)
    with collector_paused():
        d.validate_structure()
        if VALID in profiles:
            _check_valid(d, f, report)
        if REGULAR in profiles:
            _check_regular(d, report)
        if POOL in profiles:
            _check_pool(d, report)
        if INPUT_LEMMA in profiles:
            _check_input_lemma(d, report)
        if GREEDY_UP in profiles:
            _check_greedy_up(d, f, report)
    return report
