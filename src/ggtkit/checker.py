"""Proof checking against the structural profiles.

Profiles:
  valid        every node follows from its premises by its rule; axioms
               occur in the formula; lemma refs repeat their target clause.
  regular      no variable is resolved twice along any root-to-leaf path,
               and no root-clause variable is ever a pivot.
  pool         tree shape, regular, empty root clause, every node but the
               root a premise of some inference, lemma targets strictly
               earlier in the root's left-to-right postorder (compared by
               id: a tree is numbered in postorder, so ids are places).
  input_lemma  pool, plus every lemma target is derived by an input
               subderivation (each inference has a leaf premise).
  greedy_up    whenever unit propagation refutes the falsified path
               context from the available learned clauses, the node must
               be derived by an input subderivation avoiding path variables.

valid is one pass over the node ids on literal bitmasks.  The literal v
of a formula variable (1..nvars) is bit 2v of a mask and -v is bit 2v+1,
looked up in a dict keyed by literal, so a literal that equals none of
+-1..+-nvars (0, or one past nvars) has no bit.  A clause's mask is the
sum of its literals' bits; it counts only if it has as many bits as the
clause has literals, which also rules out a repeated literal.  A plain
resolution step on a pivot v in 1..nvars is accepted on masks when one
premise holds v and not -v, the other holds -v and not v, the clause is
their union less the pivot pair, and no literal of the clause sits
beside its negation: exactly the steps `resolve_on_var` accepts.  The
pivot's bits come from the same dict, so no mask is shifted by a pivot.
Every other step goes through `resolve_on_var` over frozensets of the
premises' clauses, the one source of violation messages: w-resolution
steps, steps with a clause that has no mask, and steps the mask test
rejects.  Axioms are looked up as frozensets in the formula; a lemma
compares its clause tuple with its target's and builds sets only when
the tuples differ.  A node's mask is made only if the node is a plain
resolution step or some inference uses it, is kept until its last use as
a premise and dropped there, so the masks alive at once are those of
nodes still waiting for their last consumer (GT(40) masks have 1 560
bits).

regular numbers the proof's distinct pivots densely (`_dense`) and
tracks them as bits, so a mask is as wide as the count of distinct
pivots, whatever their values; a pivot that is not a positive variable
is reported.

Violations carry the offending node id.  Multi-input learning patterns
(compositions of input proofs) are reported as flags, not failures.

greedy_up is one pass over the node ids.  Path contexts, subtree pivot
variables and the composite-input predicate are bitmasks and flags
filled in beforehand, their bits numbering the proof's variables in
increasing order through regular's `_dense`; the available learned
clauses (the input-derived inference clauses with smaller ids) go into
one append-only ClauseIndex after each node is checked, whose watched
literals persist from node to node with no undo; `unit_propagate` runs
the watched-literal loop the solver runs (see `propagation`).
Only whether a conflict exists enters the verdict, so which falsified
clause a call reports does not matter.  Unit propagation runs only at
nodes whose context is consistent and which are not input-derived nodes
free of pivots on path variables.  At every other node the verdict does
not depend on the propagation: an inconsistent context is flagged
without it, and an input node resolving on no path variable passes
whether or not propagation refutes its context.  Every leaf is such a
node.  A pivot that is not a positive variable, which valid reports,
adds no pivot bit and no phantom literal, and the literal 0, which
valid reports too, adds no variable bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    last_uses,
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


def _literal_bits(nvars: int) -> dict[int, int]:
    """Bit 2v for the literal v and bit 2v+1 for -v, for v in 1..nvars.

    A dict, not a list indexed from its end: such a list would read the
    literal -(nvars + 1) as the bit of a positive literal.
    """
    bit = {}
    for v in range(1, nvars + 1):
        bit[v] = 1 << 2 * v
        bit[-v] = 1 << 2 * v + 1
    return bit


def _check_valid(d: Derivation, f: FormulaInstance, report: CheckReport) -> None:
    fset = f.clause_set()
    nodes = d.nodes
    # a node's mask is kept until its last use, and not at all if nothing uses it
    last = last_uses([nd.premises for nd in nodes])
    bit = _literal_bits(f.nvars)
    lit_bit = bit.__getitem__
    even = (4 ** (f.nvars + 1) - 1) // 3  # bits 0, 2, 4, ...: the positive literals
    masks: list[int | None] = [None] * len(nodes)
    for nd in nodes:
        nid = nd.nid
        rule = nd.rule
        clause = nd.clause
        m = None
        if rule == RESOLVE or last[nid] >= 0:
            # None for a clause with a literal that has no bit; a repeated
            # literal carries into another bit, so the count tells it too
            try:
                m = sum(map(lit_bit, clause))
            except KeyError:
                pass
            else:
                if m.bit_count() != len(clause):
                    m = None
            if last[nid] >= 0:
                masks[nid] = m
        if rule == AXIOM:
            if frozenset(clause) not in fset:
                report.violations.append(
                    Violation(VALID, nid, "axiom clause not in the formula")
                )
            continue
        if rule == LEMMA:
            target = nodes[nd.target].clause
            if clause != target and frozenset(clause) != frozenset(target):
                report.violations.append(
                    Violation(VALID, nid, f"lemma clause differs from target {nd.target}")
                )
            continue
        p0, p1 = nd.premises
        a, b = masks[p0], masks[p1]
        if last[p0] == nid:
            masks[p0] = None
        if last[p1] == nid:
            masks[p1] = None
        v = nd.pivot
        if rule == RESOLVE and m is not None and a is not None and b is not None and v > 0:
            pos = bit.get(v)
            if pos:
                # one premise holds v and the other -v, neither holds both,
                # the clause is their union less the pivot pair, and no
                # literal of it sits beside its negation
                pair = pos | pos << 1
                ha, hb = a & pair, b & pair
                if ha and hb and ha ^ hb == pair and m == (a | b) ^ pair and not m >> 1 & m & even:
                    continue
        # whatever the test above does not accept goes through the rule
        # itself, the one source of violation messages
        try:
            expected = resolve_on_var(
                rule, frozenset(nodes[p0].clause), frozenset(nodes[p1].clause), v
            )
        except RuleError as exc:
            report.violations.append(Violation(VALID, nid, str(exc)))
            continue
        if expected != frozenset(clause):
            report.violations.append(
                Violation(VALID, nid, "clause is not the resolvent of its premises")
            )


def _dense(values) -> tuple[list[int], dict[int, int]]:
    """The distinct values in increasing order, and each one's place: masks
    over the places are as wide as the count of values, whatever they are."""
    order = sorted(set(values))
    return order, {v: i for i, v in enumerate(order)}


def _check_regular(d: Derivation, report: CheckReport) -> None:
    nodes = d.nodes
    _, slot = _dense(nd.pivot for nd in nodes if nd.premises)
    slots = [slot[nd.pivot] if nd.premises else 0 for nd in nodes]
    masks = below_pivot_masks([nd.premises for nd in nodes], slots)
    for nd in nodes:
        if nd.rule not in INFERENCE_RULES:
            continue
        if nd.pivot <= 0:
            report.violations.append(
                Violation(REGULAR, nd.nid, f"pivot {nd.pivot} is not a variable")
            )
        elif masks[nd.nid] >> slots[nd.nid] & 1:
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
    # a tree is numbered in postorder, so ids are places, and the root's
    # tree is the run of ids from its leftmost leaf to the root
    nodes = d.nodes
    first = d.root
    while nodes[first].premises:
        first = nodes[first].premises[0]
    last = last_uses([nd.premises for nd in nodes])
    for nd in nodes:
        # a lemma off the root's tree gets no order check: the top of its
        # component is reported as unused
        if nd.rule == LEMMA and first <= nd.nid <= d.root and nd.target > nd.nid:
            report.violations.append(
                Violation(POOL, nd.nid, f"lemma target {nd.target} not earlier in postorder")
            )
        if last[nd.nid] < 0 and nd.nid != d.root:
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


def _check_input_lemma(d: Derivation, is_input: list[bool], report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(INPUT_LEMMA, d.root, "proof is not tree-shaped"))
        return
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


def _check_greedy_up(d: Derivation, f: FormulaInstance, is_input: list[bool], report: CheckReport):
    if d.shape != TREE:
        report.violations.append(Violation(GREEDY_UP, d.root, "profile needs a tree proof"))
        return
    nodes = d.nodes
    # variable var[i] is bit i; the literal 0 and a pivot that is not a
    # variable (valid reports both) get no bit and no phantom literal
    var, place = _dense([abs(lit) for nd in nodes for lit in nd.clause if lit]
                        + [nd.pivot for nd in nodes if nd.premises and nd.pivot > 0])
    bit = {v: 1 << i for v, i in place.items()}
    # bottom-up: the pivot variables of each subtree, and whether every
    # inference in it has an input-derived premise
    pivots = [0] * len(nodes)
    composite = [True] * len(nodes)
    for nd in nodes:
        if nd.rule in INFERENCE_RULES:
            p0, p1 = nd.premises
            pivots[nd.nid] = pivots[p0] | pivots[p1]
            if nd.pivot > 0:
                pivots[nd.nid] |= bit[nd.pivot]
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
                p |= bit[lit]
            elif lit:
                q |= bit[-lit]
        pos[nid], neg[nid] = p, q
        for slot, child in enumerate(nd.premises):
            pos[child], neg[child] = p, q
            if nd.rule == W_RESOLVE and nd.pivot > 0:
                lit = _phantom_lit(d, nd, slot)
                if lit > 0:
                    pos[child] |= bit[lit]
                else:
                    neg[child] |= bit[-lit]
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
            assignment = [-var[i] for i in bits(p)] + [var[i] for i in bits(q)]
            refuted = unit_propagate(gamma, assignment).conflict is not None
            if refuted and bad:
                report.violations.append(
                    Violation(
                        GREEDY_UP,
                        nid,
                        f"input refutation of the path context exists but the subderivation resolves on path variables {[var[i] for i in bits(bad)]}",
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
        # both profiles read the same input-derivation flags
        if INPUT_LEMMA in profiles or GREEDY_UP in profiles:
            is_input = input_subtrees(d)
        if INPUT_LEMMA in profiles:
            _check_input_lemma(d, is_input, report)
        if GREEDY_UP in profiles:
            _check_greedy_up(d, f, is_input, report)
    return report
