"""Proof checking against the structural profiles.

Profiles:
  valid        every node follows from its premises by its rule; axioms
               occur in the formula; lemma refs repeat their target clause.
  regular      no variable is resolved twice along any root-to-leaf path,
               and no root-clause variable is ever a pivot.
  pool         tree shape, regular, empty root clause, lemma targets
               strictly earlier in postorder.
  input_lemma  pool, plus every lemma target is derived by an input
               subderivation (each inference has a leaf premise).
  greedy_up    whenever unit propagation refutes the falsified path
               context from the available learned clauses, the node must
               be derived by an input subderivation avoiding path variables.

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

from ggtkit.formulas import FormulaInstance
from ggtkit.proofs import (
    AXIOM,
    DEGEN_RESOLVE,
    LEMMA,
    RESOLVE,
    TREE,
    W_RESOLVE,
    Derivation,
    RuleError,
    node_consumers,
    resolve_on_var,
)
from ggtkit.propagation import ClauseIndex, unit_propagate

VALID = "valid"
REGULAR = "regular"
POOL = "pool"
INPUT_LEMMA = "input_lemma"
GREEDY_UP = "greedy_up"

ALL_PROFILES = (VALID, REGULAR, POOL, INPUT_LEMMA, GREEDY_UP)

_INFERENCES = (RESOLVE, W_RESOLVE, DEGEN_RESOLVE)


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
    for nd in d.nodes:
        clause = nd.clause_set()
        if nd.rule == AXIOM:
            if clause not in fset:
                report.violations.append(
                    Violation(VALID, nd.nid, "axiom clause not in the formula")
                )
        elif nd.rule == LEMMA:
            if clause != d.nodes[nd.target].clause_set():
                report.violations.append(
                    Violation(VALID, nd.nid, f"lemma clause differs from target {nd.target}")
                )
        else:
            a = d.nodes[nd.premises[0]].clause_set()
            b = d.nodes[nd.premises[1]].clause_set()
            try:
                expected = resolve_on_var(nd.rule, a, b, nd.pivot)
            except RuleError as exc:
                report.violations.append(Violation(VALID, nd.nid, str(exc)))
                continue
            if expected != clause:
                report.violations.append(
                    Violation(VALID, nd.nid, "clause is not the resolvent of its premises")
                )


def _below_pivot_masks(d: Derivation) -> list[int]:
    """For each node, the variables resolved on strictly below it.

    "Below" means on some path from the node toward the root; computed
    over consumer edges, so it covers every root-to-leaf path in both
    shapes.
    """
    consumers = node_consumers(d)
    masks = [0] * len(d.nodes)
    for nid in range(len(d.nodes) - 1, -1, -1):
        acc = 0
        for c in consumers[nid]:
            cmask = masks[c]
            piv = d.nodes[c].pivot
            if piv is not None:
                cmask |= 1 << piv
            acc |= cmask
        masks[nid] = acc
    return masks


def _check_regular(d: Derivation, report: CheckReport) -> None:
    masks = _below_pivot_masks(d)
    for nd in d.nodes:
        if nd.rule in _INFERENCES and masks[nd.nid] >> nd.pivot & 1:
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
            if nd.rule in _INFERENCES and nd.pivot in root_vars:
                report.violations.append(
                    Violation(REGULAR, nd.nid, f"pivot {nd.pivot} occurs in the root clause")
                )


def _check_pool(d: Derivation, report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(POOL, d.root, "proof is not tree-shaped"))
        return
    if d.nodes[d.root].clause:
        report.violations.append(Violation(POOL, d.root, "root clause is not empty"))
    for nd in d.nodes:
        if nd.rule == LEMMA and not (0 <= nd.target < nd.nid):
            report.violations.append(
                Violation(POOL, nd.nid, f"lemma target {nd.target} not earlier in postorder")
            )


def input_subtrees(d: Derivation) -> list[bool]:
    """Whether each node's subderivation is an input derivation."""
    is_input = [False] * len(d.nodes)
    for nd in d.nodes:
        if nd.rule in (AXIOM, LEMMA):
            is_input[nd.nid] = True
        else:
            p0, p1 = nd.premises
            leafish = d.nodes[p0].rule in (AXIOM, LEMMA) or d.nodes[p1].rule in (AXIOM, LEMMA)
            is_input[nd.nid] = leafish and is_input[p0] and is_input[p1]
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
    a0 = d.nodes[w_node.premises[0]].clause_set()
    a1 = d.nodes[w_node.premises[1]].clause_set()
    if v in a0 or -v in a1:
        return v if slot == 0 else -v
    if v in a1 or -v in a0:
        return -v if slot == 0 else v
    return v if slot == 0 else -v  # both phantom; premise order fixes polarity


def _mask_vars(mask: int) -> list[int]:
    """The variables whose bits are set in `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
        if nd.rule in _INFERENCES:
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
            assignment = [-v for v in _mask_vars(p)] + _mask_vars(q)
            refuted = unit_propagate(gamma, assignment).conflict is not None
            if refuted and bad:
                report.violations.append(
                    Violation(
                        GREEDY_UP,
                        nid,
                        f"input refutation of the path context exists but the subderivation resolves on path variables {_mask_vars(bad)}",
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
        if is_input[nid] and nd.rule in _INFERENCES:
            gamma.add(nd.clause)


def check_proof(d: Derivation, f: FormulaInstance, profiles) -> CheckReport:
    """Check a derivation against the requested profiles.

    Structural malformation raises ProofStructureError before any profile
    runs; profile failures are collected in the report.
    """
    if isinstance(profiles, str):
        profiles = (profiles,)
    profiles = tuple(profiles)
    for p in profiles:
        if p not in ALL_PROFILES:
            raise ValueError(f"unknown profile {p!r}")
    d.validate_structure()
    report = CheckReport(profiles=profiles)
    if VALID in profiles:
        _check_valid(d, f, report)
    if REGULAR in profiles or POOL in profiles or INPUT_LEMMA in profiles:
        _check_regular(d, report)
    if POOL in profiles or INPUT_LEMMA in profiles:
        _check_pool(d, report)
    if INPUT_LEMMA in profiles:
        _check_input_lemma(d, report)
    if GREEDY_UP in profiles:
        _check_greedy_up(d, f, report)
    return report
