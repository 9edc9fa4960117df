"""Reference implementations the greedy_up tests compare against.

These are the straightforward versions of the `greedy_up` profile and of
unit propagation: Γ is rebuilt for every node and propagated by scanning
every clause until nothing changes, so the check is quadratic in the
proof size.  `ggtkit.checker` and `ggtkit.propagation` must agree with
them on every verdict.
"""

from __future__ import annotations

from ggtkit.checker import GREEDY_UP, CheckReport, Violation, _phantom_lit, input_subtrees
from ggtkit.formulas import FormulaInstance
from ggtkit.proofs import AXIOM, LEMMA, RESOLVE, TREE, W_RESOLVE, Derivation
from ggtkit.propagation import InconsistentAssignment, PropagationResult

_INFERENCES = (RESOLVE, W_RESOLVE)


def scan_unit_propagate(clauses, assignment) -> PropagationResult:
    """Propagate to fixpoint by rescanning; report the first falsified clause.

    A clause is its set of literals, so (3, 3, 4) under {-4} forces 3.
    """
    truth = set(assignment)
    for lit in truth:
        if -lit in truth:
            raise InconsistentAssignment(f"assignment has {lit} and {-lit}")
    implications: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for idx, clause in enumerate(clauses):
            unassigned = None
            satisfied = False
            count = 0
            for lit in clause:
                if lit in truth:
                    satisfied = True
                    break
                if -lit not in truth and lit != unassigned:  # a repeat counts once
                    unassigned = lit
                    count += 1
            if satisfied:
                continue
            if count == 0:
                return PropagationResult(truth, idx, implications)
            if count == 1:
                truth.add(unassigned)
                implications.append((unassigned, idx))
                changed = True
    return PropagationResult(truth, None, implications)


def _path_contexts(d: Derivation) -> list[frozenset[int]]:
    """C+ per node: literals (and w-resolution phantoms) from node to root."""
    parent: list[tuple[int, int] | None] = [None] * len(d.nodes)
    for nd in d.nodes:
        for slot, p in enumerate(nd.premises):
            parent[p] = (nd.nid, slot)
    order = sorted(range(len(d.nodes)), key=lambda i: -i)  # parents first in trees
    cplus: list[frozenset[int] | None] = [None] * len(d.nodes)
    for nid in order:
        nd = d.nodes[nid]
        if parent[nid] is None:
            ctx: frozenset[int] = frozenset()
        else:
            pid, slot = parent[nid]
            pnode = d.nodes[pid]
            ctx = cplus[pid]
            if pnode.rule == W_RESOLVE:
                ctx = ctx | {_phantom_lit(d, pnode, slot)}
        cplus[nid] = ctx | frozenset(nd.clause)
    return cplus


def _composite_input(d: Derivation, root: int, is_input: list[bool]) -> bool:
    """Every inference in the subtree has a leaf or input-derived premise."""
    stack = [root]
    while stack:
        nid = stack.pop()
        nd = d.nodes[nid]
        if nd.rule in (AXIOM, LEMMA):
            continue
        ok = False
        for p in nd.premises:
            pr = d.nodes[p].rule
            if pr in (AXIOM, LEMMA) or is_input[p]:
                ok = True
        if not ok:
            return False
        stack.extend(nd.premises)
    return True


def _subtree_pivot_vars(d: Derivation) -> list[set[int]]:
    vars_below: list[set[int]] = [set() for _ in d.nodes]
    for nd in d.nodes:
        if nd.rule in _INFERENCES:
            acc = {nd.pivot}
            for p in nd.premises:
                acc |= vars_below[p]
            vars_below[nd.nid] = acc
    return vars_below


def _check_greedy_up(d: Derivation, f: FormulaInstance, report: CheckReport) -> None:
    if d.shape != TREE:
        report.violations.append(Violation(GREEDY_UP, d.root, "profile needs a tree proof"))
        return
    is_input = input_subtrees(d)
    cplus = _path_contexts(d)
    pivots_in = _subtree_pivot_vars(d)
    base = [frozenset(nd.clause) for nd in d.nodes]
    formula_clauses = list(f.clauses)
    for nd in d.nodes:
        ctx = cplus[nd.nid]
        gamma = formula_clauses + [
            base[i] for i in range(nd.nid) if is_input[i] and d.nodes[i].rule in _INFERENCES
        ]
        try:
            result = scan_unit_propagate(gamma, {-l for l in ctx})
        except InconsistentAssignment:
            report.flags.append(
                f"node {nd.nid}: path context contains opposite literals; greedy test skipped"
            )
            continue
        if result.conflict is None:
            continue
        ctx_vars = {abs(l) for l in ctx}
        bad_pivots = sorted(v for v in pivots_in[nd.nid] if v in ctx_vars)
        if is_input[nd.nid] and not bad_pivots:
            continue
        if bad_pivots:
            report.violations.append(
                Violation(
                    GREEDY_UP,
                    nd.nid,
                    f"input refutation of the path context exists but the subderivation resolves on path variables {bad_pivots}",
                )
            )
        elif _composite_input(d, nd.nid, is_input):
            report.flags.append(
                f"node {nd.nid}: derived from a composition of input proofs (multi-clause learning pattern)"
            )
        else:
            report.violations.append(
                Violation(
                    GREEDY_UP,
                    nd.nid,
                    "unit propagation refutes the path context but the subderivation is not input",
                )
            )


def reference_greedy_report(d: Derivation, f: FormulaInstance) -> CheckReport:
    """The report check_proof(d, f, (GREEDY_UP,)) must produce."""
    d.validate_structure()
    report = CheckReport(profiles=(GREEDY_UP,))
    _check_greedy_up(d, f, report)
    return report
