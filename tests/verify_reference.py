"""Reference implementations the verify-path tests compare against.

These are the straightforward versions of the three passes a proof check
runs per node: the `valid` profile builds each node's clause set anew at
every use and sends every step through `resolve_on_var`; the structure
check lays a tree out in postorder node by node and looks for its root
among all premises; the parser converts, checks and sorts every literal
of every line and then runs the structure check over the whole proof.  `ggtkit.checker`, `ggtkit.proofs` and `ggtkit.proof_io`
must agree with them on every verdict, message and line number.
"""

from __future__ import annotations

from ggtkit.checker import (
    GREEDY_UP,
    INPUT_LEMMA,
    POOL,
    REGULAR,
    VALID,
    CheckReport,
    Violation,
    _check_greedy_up,
    _check_input_lemma,
    _check_pool,
    _check_regular,
    input_subtrees,
)
from ggtkit.formulas import FormulaInstance
from ggtkit.literals import clause_key
from ggtkit.proof_io import ProofParseError
from ggtkit.proofs import (
    AXIOM,
    DAG,
    LEMMA,
    RESOLVE,
    TREE,
    W_RESOLVE,
    Derivation,
    ProofNode,
    ProofStructureError,
    RuleError,
    resolve_on_var,
)

_RULES = {"A", "L", "R", "W"}


def validate_structure(d: Derivation) -> None:
    """Ids contiguous, premises/targets earlier, rule arities right."""
    for idx, nd in enumerate(d.nodes):
        if nd.nid != idx:
            raise ProofStructureError(f"node {idx} carries id {nd.nid}")
        if nd.rule == AXIOM:
            if nd.premises or nd.target is not None:
                raise ProofStructureError(f"node {idx}: axiom with premises")
        elif nd.rule == LEMMA:
            if nd.premises or nd.target is None:
                raise ProofStructureError(f"node {idx}: lemma-ref needs a target")
            if not (0 <= nd.target < len(d.nodes)) or nd.target == idx:
                raise ProofStructureError(f"node {idx}: lemma target {nd.target} out of range")
        elif nd.rule in (RESOLVE, W_RESOLVE):
            if len(nd.premises) != 2 or nd.pivot is None:
                raise ProofStructureError(f"node {idx}: inference needs two premises and a pivot")
            if not all(0 <= p < idx for p in nd.premises):
                raise ProofStructureError(f"node {idx}: forward premise reference")
        else:
            raise ProofStructureError(f"node {idx}: unknown rule {nd.rule!r}")
    if not (0 <= d.root < len(d.nodes)):
        raise ProofStructureError(f"root {d.root} out of range")
    if d.shape == TREE:
        # each inference right after its right subtree, which comes right
        # after its left subtree
        size = [1] * len(d.nodes)
        for nd in d.nodes:
            if nd.premises:
                left, right = nd.premises
                size[nd.nid] = 1 + size[left] + size[right]
                if right != nd.nid - 1 or left != nd.nid - 1 - size[right]:
                    raise ProofStructureError(
                        f"node {nd.nid}: premises {nd.premises} break postorder layout", nd.nid
                    )
        if any(d.root in nd.premises for nd in d.nodes):
            raise ProofStructureError("tree root used as a premise")
    elif d.shape != DAG:
        raise ProofStructureError(f"unknown shape {d.shape!r}")


def _check_valid(d: Derivation, f: FormulaInstance, report: CheckReport) -> None:
    fset = f.clause_set()
    for nd in d.nodes:
        clause = frozenset(nd.clause)
        if nd.rule == AXIOM:
            if clause not in fset:
                report.violations.append(Violation(VALID, nd.nid, "axiom clause not in the formula"))
        elif nd.rule == LEMMA:
            if clause != frozenset(d.nodes[nd.target].clause):
                report.violations.append(
                    Violation(VALID, nd.nid, f"lemma clause differs from target {nd.target}")
                )
        else:
            a = frozenset(d.nodes[nd.premises[0]].clause)
            b = frozenset(d.nodes[nd.premises[1]].clause)
            try:
                expected = resolve_on_var(nd.rule, a, b, nd.pivot)
            except RuleError as exc:
                report.violations.append(Violation(VALID, nd.nid, str(exc)))
                continue
            if expected != clause:
                report.violations.append(
                    Violation(VALID, nd.nid, "clause is not the resolvent of its premises")
                )


def reference_report(d: Derivation, f: FormulaInstance, profiles) -> CheckReport:
    """The report check_proof(d, f, profiles) must produce.

    `profiles` is taken as given: the caller lists the implied ones too,
    in ALL_PROFILES order.  The profiles after `valid` are the package's.
    """
    validate_structure(d)
    report = CheckReport(profiles=tuple(profiles))
    if VALID in profiles:
        _check_valid(d, f, report)
    if REGULAR in profiles:
        _check_regular(d, report)
    if POOL in profiles:
        _check_pool(d, report)
    if INPUT_LEMMA in profiles:
        _check_input_lemma(d, input_subtrees(d), report)
    if GREEDY_UP in profiles:
        _check_greedy_up(d, f, input_subtrees(d), report)
    return report


def _parse_lits(parts: list[str], line_no: int) -> tuple[int, ...]:
    if not parts or parts[-1] != "0":
        raise ProofParseError(line_no, "literal list not terminated by 0")
    try:
        lits = tuple(map(int, parts[:-1]))
    except ValueError:
        raise ProofParseError(line_no, "bad literal") from None
    if 0 in lits:
        raise ProofParseError(line_no, "literal 0 inside clause")
    if len(set(lits)) != len(lits):
        raise ProofParseError(line_no, "duplicate literal in clause")
    return lits


def _int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProofParseError(line_no, f"bad {what} {text!r}") from None


def parse(text: str) -> Derivation:
    """What parse_proof(text) must return or raise."""
    family = ""
    n = 0
    seed = None
    shape = None
    header_line = 0
    nodes: list[ProofNode] = []
    node_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("d "):
            continue
        if line.startswith("p "):
            if header_line:
                raise ProofParseError(line_no, f"second proof header; the first is line {header_line}")
            parts = line.split()
            if len(parts) < 3 or parts[1] != "proof":
                raise ProofParseError(line_no, f"malformed proof header {line!r}")
            family = parts[2]
            for tok in parts[3:]:
                if "=" not in tok:
                    raise ProofParseError(line_no, f"malformed header token {tok!r}")
                key, val = tok.split("=", 1)
                if key == "n":
                    n = _int(val, line_no, "n in header")
                elif key == "seed":
                    seed = _int(val, line_no, "seed in header")
                elif key == "shape":
                    shape = val
            if shape not in (DAG, TREE):
                raise ProofParseError(line_no, f"missing or unknown shape {shape!r}")
            header_line = line_no
            continue
        if shape is None:
            raise ProofParseError(line_no, "proof line before header")
        parts = line.split()
        try:
            nid = int(parts[0])
        except ValueError:
            raise ProofParseError(line_no, f"bad node id {parts[0]!r}") from None
        if nid != len(nodes):
            raise ProofParseError(line_no, f"node id {nid} out of order, expected {len(nodes)}")
        node_lines.append(line_no)
        rule = parts[1] if len(parts) > 1 else ""
        if rule not in _RULES:
            raise ProofParseError(line_no, f"unknown rule {rule!r}")
        if rule == "A":
            lits = _parse_lits(parts[2:], line_no)
            nodes.append(ProofNode(nid, AXIOM, clause_key(lits)))
        elif rule == "L":
            if len(parts) != 3:
                raise ProofParseError(line_no, "lemma line needs exactly a target id")
            target = _int(parts[2], line_no, "lemma target")
            if not (0 <= target < nid):
                raise ProofParseError(line_no, f"lemma target {target} not earlier")
            nodes.append(ProofNode(nid, LEMMA, nodes[target].clause, target=target))
        else:
            if len(parts) < 6:
                raise ProofParseError(line_no, "inference line too short")
            try:
                pivot, p1, p2 = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ProofParseError(line_no, "bad pivot or premise id") from None
            if pivot <= 0:
                raise ProofParseError(line_no, f"pivot must be a positive variable, got {pivot}")
            for p in (p1, p2):
                if not (0 <= p < nid):
                    raise ProofParseError(line_no, f"dangling premise {p}")
            lits = _parse_lits(parts[5:], line_no)
            nodes.append(ProofNode(nid, rule, clause_key(lits), (p1, p2), pivot))
    if not nodes:
        raise ProofParseError(0, "empty proof")
    d = Derivation(tuple(nodes), root=len(nodes) - 1, shape=shape, family=family, n=n, seed=seed)
    try:
        validate_structure(d)
    except ProofStructureError as exc:
        # a layout error names its node's line; the line checks leave no other
        raise ProofParseError(0 if exc.node is None else node_lines[exc.node], str(exc)) from None
    return d
