"""Text interchange format for proof objects.

One node per line, ids 0-based and strictly increasing:

    p proof <family> n=<n> [seed=<s>] shape=<dag|tree>
    <id> A <lits> 0
    <id> L <target-id>
    <id> R|W|D <pivot-var> <p1> <p2> <lits> 0

For tree shape the ids are postorder positions and the parser re-verifies
the postorder discipline (each node directly follows its right subtree).
`c` comment lines and `d <lit>` decision markers (solver traces) are
ignored.  The root is the last node.
"""

from __future__ import annotations

from ggtkit.literals import clause_key
from ggtkit.proofs import (
    AXIOM,
    DAG,
    LEMMA,
    TREE,
    Derivation,
    ProofNode,
    ProofStructureError,
    collector_paused,
)

_RULES = {"A", "L", "R", "W", "D"}


class ProofParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def serialize_proof(d: Derivation, decisions: dict[int, list[int]] | None = None) -> str:
    """Render a derivation; optional decision markers keyed by node id.

    Each node's clause is written as stored.  Every producer stores it in
    `clause_key` order (the `ProofNode.clause` contract), so the text is
    canonical without a sort here.
    """
    header = f"p proof {d.family or 'cnf'} n={d.n}"
    if d.seed is not None:
        header += f" seed={d.seed}"
    header += f" shape={d.shape}"
    lines = [header]
    for nd in d.nodes:
        if decisions and nd.nid in decisions:
            lines.extend(f"d {lit}" for lit in decisions[nd.nid])
        lits = " ".join(map(str, nd.clause))
        body = f"{lits} 0" if nd.clause else "0"
        if nd.rule == AXIOM:
            lines.append(f"{nd.nid} A {body}")
        elif nd.rule == LEMMA:
            lines.append(f"{nd.nid} L {nd.target}")
        else:
            lines.append(f"{nd.nid} {nd.rule} {nd.pivot} {nd.premises[0]} {nd.premises[1]} {body}")
    return "\n".join(lines) + "\n"


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


def parse_proof(text: str) -> Derivation:
    """Parse a serialized proof, with the cyclic collector paused."""
    with collector_paused():
        return _parse(text)


def _parse(text: str) -> Derivation:
    family = ""
    n = 0
    seed = None
    shape = None
    header_line = 0
    nodes: list[ProofNode] = []
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
        try:  # inline, not through _int: this runs once per line
            nid = int(parts[0])
        except ValueError:
            raise ProofParseError(line_no, f"bad node id {parts[0]!r}") from None
        if nid != len(nodes):
            raise ProofParseError(line_no, f"node id {nid} out of order, expected {len(nodes)}")
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
            tclause = nodes[target].clause
            nodes.append(ProofNode(nid, LEMMA, tclause, target=target))
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
        d.validate_structure()
    except ProofStructureError as exc:
        raise ProofParseError(0, str(exc)) from None
    if shape == TREE:
        _verify_postorder(d)
    return d


def _verify_postorder(d: Derivation) -> None:
    """Each tree node must directly follow its right subtree."""
    size = [1] * len(d.nodes)
    for nd in d.nodes:
        if nd.premises:
            p1, p2 = nd.premises
            size[nd.nid] = 1 + size[p1] + size[p2]
            if p2 != nd.nid - 1 or p1 != nd.nid - 1 - size[p2]:
                raise ProofParseError(
                    0, f"node {nd.nid}: premises {nd.premises} break postorder layout"
                )
