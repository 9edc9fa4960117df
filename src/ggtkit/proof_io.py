"""Text interchange format for proof objects.

One node per line, ids 0-based and strictly increasing:

    p proof <family> n=<n> [seed=<s>] shape=<dag|tree>
    <id> A <lits> 0
    <id> L <target-id>
    <id> R|W <pivot-var> <p1> <p2> <lits> 0

For tree shape the ids are postorder positions; the parser checks that
layout with `proofs.check_postorder`, the routine `validate_structure`
runs on a tree.  `c` comment lines and `d <lit>` decision markers (solver
traces) are ignored.  The root is the last node.
"""

from __future__ import annotations

from ggtkit.literals import clause_key
from ggtkit.proofs import (
    AXIOM,
    DAG,
    INFERENCE_RULES,
    LEMMA,
    TREE,
    Derivation,
    ProofNode,
    ProofStructureError,
    check_postorder,
    collector_paused,
)


class ProofParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Tokens(dict):
    """A per-call table of each integer's text, each formatted once."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def serialize_proof(d: Derivation, decisions: dict[int, list[int]] | None = None) -> str:
    """Render a derivation; optional decision markers keyed by node id.

    Each node's clause is written as stored.  Every producer stores it in
    `clause_key` order (the `ProofNode.clause` contract), so the text is
    canonical without a sort here.  Literals and pivots repeat across
    lines, so each distinct one is formatted once per call.
    """
    header = f"p proof {d.family or 'cnf'} n={d.n}"
    if d.seed is not None:
        header += f" seed={d.seed}"
    header += f" shape={d.shape}"
    lines = [header]
    tok = _Tokens().__getitem__
    for nd in d.nodes:
        if decisions and nd.nid in decisions:
            lines.extend("d " + tok(lit) for lit in decisions[nd.nid])
        body = " ".join(map(tok, nd.clause)) + " 0" if nd.clause else "0"
        if nd.rule == AXIOM:
            lines.append(f"{nd.nid} A {body}")
        elif nd.rule == LEMMA:
            lines.append(f"{nd.nid} L {nd.target}")
        else:
            lines.append(f"{nd.nid} {nd.rule} {tok(nd.pivot)} {nd.premises[0]} {nd.premises[1]} {body}")
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


def _clause(parts: list[str], line_no: int, lit_of: dict[str, int]) -> tuple[int, ...]:
    """The clause of a line's literal tokens, in clause_key order.

    `lit_of` maps each literal token met so far in the proof to its value;
    a proof repeats few distinct tokens, so most are looked up, not
    converted.  With no variable repeated, one sort by variable is
    clause_key order.  Anything else (a repeat, a clash, a malformed token)
    takes `_parse_lits`, which raises the error, and then `clause_key`.
    """
    if parts and parts[-1] == "0":
        tokens = parts[:-1]
        try:
            lits = list(map(lit_of.__getitem__, tokens))
        except KeyError:
            lits = _new_literals(tokens, lit_of)
        if lits is not None and len(set(map(abs, lits))) == len(lits):
            lits.sort(key=abs)
            return tuple(lits)
    return clause_key(_parse_lits(parts, line_no))


def _new_literals(tokens: list[str], lit_of: dict[str, int]) -> list[int] | None:
    """Add the new tokens to `lit_of` and return the values of all of them;
    None, adding nothing more, at a token that is not a nonzero integer."""
    for tok in tokens:
        if tok not in lit_of:
            try:
                lit = int(tok)
            except ValueError:
                return None
            if not lit:
                return None
            lit_of[tok] = lit
    return list(map(lit_of.__getitem__, tokens))


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
    # per line without a node, the count of nodes before it, which gives each
    # node's line; a list of those would keep one int per node (1.5 MB at 42k)
    skipped: list[int] = []
    lit_of: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            skipped.append(len(nodes))
            continue
        try:  # inline, not through _int: this runs once per line
            nid = int(parts[0])
        except ValueError:
            skipped.append(len(nodes))
            # no node line: a comment, a decision marker, the header or an error
            line = raw.strip()
            if line[0] == "c" or line.startswith("d "):
                continue
            if line.startswith("p "):
                if header_line:
                    raise ProofParseError(
                        line_no, f"second proof header; the first is line {header_line}"
                    )
                family, n, seed, shape = _header(parts, line, line_no)
                header_line = line_no
                continue
            if shape is None:
                raise ProofParseError(line_no, "proof line before header")
            raise ProofParseError(line_no, f"bad node id {parts[0]!r}") from None
        if shape is None:
            raise ProofParseError(line_no, "proof line before header")
        if nid != len(nodes):
            raise ProofParseError(line_no, f"node id {nid} out of order, expected {len(nodes)}")
        rule = parts[1] if len(parts) > 1 else ""
        if rule == "A":
            nodes.append(ProofNode(nid, AXIOM, _clause(parts[2:], line_no, lit_of)))
        elif rule == "L":
            if len(parts) != 3:
                raise ProofParseError(line_no, "lemma line needs exactly a target id")
            target = _int(parts[2], line_no, "lemma target")
            if not (0 <= target < nid):
                raise ProofParseError(line_no, f"lemma target {target} not earlier")
            nodes.append(ProofNode(nid, LEMMA, nodes[target].clause, target=target))
        elif rule in INFERENCE_RULES:
            if len(parts) < 6:
                raise ProofParseError(line_no, "inference line too short")
            try:
                pivot, p1, p2 = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ProofParseError(line_no, "bad pivot or premise id") from None
            if pivot <= 0:
                raise ProofParseError(line_no, f"pivot must be a positive variable, got {pivot}")
            if not 0 <= p1 < nid:
                raise ProofParseError(line_no, f"dangling premise {p1}")
            if not 0 <= p2 < nid:
                raise ProofParseError(line_no, f"dangling premise {p2}")
            nodes.append(ProofNode(nid, rule, _clause(parts[5:], line_no, lit_of), (p1, p2), pivot))
        else:
            raise ProofParseError(line_no, f"unknown rule {rule!r}")
    if not nodes:
        raise ProofParseError(0, "empty proof")
    # the line checks give every structure condition but the tree's
    # postorder layout, and a tree's last node is its root, which no node uses
    if shape == TREE:
        try:
            check_postorder(nodes)
        except ProofStructureError as exc:
            line_no = exc.node + 1 + sum(k <= exc.node for k in skipped)
            raise ProofParseError(line_no, str(exc)) from None
    return Derivation(tuple(nodes), root=len(nodes) - 1, shape=shape, family=family, n=n, seed=seed)


def _header(parts: list[str], line: str, line_no: int) -> tuple[str, int, int | None, str]:
    """Family, n, seed and shape of a `p proof` line split into `parts`."""
    if len(parts) < 3 or parts[1] != "proof":
        raise ProofParseError(line_no, f"malformed proof header {line!r}")
    n, seed, shape = 0, None, None
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
    return parts[2], n, seed, shape
