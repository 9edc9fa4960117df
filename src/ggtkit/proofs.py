"""Proof objects and the two resolution rule variants.

A derivation is a list of nodes; premises always point at earlier ids.
Tree-shaped derivations carry lemma references (leaf nodes repeating a
clause derived earlier in postorder) and their ids are postorder
positions, which `validate_structure` requires.
Pivots are stored as positive variable ids; the checker works out which
premise holds which polarity.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from ggtkit.literals import Clause

AXIOM = "A"
LEMMA = "L"
RESOLVE = "R"
W_RESOLVE = "W"

LEAF_RULES = (AXIOM, LEMMA)
INFERENCE_RULES = (RESOLVE, W_RESOLVE)

DAG = "dag"
TREE = "tree"


class RuleError(ValueError):
    """A resolution step violating the side conditions of its rule."""


class ProofStructureError(ValueError):
    """A derivation object that is not structurally well-formed; `node` is
    the id of the node that breaks the postorder layout, else None."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class ConstructionError(RuntimeError):
    """An internal invariant of a proof builder (`gtproofs`, `lr_engine`) failed."""


class BudgetExceeded(RuntimeError):
    """A producer ran past a resource budget its caller set."""


class TimeBudgetExceeded(BudgetExceeded):
    """A producer passed its deadline at one of its checkpoints."""


class collector_paused:
    """Pause the cyclic garbage collector; restore the caller's setting on exit.

    Proof construction, parsing and checking allocate many container
    objects and leave no garbage cycles behind (`lr_engine`'s build tree
    has no back-pointers), so a collection during them scans a growing
    heap and frees nothing.  The objects they keep are scanned once, by
    the first collection after the pause.

    A class, not a generator: leaving a generator-based manager allocates
    a StopIteration, and that allocation would run the postponed
    collection at once, while the caller's working objects (say a
    `Solver` and its watch lists) are still alive to be scanned.  Here the
    collection waits for the next allocation after the `with` block.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb):
        if self.was_enabled:
            gc.enable()


def apply_rule(mode: str, a: Clause, b: Clause, x: int) -> Clause:
    """Resolvent of clauses a and b on pivot literal x.

    Both modes require -x not in a and x not in b.  Plain resolution also
    requires x in a and -x in b; w-resolution drops both membership
    requirements (phantom pivots).  A resolvent containing opposite
    literals is an error, never silently produced.
    """
    if -x in a:
        raise RuleError(f"premise A contains the negated pivot {-x}")
    if x in b:
        raise RuleError(f"premise B contains the pivot {x}")
    if mode == RESOLVE:
        if x not in a:
            raise RuleError(f"pivot {x} missing from premise A")
        if -x not in b:
            raise RuleError(f"pivot {-x} missing from premise B")
    elif mode != W_RESOLVE:
        raise RuleError(f"unknown rule mode {mode!r}")
    resolvent = (a - {x}) | (b - {-x})
    for lit in resolvent:
        if -lit in resolvent:
            raise RuleError(f"tautological resolvent: contains {lit} and {-lit}")
    return resolvent


def resolve_on_var(mode: str, a: Clause, b: Clause, var: int) -> Clause:
    """apply_rule with the pivot given as a variable; orientation inferred.

    The premise holding the positive occurrence plays the A role.  When
    neither premise mentions the variable the orientation is immaterial.
    """
    if var <= 0:
        raise RuleError(f"pivot variable must be positive, got {var}")
    if var in a or -var in b:
        return apply_rule(mode, a, b, var)
    if var in b or -var in a:
        return apply_rule(mode, b, a, var)
    if mode == RESOLVE:
        raise RuleError(f"pivot variable {var} missing from both premises")
    return apply_rule(mode, a, b, var)


@dataclass(slots=True)
class ProofNode:
    """One line of a derivation: its id, rule, clause and references.

    Slotted and not frozen: a node has no instance `__dict__`, and its
    constructor stores each field directly instead of through one
    `object.__setattr__` call per field, which a frozen dataclass makes.
    Parsing and every producer build one node per proof line, so that
    cost is paid per line.  Nodes are never mutated or hashed: builders
    make a new node (`dataclasses.replace`) instead, and `==` and the
    repr are the dataclass's, field by field.
    """

    nid: int
    rule: str
    clause: tuple[int, ...]  # in clause_key order; serialize_proof writes it as stored
    premises: tuple[int, ...] = ()
    pivot: int | None = None  # positive variable id
    target: int | None = None  # lemma reference


@dataclass(frozen=True)
class Derivation:
    nodes: tuple[ProofNode, ...]
    root: int
    shape: str  # DAG or TREE
    family: str = ""
    n: int = 0
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root_clause(self) -> Clause:
        return frozenset(self.nodes[self.root].clause)

    def max_width(self) -> int:
        return max((len(nd.clause) for nd in self.nodes), default=0)

    def validate_structure(self) -> None:
        """Ids contiguous, premises/targets earlier, rule arities right.

        A tree is also numbered in postorder (`check_postorder`), which
        uses each node at most once as a premise, and never uses its root.
        """
        nodes = self.nodes
        for idx, nd in enumerate(nodes):
            if nd.nid != idx:
                raise ProofStructureError(f"node {idx} carries id {nd.nid}")
            rule = nd.rule
            if rule in INFERENCE_RULES:
                if len(nd.premises) != 2 or nd.pivot is None:
                    raise ProofStructureError(
                        f"node {idx}: inference needs two premises and a pivot"
                    )
                p0, p1 = nd.premises
                if not (0 <= p0 < idx and 0 <= p1 < idx):
                    raise ProofStructureError(f"node {idx}: forward premise reference")
            elif rule == AXIOM:
                if nd.premises or nd.target is not None:
                    raise ProofStructureError(f"node {idx}: axiom with premises")
            elif rule == LEMMA:
                if nd.premises or nd.target is None:
                    raise ProofStructureError(f"node {idx}: lemma-ref needs a target")
                # a forward target is a pool violation, not a malformed object
                if not (0 <= nd.target < len(nodes)) or nd.target == idx:
                    raise ProofStructureError(
                        f"node {idx}: lemma target {nd.target} out of range"
                    )
            else:
                raise ProofStructureError(f"node {idx}: unknown rule {rule!r}")
        if not (0 <= self.root < len(nodes)):
            raise ProofStructureError(f"root {self.root} out of range")
        if self.shape == TREE:
            check_postorder(nodes)
            # only a later node can use the root
            if any(self.root in nd.premises for nd in nodes[self.root + 1:]):
                raise ProofStructureError("tree root used as a premise")
        elif self.shape != DAG:
            raise ProofStructureError(f"unknown shape {self.shape!r}")


def check_postorder(nodes) -> None:
    """Raise ProofStructureError unless the tree nodes (premises earlier) are
    numbered in postorder: every inference right after its right premise's
    subtree, and that right after its left premise's.  Each subtree is then
    a run of ids, so no node is used twice as a premise."""
    size = [1] * len(nodes)
    for nd in nodes:
        if nd.premises:
            nid = nd.nid
            p0, p1 = nd.premises
            if p1 != nid - 1 or p0 != nid - 1 - size[p1]:
                raise ProofStructureError(f"node {nid}: premises {nd.premises} break postorder layout", nid)
            size[nid] = 1 + size[p0] + size[p1]


def below_pivot_masks(premises, pivots) -> list[int]:
    """Per node, the bitmask of variables resolved strictly below it.

    "Below" means on some path from the node toward the root.  `premises`
    and `pivots` are indexed by node id, premises pointing at smaller ids;
    each node passes its own mask plus its pivot on to its premises, so the
    masks cover every root-to-leaf path in both shapes.
    """
    masks = [0] * len(premises)
    for nid in range(len(premises) - 1, -1, -1):
        if premises[nid]:
            down = masks[nid] | 1 << pivots[nid]
            for p in premises[nid]:
                masks[p] |= down
    return masks


def input_step(rule_a: str, input_a: bool, rule_b: str, input_b: bool) -> bool:
    """Whether an inference keeps its subderivation an input derivation.

    Both premises must be input-derived and one of them a leaf: an axiom
    or a lemma reference.  Leaves themselves are input-derived.
    """
    return input_a and input_b and (rule_a in LEAF_RULES or rule_b in LEAF_RULES)
