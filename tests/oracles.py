"""Brute-force oracles the tests compare the package against.

The truth-table oracles enumerate every total assignment over the
canonical variables, so they run only at desk scale (n <= 5, 2^10
assignments).  `allowed_pivot_vars` states which variables the pi
derivation of `ggtkit.gtproofs` may resolve on.  `triangle_of` names a
transitivity clause by decoding its three literals, the reference for the
package's table lookup.  `trans_postorder` lists a skeleton's transitivity
axioms by a two-visit depth-first search, the reference for the package's
one-pass `Skeleton.trans_postorder`.
"""

from __future__ import annotations

from ggtkit.bpo import Bpo
from ggtkit.literals import Clause, encode_lit, num_vars, order_pair


class OracleScaleError(ValueError):
    """The truth-table oracle only runs at desk scale (n <= 5)."""


def all_assignments(n: int):
    """Every total assignment over the canonical variables, as literal sets."""
    nv = num_vars(n)
    for bits in range(1 << nv):
        yield frozenset(
            (v if bits >> (v - 1) & 1 else -v) for v in range(1, nv + 1)
        )


def satisfies(assignment: frozenset[int], clause: Clause) -> bool:
    return any(lit in assignment for lit in clause)


def semantic_entails(clauses, c: Clause, n: int) -> bool:
    """Truth-table entailment test; refuses beyond n = 5 (2^10 assignments)."""
    if n > 5:
        raise OracleScaleError(f"semantic oracle limited to n <= 5, got {n}")
    for sigma in all_assignments(n):
        if all(satisfies(sigma, cl) for cl in clauses) and not satisfies(sigma, c):
            return False
    return True


def is_satisfiable(clauses, n: int) -> bool:
    if n > 5:
        raise OracleScaleError(f"semantic oracle limited to n <= 5, got {n}")
    return any(
        all(satisfies(sigma, cl) for cl in clauses) for sigma in all_assignments(n)
    )


def allowed_pivot_vars(pi: Bpo, n: int) -> frozenset[int]:
    """Pivot variables the pi derivation may use: pairs of minimal
    vertices, plus (i, k) with i minimal, k non-minimal, i not below k."""
    allowed = set()
    minimals = sorted(pi.minimals)
    for a in range(len(minimals)):
        for b in range(a + 1, len(minimals)):
            allowed.add(abs(encode_lit(minimals[a], minimals[b], n)))
    for i in minimals:
        for k in range(n):
            if k not in pi.minimals and not pi.precedes(i, k):
                allowed.add(abs(encode_lit(i, k, n)))
    return frozenset(allowed)


def triangle_of(clause: Clause, n: int) -> tuple[int, int, int] | None:
    """If clause is a transitivity clause, its canonical (min-rotated) triple.

    Each literal, falsified, commits one ordered pair; the clause is a
    transitivity clause when the three pairs form a directed 3-cycle.
    """
    if len(clause) != 3:
        return None
    succ: dict[int, int] = {}
    for lit in clause:
        i, j = order_pair(lit, n)
        if i in succ:
            return None
        succ[i] = j
    a = min(succ)
    b = succ.get(a)
    if b is None or succ.get(b) is None:
        return None
    c = succ[b]
    if succ.get(c) != a or len({a, b, c}) != 3:
        return None
    return (a, b, c)


def trans_postorder(skel) -> list[int]:
    """Transitivity axiom node ids of a `gtproofs.Skeleton` in depth-first
    postorder from the root: each node is emitted on its second visit,
    after its premises, first premise first, and a shared node once."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(skel.root, False)]
    while stack:
        nid, expanded = stack.pop()
        if expanded:
            kind = skel.kind[nid]
            if kind is not None and kind[0] != "alpha":
                order.append(nid)
            continue
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((nid, True))
        for p in reversed(skel.premises[nid]):
            stack.append((p, False))
    return order
