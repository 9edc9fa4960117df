"""Brute-force oracles the tests compare the package against.

The truth-table oracles enumerate every total assignment over the
canonical variables, so they run only at desk scale (n <= 5, 2^10
assignments).  `allowed_pivot_vars` states which variables the pi
derivation of `ggtkit.gtproofs` may resolve on.  `triangle_of` names a
transitivity clause by decoding its three literals, the reference for the
package's table lookup.  `trans_postorder` lists a skeleton's transitivity
axioms by a two-visit depth-first search, the reference for the package's
one-pass `Skeleton.trans_postorder`.  `reference_associated_pairs` closes
a pair set by depth-first search and keeps the minimal sources, the
reference for the package's bitmask closure in `bpo.associated_bpo`.
`random_order` draws the random orders the tests share.
"""

from __future__ import annotations

from ggtkit.bpo import Bpo, CyclicOrderError, associated_bpo
from ggtkit.literals import Clause, bits, decode_lit, encode_lit, num_vars


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
    minimals = list(bits(pi.minimal))
    for a in range(len(minimals)):
        for b in range(a + 1, len(minimals)):
            allowed.add(abs(encode_lit(minimals[a], minimals[b], n)))
    for i in minimals:
        for k in range(n):
            if not (pi.minimal | pi.rows[i]) >> k & 1:
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
        i, j = decode_lit(-lit, n)
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


def transitive_closure(pairs: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The transitive closure of a pair set, by depth-first search from
    each source."""
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in succ:
        seen: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closure.update((start, w) for w in seen)
    return frozenset(closure)


def reference_associated_pairs(n: int, pairs) -> frozenset[tuple[int, int]]:
    """The pairs of the associated bipartite order of a partial
    specification: its closure restricted to minimal sources.  Raises
    CyclicOrderError when the closure has a cycle."""
    pairs = frozenset(pairs)
    closure = transitive_closure(pairs)
    if any(a == b for a, b in closure):
        raise CyclicOrderError("pair set has a cycle; not a partial specification")
    ranged = {b for _, b in pairs}
    return frozenset((a, b) for a, b in closure if a not in ranged)


def spec_rows(n: int, pairs) -> list[int]:
    """The bitmask rows of a partial specification given by its pairs."""
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    return rows


def random_order(n: int, rng, draws: int) -> Bpo:
    """The associated order of `draws` random pairs over n vertices, each
    drawn pair that would close a cycle dropped."""
    rows = [0] * n
    for _ in range(draws):
        a, b = rng.sample(range(n), 2)
        before = rows[a]
        rows[a] |= 1 << b
        try:
            associated_bpo(n, rows)
        except CyclicOrderError:
            rows[a] = before
    return associated_bpo(n, rows)
