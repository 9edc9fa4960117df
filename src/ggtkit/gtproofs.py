"""Constructive regular derivations for GT_pi (and GT as the empty case).

The derivation eliminates vertices downward.  First, for every minimal
vertex i, the minimality clause is chained against the mixed transitivity
axioms T[i, J_k, k] (pivot x[k,i]) for each non-minimal k not above i,
which trades the non-minimal literals for side literals that ride along
as clause-set members from then on.  The resulting clauses play the role
of minimality clauses over the minimal vertices alone, and the standard
elimination runs on those: to remove the top vertex b, its clause is
chain-resolved through the transitivity triangles into each remaining
vertex's clause.  The final clause is exactly the negation of pi, every
pivot is either a pair of minimal vertices or a pair (i, k) with i
minimal, k non-minimal and i not below k, and no variable repeats along
any path.

The derivation is kept as one Skeleton: premises, pivots and axiom kinds
in arrays, with clauses derived only on demand.  build_ppi_dag builds
the skeleton of an order; ppi_clauses derives its clauses and checks the
root against the order's clause.  The proof builders call both.  The
pool construction calls ppi_clauses only on a stage that expands: a
stage that branches reads the transitivity axioms' clauses from their
kinds, and its branching subproof checks its own closure.  The solver
walks skeletons built straight from its trail, without clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.formulas import GT, GT_PI, SizeError
from ggtkit.literals import (
    Clause,
    alpha_clause,
    bits,
    clause_key,
    encode_lit,
    min_first,
    trans_clause,
)
from ggtkit.proofs import (
    AXIOM,
    DAG,
    RESOLVE,
    Derivation,
    ProofNode,
    below_pivot_masks,
    resolve_on_var,
)


@dataclass
class Skeleton:
    """The derivation of one bipartite order, as arrays indexed by node id.

    Per node: its premises (empty for an axiom, otherwise two smaller ids),
    its pivot variable and the pivot literal as it occurs in the first
    premise (both 0 for an axiom), and the axiom kind, None for an
    inference.  Kinds are ("alpha", i), ("gamma", (i, j, k)) for the mixed
    axiom T[i, j, k], and ("beta", triple) with the triple rotated min-first.
    Every transitivity axiom is the premise of exactly one inference.
    Clauses are not stored; `clauses` derives them.
    """

    n: int
    premises: list[tuple[int, ...]]
    pivot: list[int]
    lit0: list[int]
    kind: list[tuple | None]
    root: int

    def clauses(self) -> list[Clause]:
        """Every node's clause: axioms from their kind, then each resolvent."""
        n = self.n
        out: list[Clause] = []
        for prem, piv, kind in zip(self.premises, self.pivot, self.kind):
            if prem:
                out.append(resolve_on_var(RESOLVE, out[prem[0]], out[prem[1]], piv))
            elif kind[0] == "alpha":
                out.append(alpha_clause(kind[1], n))
            else:
                out.append(trans_clause(*kind[1], n))
        return out

    def masks(self) -> list[int]:
        """Per node, the variables resolved on some path toward the root."""
        return below_pivot_masks(self.premises, self.pivot)

    def trans_postorder(self) -> list[int]:
        """Transitivity axiom node ids in depth-first postorder from the root."""
        order: list[int] = []
        seen: set[int] = set()
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                kind = self.kind[nid]
                if kind is not None and kind[0] != "alpha":
                    order.append(nid)
                continue
            if nid in seen:
                continue
            seen.add(nid)
            stack.append((nid, True))
            for p in reversed(self.premises[nid]):
                stack.append((p, False))
        return order


def build_skeleton(n: int, minimals: list[int], above: list[int]) -> Skeleton:
    """The derivation skeleton of a bipartite order.

    `minimals` lists the minimal vertices in increasing order, and
    `above[i]` is the bitmask of the vertices above minimal vertex i.
    """
    premises: list[tuple[int, ...]] = []
    pivot: list[int] = []
    lit0: list[int] = []
    kinds: list[tuple | None] = []

    def axiom(kind: tuple) -> int:
        premises.append(())
        pivot.append(0)
        lit0.append(0)
        kinds.append(kind)
        return len(kinds) - 1

    def resolve(a: int, b: int, lit: int) -> int:
        """Resolve premise a, which holds literal lit, against premise b."""
        premises.append((a, b))
        pivot.append(abs(lit))
        lit0.append(lit)
        kinds.append(None)
        return len(kinds) - 1

    minimal_mask = 0
    lowest: dict[int, int] = {}  # smallest minimal vertex below each other one
    for i in minimals:
        minimal_mask |= 1 << i
        for k in bits(above[i]):
            lowest.setdefault(k, i)

    # Minimality clauses, with non-minimal vertices resolved away.
    cur: list[int] = []
    for i in minimals:
        node = axiom(("alpha", i))
        for k in range(n):
            if (minimal_mask | above[i]) >> k & 1:
                continue  # x[k,i] stays as a side literal when i is below k
            gamma = axiom(("gamma", (i, lowest[k], k)))
            node = resolve(gamma, node, encode_lit(i, k, n))
        cur.append(node)

    # Downward elimination over the minimal vertices.
    m = len(minimals)
    for lvl in range(m - 1, 0, -1):
        top = minimals[lvl]
        diag = cur[lvl]
        for i in range(lvl):
            vi = minimals[i]
            node = diag
            for t in range(lvl):
                if t == i:
                    continue
                vt = minimals[t]
                beta = axiom(("beta", min_first(vt, top, vi)))
                node = resolve(beta, node, -encode_lit(vt, top, n))
            cur[i] = resolve(node, cur[i], encode_lit(vi, top, n))
    return Skeleton(n, premises, pivot, lit0, kinds, cur[0])


def build_ppi_dag(n: int, pi: Bpo) -> Skeleton:
    """The skeleton of the pi derivation; `ppi_clauses` derives its clauses."""
    if n < 2:
        raise SizeError(f"derivation needs n >= 2, got {n}")
    if pi.n != n:
        raise ValueError(f"pi is over {pi.n} vertices, wanted {n}")
    above = [0] * n
    for i, k in pi.pairs:
        above[i] |= 1 << k
    return build_skeleton(n, sorted(pi.minimals), above)


def ppi_clauses(skel: Skeleton, pi: Bpo) -> list[Clause]:
    """Every clause of the pi derivation `skel`, its root checked against pi."""
    clauses = skel.clauses()
    root_clause = clauses[skel.root]
    expected = bpo_clause(pi)
    if root_clause != expected:
        raise AssertionError(
            f"derivation root {sorted(root_clause)} differs from the pi clause {sorted(expected)}"
        )
    return clauses


def _derivation(n: int, pi: Bpo, family: str) -> Derivation:
    skel = build_ppi_dag(n, pi)
    clauses = ppi_clauses(skel, pi)
    nodes = tuple(
        ProofNode(nid, RESOLVE, clause_key(clause), prem, skel.pivot[nid])
        if prem
        else ProofNode(nid, AXIOM, clause_key(clause))
        for nid, (prem, clause) in enumerate(zip(skel.premises, clauses))
    )
    return Derivation(nodes, root=skel.root, shape=DAG, family=family, n=n)


def build_ppi(n: int, pi: Bpo) -> Derivation:
    """Regular derivation of the pi-negation clause from GT_pi(n)."""
    return _derivation(n, pi, GT_PI if pi.pairs else GT)


def build_pn(n: int) -> Derivation:
    """Regular refutation of GT(n) with O(n^3) nodes."""
    return _derivation(n, Bpo.empty(n), GT)

