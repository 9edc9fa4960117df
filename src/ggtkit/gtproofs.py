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
in arrays, with clauses derived only on demand.  `Skeleton.clauses` is
the one derivation routine of build_pn and build_ppi: it yields each
node's clause in node order and holds a clause only until its last use
as a premise, the rule `checker._check_valid` applies to its masks.
build_ppi_dag(pi) is the one constructor of a skeleton: it reads the
order's size, minimal mask and bitmask rows (see `bpo.Bpo`) off pi.
build_pn and build_ppi make each proof line as its clause is yielded, so
no list of all the clauses is kept beside the proof, and check the root
against the order's clause.  The pool construction (`lr_engine`) reads
only the skeleton's structure: it derives each expanding stage's clauses
itself, once, with the stage's guard literals in place.  The solver
builds skeletons of its trail's orders, without clauses, to find the
blocked axioms of a guarded instance.  Both read what a transitivity
axiom is off the skeleton: its min-first triangle (`Skeleton.tri`,
derived on first use) and the case-(iv) test (`Skeleton.blocked`: is its
guard variable resolved below it?).

Facts that depend on n alone come from the per-n tables of `literals`:
build_ppi_dag reads each pivot literal from `lit_table`, and
`Skeleton.clauses` makes each transitivity axiom with `trans_clause`,
which reads three literals of it, so a GT derivation at n = 40 builds no
8 MB triangle table it would use once.  `trans_postorder` lists the
transitivity axioms in one pre-order pass.

build_pn and build_ppi build as the other producers do: under
`proofs.collector_paused`, since a derivation makes no reference cycles
and a collection during it would scan the growing proof and free
nothing, and with each line's clause sorted once by variable.  No line
holds a variable twice (`apply_rule` rejects a tautological resolvent,
and the axioms are the instance's clauses), so that sort is
`clause_key` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.formulas import GT, GT_PI, SizeError
from ggtkit.literals import (
    Clause,
    alpha_clause,
    bits,
    lit_table,
    min_first,
    trans_clause,
)
from ggtkit.proofs import (
    AXIOM,
    DAG,
    RESOLVE,
    ConstructionError,
    Derivation,
    ProofNode,
    below_pivot_masks,
    collector_paused,
    last_uses,
    resolve_on_var,
)


@dataclass
class Skeleton:
    """The derivation of one bipartite order, as arrays indexed by node id.

    Per node: its premises (empty for an axiom, otherwise two smaller ids),
    its pivot variable (0 for an axiom), and the axiom kind, None for an
    inference.  Kinds are ("alpha", i), ("gamma", (i, j, k)) for the mixed
    axiom T[i, j, k], and ("beta", triple) with the triple rotated min-first.
    Every transitivity axiom is the premise of exactly one inference.
    Clauses are not stored; `clauses` derives them, making each
    transitivity axiom with `literals.trans_clause`.
    """

    n: int
    premises: list[tuple[int, ...]]
    pivot: list[int]
    kind: list[tuple | None]
    root: int

    def clauses(self) -> Iterator[Clause]:
        """Each node's clause in node order: axioms from their kind, then
        each resolvent.  A clause is held only until its last use as a
        premise, so the clauses alive at once are those still waiting for
        their last consumer."""
        n = self.n
        premises = self.premises
        last = last_uses(premises)
        held: list[Clause | None] = [None] * len(premises)
        for nid, (prem, piv, kind) in enumerate(zip(premises, self.pivot, self.kind)):
            if prem:
                p0, p1 = prem
                clause = resolve_on_var(RESOLVE, held[p0], held[p1], piv)
                if last[p0] == nid:
                    held[p0] = None
                if last[p1] == nid:
                    held[p1] = None
            elif kind[0] == "alpha":
                clause = alpha_clause(kind[1], n)
            else:
                clause = trans_clause(*kind[1], n)
            if last[nid] >= 0:
                held[nid] = clause
            yield clause

    @cached_property
    def tri(self) -> list[tuple[int, int, int] | None]:
        """Per node, the min-first triangle of a transitivity axiom, else None
        (a beta triple is already min-first); `build_pn`/`build_ppi` never ask."""
        return [None if kind is None or kind[0] == "alpha"
                else kind[1] if kind[0] == "beta" else min_first(*kind[1]) for kind in self.kind]

    def blocked(self, guard_map) -> list[int]:
        """The transitivity axioms, in node-id order, whose guard variable
        (`guard_map[tri]`) is resolved on some path toward the root: the
        paper's case (iv), where splicing a guarded copy breaks regularity."""
        masks = below_pivot_masks(self.premises, self.pivot)
        return [nid for nid, tri in enumerate(self.tri)
                if tri is not None and masks[nid] >> abs(guard_map[tri]) & 1]

    def trans_postorder(self) -> list[int]:
        """Transitivity axiom node ids in depth-first postorder from the root.

        One pre-order pass, first premise first, each node visited once:
        axioms are leaves, so the order they are visited in is their
        postorder.
        """
        premises, kind = self.premises, self.kind
        order: list[int] = []
        seen = bytearray(len(premises))
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if seen[nid]:
                continue
            seen[nid] = 1
            prem = premises[nid]
            if prem:
                stack.append(prem[1])
                stack.append(prem[0])
            elif kind[nid][0] != "alpha":
                order.append(nid)
        return order


def build_ppi_dag(pi: Bpo) -> Skeleton:
    """The skeleton of the derivation of order pi, built from its minimal
    mask and bitmask rows; `Skeleton.clauses` derives its clauses."""
    n, minimal, above = pi.n, pi.minimal, pi.rows
    if n < 2:
        raise SizeError(f"derivation needs n >= 2, got {n}")
    lit = lit_table(n)
    premises: list[tuple[int, ...]] = []
    pivot: list[int] = []
    kinds: list[tuple | None] = []

    def resolve(a: int, b: int, lit: int) -> int:
        """Resolve premise a, which holds literal lit, against premise b."""
        premises.append((a, b))
        pivot.append(abs(lit))
        kinds.append(None)
        return len(kinds) - 1

    def against(kind: tuple, node: int, lit: int) -> int:
        """A new axiom of `kind`, which holds literal lit, resolved against node."""
        a = len(kinds)
        premises.extend(((), (a, node)))
        pivot.extend((0, abs(lit)))
        kinds.extend((kind, None))
        return a + 1

    minimals = list(bits(minimal))
    lowest: dict[int, int] = {}  # smallest minimal vertex below each other one
    for i in minimals:
        for k in bits(above[i]):
            lowest.setdefault(k, i)

    # Minimality clauses, with non-minimal vertices resolved away.
    cur: list[int] = []
    for i in minimals:
        node = len(kinds)
        premises.append(())
        pivot.append(0)
        kinds.append(("alpha", i))
        for k in range(n):
            if (minimal | above[i]) >> k & 1:
                continue  # x[k,i] stays as a side literal when i is below k
            node = against(("gamma", (i, lowest[k], k)), node, lit[i][k])
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
                # T[vt, top, vi] rotated min-first; top is the largest of the three
                beta = (vt, top, vi) if vt < vi else (vi, vt, top)
                node = against(("beta", beta), node, -lit[vt][top])
            cur[i] = resolve(node, cur[i], lit[vi][top])
    return Skeleton(n, premises, pivot, kinds, cur[0])


def _check_root(root_clause: Clause, pi: Bpo) -> None:
    expected = bpo_clause(pi)
    if root_clause != expected:
        raise ConstructionError(
            f"derivation root {sorted(root_clause)} differs from the pi clause {sorted(expected)}"
        )


def _derivation(pi: Bpo, family: str) -> Derivation:
    """The proof of `pi`'s derivation, each line made as its clause is
    derived; the root is checked against pi."""
    with collector_paused():
        skel = build_ppi_dag(pi)
        pivot, root = skel.pivot, skel.root
        nodes = []
        for nid, (prem, clause) in enumerate(zip(skel.premises, skel.clauses())):
            if nid == root:
                _check_root(clause, pi)
            # no clause repeats a variable, so sorting by variable is clause_key order
            line = tuple(sorted(clause, key=abs))
            if prem:
                nodes.append(ProofNode(nid, RESOLVE, line, prem, pivot[nid]))
            else:
                nodes.append(ProofNode(nid, AXIOM, line))
        return Derivation(tuple(nodes), root=root, shape=DAG, family=family, n=pi.n)


def build_ppi(n: int, pi: Bpo) -> Derivation:
    """Regular derivation of the pi-negation clause from GT_pi(n)."""
    if pi.n != n:
        raise ValueError(f"pi is over {pi.n} vertices, wanted {n}")
    return _derivation(pi, GT_PI if any(pi.rows) else GT)


def build_pn(n: int) -> Derivation:
    """Regular refutation of GT(n) with O(n^3) nodes."""
    return _derivation(Bpo.empty(n), GT)
