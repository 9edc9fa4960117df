"""Left-to-right construction of pool refutations for the guarded family.

The refutation grows as a tree whose unfinished leaves are always labeled
by the negation clause of a bipartite partial order (recomputable from the
literals on their branch).  Each stage expands the leftmost unfinished
leaf through the order derivation for its branch.  Every transitivity
axiom that derivation needs is classified:

  lemma    the clause was already derived strictly to the left; reuse it.
  guard    one guard polarity already occurs on the branch below; use the
           guarded axiom and let the extra literal ride down until some
           clause on the branch absorbs it.
  derive   the guard variable is untouched below; resolve the two guarded
           axioms on it, learning the clause.
  branch   the guard variable is resolved below the axiom inside the order
           derivation itself, so splicing it would break regularity.  The
           expansion is abandoned for a short branching subproof that
           learns the axiom and leaves two or three new unfinished leaves,
           each adjusted back to a bipartite-order clause by a chain of
           literal replacements.

Classification reads each axiom's clause from its kind in the skeleton;
the derivation's other clauses are derived, and its root checked against
the leaf's order, only when no axiom branches and the stage expands.

In pool mode, shared interior clauses of a spliced derivation become
lemma references to their first occurrence.  In input-lemma mode they are
re-expanded instead, until an expansion happens to be an input derivation;
later occurrences may then reference it.  That keeps every lemma an input
lemma at a size cost bounded by the dag depth.

One postorder walk over the growing tree numbers the proof.  After each
splice it resumes, gives every node it finishes its final id, and stops
at the next unfinished leaf, which is the leaf the next stage expands.
So the numbered nodes are exactly those strictly left of that leaf, and
a learned node may be cited once the walk has given it its postorder id:
the pool condition itself.  The walk's open frames are the leaf's
ancestors, so a splice finds the parent and the path a literal
propagates down without any back-pointers, and the tree stays acyclic.
Since a splice adds literals only to those open frames, a numbered node's
clause is final: the walk turns it from a set into its `clause_key`
tuple, a lemma reference takes its target's tuple, and the proof lines
share those tuples.  So only unnumbered nodes hold sets.
Each leaf record carries the leaf's order, computed and checked against
the leaf clause once, when the leaf is made.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from ggtkit.bpo import CyclicOrderError, Bpo, PartialSpec, associated_bpo, bpo_clause, tau_of_literals
from ggtkit.formulas import FormulaInstance, SizeError, gen_ggt
from ggtkit.gtproofs import Skeleton, build_ppi_dag, ppi_clauses
from ggtkit.literals import Clause, clause_key, encode_lit, min_first, trans_clause
from ggtkit.proofs import (
    AXIOM,
    LEAF_RULES,
    LEMMA,
    RESOLVE,
    TREE,
    Derivation,
    ProofNode,
    collector_paused,
    input_step,
    resolve_on_var,
)

POOL_MODE = "pool"
INPUT_MODE = "input"


class ConstructionError(RuntimeError):
    """An internal invariant of the staged construction failed."""


class NodeBudgetExceeded(ConstructionError):
    """The proof grew past the configured node budget."""


class TNode:
    """Mutable tree node used while the refutation is under construction;
    its clause is a set until the walk numbers it, then a tuple."""

    __slots__ = ("clause", "rule", "kids", "pivot", "target", "lemma_target", "inp", "nid")

    def __init__(self, clause, rule, kids=(), pivot=None, target=None):
        self.clause = set(clause)
        self.rule = rule
        self.kids = list(kids)
        self.pivot = pivot
        self.target = target
        self.lemma_target = False
        self.inp = rule in LEAF_RULES
        self.nid = -1  # the postorder id, once the walk has passed the node


@dataclass
class LeafRec:
    node: TNode
    cplus: frozenset  # literals on the branch from the root, leaf included
    tau: frozenset  # the order pairs those literals commit to
    pi: Bpo  # the associated order of tau; the leaf is labeled by its clause


# One construction stage: its number, "expand" or "branch", the leaf clause's
# width, the size of the leaf's order, and the unfinished leaves, nodes and
# learned clauses after it.
StageRecord = namedtuple("StageRecord", "stage case width pi leaves nodes learned")


@dataclass
class LrStats:
    n: int
    seed: int | None
    mode: str
    stages: int = 0
    case_iv: int = 0
    case_iv_gamma: int = 0
    case_iv_beta: int = 0
    lines: int = 0
    max_width: int = 0
    segment_budget: int = 0  # sum over splices of dag size * (dag depth + 1)
    unfold_lines: int = 0  # lines those splices actually emitted
    stage_log: list[StageRecord] = field(default_factory=list)


class _Engine:
    def __init__(self, formula: FormulaInstance, mode: str, max_nodes: int | None):
        if formula.guard_map is None:
            raise SizeError("pool construction needs a guarded instance (ggt, n >= 4)")
        self.f = formula
        self.n = formula.n
        self.glits = formula.guard_map
        self.mode = mode
        self.max_nodes = max_nodes
        self.node_count = 0
        self.learned: dict[Clause, list[TNode]] = {}
        self.learned_count = 0
        self.stats = LrStats(n=self.n, seed=formula.seed, mode=mode)
        root = self._mk(set(), "U")
        self.leaves: dict[TNode, LeafRec] = {
            root: LeafRec(root, frozenset(), frozenset(), Bpo.empty(self.n))
        }
        # the postorder walk: one [node, kids entered] frame per open node,
        # from the root down to the next unfinished leaf
        self.walk: list[list] = [[root, 0]]
        self.order: list[TNode] = []  # the nodes the walk has numbered, in postorder
        self.stage_bound = 6 * math.comb(self.n, 3)
        self.iv_bound = 2 * math.comb(self.n, 3)

    # -- node plumbing ----------------------------------------------------

    def _mk(self, clause, rule, kids=(), pivot=None, target=None) -> TNode:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            raise NodeBudgetExceeded(f"proof exceeded {self.max_nodes} nodes")
        return TNode(clause, rule, kids, pivot, target)

    def _resolve(self, p0: TNode, p1: TNode, pivot_var: int) -> TNode:
        clause = resolve_on_var(RESOLVE, frozenset(p0.clause), frozenset(p1.clause), pivot_var)
        node = self._mk(clause, RESOLVE, (p0, p1), pivot_var)
        node.inp = input_step(p0.rule, p0.inp, p1.rule, p1.inp)
        return node

    def _lemma_ref(self, target: TNode) -> TNode:
        target.lemma_target = True
        return self._mk(target.clause, LEMMA, target=target)

    def _learn(self, clause, node: TNode) -> None:
        self.learned.setdefault(frozenset(clause), []).append(node)
        self.learned_count += 1

    def _derive(self, tclause, glit: int) -> TNode:
        """Resolve the two guarded copies of an axiom on its guard; learn it."""
        a1 = self._mk(tclause | {glit}, AXIOM)
        a2 = self._mk(tclause | {-glit}, AXIOM)
        node = self._resolve(a1, a2, abs(glit))
        self._learn(tclause, node)
        return node

    # -- availability and classification -----------------------------------

    def _available(self, clause) -> TNode | None:
        for node in self.learned.get(frozenset(clause), ()):
            if node.nid >= 0:
                return node
        return None

    def _classify(self, tclause, tri, ctx, below: int):
        """How the axiom T[tri] enters an expansion on a branch with literals `ctx`.

        `below` is the mask of variables resolved below the axiom.  Returns
        ("lem", node), ("guard", lit), ("derive", glit), or None when the
        guard variable is resolved below the axiom.
        """
        hit = self._available(tclause)
        if hit is not None:
            return ("lem", hit)
        glit = self.glits[min_first(*tri)]
        if glit in ctx and -glit in ctx:
            raise ConstructionError("branch context contains both guard polarities")
        for lit in (glit, -glit):
            if lit in ctx:
                return ("guard", lit)
        if below >> abs(glit) & 1:
            return None
        return ("derive", glit)

    def _axiom_tnode(self, clause, dec, stage_learned) -> TNode:
        """The node for an axiom classified `dec`; None is a minimality axiom.

        An axiom derived earlier in the stage is referenced through
        `stage_learned`.
        """
        if dec is None:
            return self._mk(clause, AXIOM)
        what, arg = dec
        if what == "guard":
            return self._mk(clause | {arg}, AXIOM)
        if what == "lem":
            return self._lemma_ref(arg)
        hit = stage_learned.get(clause)
        if hit is not None:
            return self._lemma_ref(hit)
        node = stage_learned[clause] = self._derive(clause, arg)
        return node

    # -- stage driver -------------------------------------------------------

    def run(self) -> tuple[Derivation, LrStats]:
        while self.leaves:
            self._stage()
            if self.stats.stages > self.stage_bound:
                raise ConstructionError(
                    f"stage count {self.stats.stages} exceeded 6*C(n,3)={self.stage_bound}"
                )
            if self.stats.case_iv > self.iv_bound:
                raise ConstructionError(
                    f"branching count {self.stats.case_iv} exceeded 2*C(n,3)={self.iv_bound}"
                )
        if self.walk:
            raise ConstructionError("unfinished leaf survived construction")
        # the proof lines are made only now: made as the walk numbers the
        # nodes, they would lie in memory among the build tree's nodes, and
        # every later pass over the proof would run slower.  Their clause
        # tuples are made by the walk; on `perfbench/run.py --workload
        # refute --seed 7 --trace 1` the checker and serialize spans did not
        # grow for it (self-check 0.77/0.67 s before, 0.65/0.65 s after)
        nodes = tuple(map(_proof_node, self.order))
        d = Derivation(nodes, root=len(nodes) - 1, shape=TREE,
                       family=self.f.family, n=self.n, seed=self.f.seed)
        self.stats.lines = len(d)
        self.stats.max_width = d.max_width()
        return d, self.stats

    def _stage(self) -> None:
        rec = self.leaves.pop(self.walk[-1][0])
        self.stats.stages += 1
        skel = build_ppi_dag(self.n, rec.pi)
        masks = skel.masks()
        decisions: dict[int, tuple] = {}
        trigger = None
        for nid in skel.trans_postorder():
            tri = skel.kind[nid][1]
            tclause = trans_clause(*tri, self.n)
            dec = self._classify(tclause, tri, rec.cplus, masks[nid])
            if dec is None:
                trigger = nid
                break
            decisions[nid] = dec
        if trigger is None:
            # derived here only: a branching stage needs none of them
            newroot = self._splice_expansion(skel, ppi_clauses(skel, rec.pi), decisions)
            leaf_paths: list[list[TNode]] = []
            case = "expand"
        else:
            newroot, leaf_paths = self._case_branch(rec, skel.kind[trigger], tclause)
            case = "branch"
        self._splice(rec, newroot)
        for path in leaf_paths:
            self.leaves[path[0]] = self._leaf_record(rec, path)
        self._advance()
        self.stats.stage_log.append(StageRecord(
            self.stats.stages, case, len(rec.node.clause), len(rec.pi.pairs), len(self.leaves),
            self.node_count, self.learned_count,
        ))

    def _leaf_record(self, rec, path) -> LeafRec:
        """The record of a new leaf, from its path up to the spliced root."""
        cplus = rec.cplus.union(*(w.clause for w in path))
        tau = tau_of_literals(cplus, self.n)
        try:
            sub_pi = associated_bpo(PartialSpec(self.n, tau))
        except CyclicOrderError as exc:
            raise ConstructionError(f"unfinished leaf branch is cyclic: {exc}") from exc
        if bpo_clause(sub_pi) != frozenset(path[0].clause):
            raise ConstructionError(
                "new unfinished leaf is not labeled by its branch's bipartite order"
            )
        return LeafRec(path[0], cplus, tau, sub_pi)

    # -- cases (i)-(iii): splice the adjusted order derivation ---------------

    def _splice_expansion(self, skel: Skeleton, clauses, decisions) -> TNode:
        """Expand the order derivation, guard literals riding down.

        `clauses` is this stage's own list and takes the added literals.  A
        guarded axiom's literal is carried down through every consumer
        and stops at a clause that already contains it.
        """
        carried = [frozenset()] * len(clauses)
        for nid, dec in decisions.items():
            if dec[0] == "guard":
                clauses[nid] = clauses[nid] | {dec[1]}
                carried[nid] = frozenset((dec[1],))
        if any(carried):
            for nid, prem in enumerate(skel.premises):
                if not prem:
                    continue
                new = (carried[prem[0]] | carried[prem[1]]) - clauses[nid]
                if new:
                    if any(-glit in clauses[nid] for glit in new):
                        raise ConstructionError("guard literal meets its negation on the way down")
                    clauses[nid] = clauses[nid] | new
                    carried[nid] = new
        if self.mode == POOL_MODE:
            return self._unfold_pool(skel, clauses, decisions)
        return self._unfold_input(skel, clauses, decisions)

    def _unfold_pool(self, skel: Skeleton, clauses, decisions) -> TNode:
        """Depth-first expansion; shared interior nodes become lemma refs."""
        first: dict[int, TNode] = {}
        stage_learned: dict = {}
        out: list[TNode] = []
        stack: list[tuple[int, bool]] = [(skel.root, False)]
        while stack:
            nid, expanded = stack.pop()
            prem = skel.premises[nid]
            if expanded:
                p1 = out.pop()
                p0 = out.pop()
                node = self._resolve(p0, p1, skel.pivot[nid])
                first[nid] = node
                out.append(node)
                continue
            if not prem:
                out.append(self._axiom_tnode(clauses[nid], decisions.get(nid), stage_learned))
                continue
            hit = first.get(nid)
            if hit is not None:
                out.append(self._lemma_ref(hit))
                continue
            stack.append((nid, True))
            stack.append((prem[1], False))
            stack.append((prem[0], False))
        (root,) = out
        return root

    def _unfold_input(self, skel: Skeleton, clauses, decisions) -> TNode:
        """Expansion that only ever references input-derived clauses.

        Interior clauses are re-expanded until one expansion happens to be
        an input derivation; from then on they are referenced.  Any clause
        occurs at most depth-many times, so a splice emits at most
        size*depth lines.
        """
        depth = [0] * len(clauses)
        for nid, prem in enumerate(skel.premises):
            if prem:
                depth[nid] = 1 + max(depth[prem[0]], depth[prem[1]])
        self.stats.segment_budget += len(clauses) * (depth[skel.root] + 1)
        before = self.node_count
        stage_learned: dict = {}
        out: list[TNode] = []
        stack: list[tuple[int, bool]] = [(skel.root, False)]
        while stack:
            nid, expanded = stack.pop()
            prem = skel.premises[nid]
            clause = clauses[nid]
            if expanded:
                p1 = out.pop()
                p0 = out.pop()
                node = self._resolve(p0, p1, skel.pivot[nid])
                if node.inp and clause not in stage_learned:
                    stage_learned[clause] = node
                    self._learn(clause, node)
                out.append(node)
                continue
            if not prem:
                out.append(self._axiom_tnode(clause, decisions.get(nid), stage_learned))
                continue
            hit = stage_learned.get(clause)
            if hit is None:
                attached = self._available(clause)
                if attached is not None and attached.inp:
                    hit = attached
            if hit is not None:
                out.append(self._lemma_ref(hit))
                continue
            stack.append((nid, True))
            stack.append((prem[1], False))
            stack.append((prem[0], False))
        (root,) = out
        self.stats.unfold_lines += self.node_count - before
        return root

    # -- case (iv): branch and learn -----------------------------------------

    def _case_branch(self, rec, trig_kind, tclause):
        """Learn the trigger axiom T and resolve it with two (gamma) or three
        (beta) replacement chains back to the leaf clause.

        Returns the subproof root and, per chain, the path from its new
        unfinished leaf up to that root: the chain, leaf first, and then
        the joins from that chain on.
        """
        self.stats.case_iv += 1
        n = self.n
        pi = rec.pi
        kind, (i, j, k) = trig_kind
        var = lambda a, b: abs(encode_lit(a, b, n))
        # per chain: the pairs its leaf adds, its steps, and the pivot joining
        # it; both kinds close with the chain that puts j below i
        swap = ([(j, i)], [((j, i, l), var(j, l)) for l in sorted(pi.above(i))
                           if not pi.precedes(j, l)], var(i, j))
        if kind == "gamma":
            self.stats.case_iv_gamma += 1
            steps = [((i, j, l), var(i, l)) for l in sorted(pi.above(j))
                     if l != k and not pi.precedes(i, l)]
            plans = [([(i, j)], steps, var(i, k)), swap]
        else:
            self.stats.case_iv_beta += 1
            steps_a = []
            for l in sorted(pi.above(j) | pi.above(k)):
                if pi.precedes(i, l):
                    continue
                partner = j if pi.precedes(j, l) else k
                steps_a.append(((i, partner, l), var(i, l)))
            steps_b = []
            for l in sorted(pi.above(j)):
                if not pi.precedes(k, l):
                    steps_b.append(((k, j, l), var(k, l)))
                if not pi.precedes(i, l):
                    steps_b.append(((i, j, l), var(i, l)))
            plans = [([(i, j), (j, k), (i, k)], steps_a, var(i, k)),
                     ([(i, j), (k, j)], steps_b, var(j, k)), swap]
        node = self._derive(tclause, self.glits[min_first(i, j, k)])

        bases = [self._plan_chain(rec.tau, pairs, steps) for pairs, steps, _ in plans]
        joined = []  # the clause after each chain is resolved in, guards ignored
        cur = tclause
        for base, (_, _, piv) in zip(bases, plans):
            cur = resolve_on_var(RESOLVE, cur, base[-1], piv)
            joined.append(cur)
        if cur != bpo_clause(pi):
            raise ConstructionError("branching subproof does not close back to the leaf clause")

        chains, joins = [], []
        for c, (base, (_, steps, piv)) in enumerate(zip(bases, plans)):
            chains.append(self._build_chain(rec, base, steps, frozenset().union(*joined[c:])))
            node = self._resolve(node, chains[-1][-1], piv)
            joins.append(node)
        return node, [chain + joins[c:] for c, chain in enumerate(chains)]

    def _plan_chain(self, tau, new_pairs, steps) -> list[Clause]:
        """Clause sequence of a replacement chain, leaf first, guards ignored.

        Guard literals added later only ever duplicate branch literals, so
        classification contexts computed from these base clauses are exact.
        """
        sub_tau = frozenset(tau) | frozenset(new_pairs)
        leaf = bpo_clause(associated_bpo(PartialSpec(self.n, sub_tau)))
        seq = [leaf]
        for tri, piv in steps:
            seq.append(resolve_on_var(RESOLVE, trans_clause(*tri, self.n), seq[-1], piv))
        return seq

    def _build_chain(self, rec, base_seq, steps, below_lits) -> list[TNode]:
        """Materialize one replacement chain; returns its nodes, leaf first.

        Nothing is resolved below a chain's axioms inside a derivation, and
        no chain axiom references another derived in the same stage.
        """
        chain = [self._mk(base_seq[0], "U")]
        for t, (tri, piv) in enumerate(steps, start=1):
            ctx = set(rec.cplus) | below_lits
            for clause in base_seq[t:]:
                ctx |= clause
            tclause = trans_clause(*tri, self.n)
            tsub = self._axiom_tnode(tclause, self._classify(tclause, tri, ctx, 0), {})
            chain.append(self._resolve(tsub, chain[-1], piv))
        return chain

    # -- splicing and the postorder walk ------------------------------------

    def _splice(self, rec, newroot: TNode) -> None:
        """Put `newroot` in place of the leaf the walk stopped at.

        Literals the expansion adds propagate down the walk's open frames,
        the leaf's ancestors, until a clause absorbs them.
        """
        u = rec.node
        extras = set(newroot.clause) - u.clause
        if not extras <= set(rec.cplus):
            raise ConstructionError("expansion introduced literals outside the branch context")
        walk = self.walk
        walk[-1] = [newroot, 0]
        if len(walk) > 1:
            parent, entered = walk[-2]
            parent.kids[entered - 1] = newroot
        for lit in extras:
            for frame in reversed(walk[:-1]):
                w = frame[0]
                if lit in w.clause:
                    break
                if -lit in w.clause:
                    raise ConstructionError("propagated literal meets its negation")
                if w.lemma_target:
                    raise ConstructionError("propagation would modify a lemma target")
                w.clause.add(lit)
            else:
                raise ConstructionError(f"literal {lit} was never absorbed below the splice")

    def _advance(self) -> None:
        """Resume the postorder walk until the next unfinished leaf.

        Each node the walk finishes gets its final id, its final clause
        as a tuple, and joins `self.order`; the walk is empty once the
        root is finished.
        """
        walk, order = self.walk, self.order
        while walk:
            frame = walk[-1]
            tn, entered = frame
            if entered < len(tn.kids):
                frame[1] = entered + 1
                walk.append([tn.kids[entered], 0])
                continue
            if tn.rule == "U":
                return
            walk.pop()
            if tn.rule == LEMMA:
                if tn.target.nid < 0:
                    raise ConstructionError("lemma reference precedes its target")
                tn.clause = tn.target.clause
            else:
                tn.clause = clause_key(tn.clause)
            tn.nid = len(order)
            order.append(tn)


def _proof_node(tn: TNode) -> ProofNode:
    """The proof line of a numbered node, sharing its clause tuple."""
    clause = tn.clause
    if tn.rule == RESOLVE:
        k0, k1 = tn.kids
        return ProofNode(tn.nid, RESOLVE, clause, (k0.nid, k1.nid), tn.pivot)
    if tn.rule == LEMMA:
        return ProofNode(tn.nid, LEMMA, clause, target=tn.target.nid)
    return ProofNode(tn.nid, AXIOM, clause)


def _build(formula_or_n, seed, mode, max_nodes) -> tuple[Derivation, LrStats]:
    if isinstance(formula_or_n, FormulaInstance):
        formula = formula_or_n
    else:
        formula = gen_ggt(formula_or_n, seed)
    with collector_paused():
        return _Engine(formula, mode, max_nodes).run()


def build_pool_with_stats(n, seed: int = 0,
                          max_nodes: int | None = None) -> tuple[Derivation, LrStats]:
    """Pool refutation of the guarded instance (a tree with lemmas, regular,
    root empty) and its construction statistics.

    `n` is either a size, for GGT(n) drawn with `seed`, or a FormulaInstance.
    """
    return _build(n, seed, POOL_MODE, max_nodes)


def build_regrti_with_stats(n, seed: int = 0,
                            max_nodes: int | None = None) -> tuple[Derivation, LrStats]:
    """Tree-like regular refutation using only input lemmas, and its statistics.

    `n` is either a size, for GGT(n) drawn with `seed`, or a FormulaInstance.
    """
    return _build(n, seed, INPUT_MODE, max_nodes)
