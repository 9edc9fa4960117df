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

Classification reads each axiom's min-first triangle off the skeleton
(`Skeleton.tri`) and its clause from the per-n table `literals.trans_table`,
which the instance's guard map has already built; the case-(iv) test is
`Skeleton.blocked`, which the solver shares.  A replacement chain names
each step's triangle min-first once, as it lists the step, and reads its
axioms from the same table.  Only a stage that expands derives its order
derivation's clauses, each once, with guard literals riding down through
resolution itself; its root must hold the leaf's clause and, beyond it,
only the stage's guard literals.

Both modes splice the derivation through one depth-first unfold, and a
repeated clause becomes a lemma reference to an earlier node deriving it.
In pool mode any earlier inference of the stage may be cited.  In
input-lemma mode only an input-derived one, of this stage or an earlier
one, so other repeats are re-expanded until an expansion happens to be an
input derivation.  That keeps every lemma an input lemma at a size cost
bounded by the dag depth.

One postorder walk over the growing tree numbers the proof.  After each
splice it resumes, gives every node it finishes its final id, and stops
at the next unfinished leaf, which is the leaf the next stage expands.
So the numbered nodes are exactly those strictly left of that leaf, and
a learned node may be cited once the walk has given it its postorder id:
the pool condition itself.  The walk's open frames are the leaf's
ancestors, so a splice finds the parent and the path a literal
propagates down without any back-pointers, and the tree stays acyclic.
Since a splice adds literals only to those open frames, which are all
inferences, a leaf's clause never changes and a numbered node's clause is
final.  So only an unnumbered inference holds a set; a leaf keeps the
frozen clause it was made from, and the walk turns each node it numbers
into its `clause_key` tuple, a lemma reference taking its target's, which
the proof lines share.  The learned clauses are indexed by hash alone: a
learned node is cited only once numbered, and its tuple then confirms
the match, so no learned clause is kept beside the tree.
Each leaf record carries the leaf's order, computed and checked against
the leaf clause once, when the leaf is made.  Orders are bitmask rows
(see `bpo`): the branch's literals give its rows through
`literals.pair_table`, of which only their order is kept, and a
replacement chain ORs its new pairs onto a copy of the order's rows.

A build may be given a deadline; it is checked at each stage boundary,
so a capped build stops within one stage of it.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

from ggtkit.bpo import CyclicOrderError, Bpo, associated_bpo, bpo_clause
from ggtkit.formulas import FormulaInstance, SizeError, gen_ggt
from ggtkit.gtproofs import Skeleton, build_ppi_dag
from ggtkit.literals import (
    Clause, alpha_clause, bits, lit_table, min_first, pair_table, trans_table,
)
from ggtkit.proofs import (
    AXIOM,
    LEAF_RULES,
    LEMMA,
    RESOLVE,
    TREE,
    BudgetExceeded,
    ConstructionError,
    Derivation,
    ProofNode,
    RuleError,
    TimeBudgetExceeded,
    collector_paused,
    input_step,
    resolve_on_var,
)

POOL_MODE = "pool"
INPUT_MODE = "input"


class NodeBudgetExceeded(BudgetExceeded):
    """The proof grew past the configured node budget."""


class TNode:
    """Mutable tree node used while the refutation is under construction.

    Until the walk numbers it, an inference holds its clause as a set,
    which a splice may extend; a leaf keeps the frozen clause it was made
    from, since a splice changes only inferences.  Numbered, every node
    holds its clause as a tuple.
    """

    __slots__ = ("clause", "rule", "kids", "pivot", "target", "lemma_target", "inp", "nid")

    def __init__(self, clause, rule, kids=(), pivot=None, target=None):
        self.clause = clause
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
    pi: Bpo  # the associated order of the pairs cplus asserts; labels the leaf


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
    segment_budget: int = 0  # over input-lemma splices: sum of dag size * (dag depth + 1)
    unfold_lines: int = 0  # lines those splices emitted; both stay 0 in pool builds
    stage_log: list[StageRecord] = field(default_factory=list)


class _Engine:
    def __init__(self, formula: FormulaInstance, mode: str, max_nodes: int | None,
                 deadline: float | None = None):
        if formula.guard_map is None:
            raise SizeError("pool construction needs a guarded instance (ggt, n >= 4)")
        self.f = formula
        self.n = formula.n
        self.glits = formula.guard_map
        self.trans = trans_table(self.n)  # inverts the table guard_map has built
        self.mode = mode
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.node_count = 0
        # the nodes deriving each learned clause, keyed by its hash alone
        # (see `_available`), so no learned clause outlives its stage
        self.learned: dict[int, list[TNode]] = {}
        self.learned_count = 0
        self.stats = LrStats(n=self.n, seed=formula.seed, mode=mode)
        root = self._mk(frozenset(), "U")
        self.leaves: dict[TNode, LeafRec] = {
            root: LeafRec(root, frozenset(), Bpo.empty(self.n))
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

    def _resolve(self, p0: TNode, p1: TNode, pivot_var: int, clause=None) -> TNode:
        """The inference of p0 and p1 on `pivot_var`; `clause`, if given, is
        their resolvent, already derived."""
        if clause is None:
            clause = resolve_on_var(RESOLVE, p0.clause, p1.clause, pivot_var)
        node = self._mk(set(clause), RESOLVE, (p0, p1), pivot_var)
        node.inp = input_step(p0.rule, p0.inp, p1.rule, p1.inp)
        return node

    def _lemma_ref(self, target: TNode, clause) -> TNode:
        """A reference to `target`, holding `clause`, equal to the target's
        clause, until the walk gives it the target's tuple: a numbered
        target's tuple cannot be a premise of `resolve_on_var`."""
        target.lemma_target = True
        return self._mk(clause, LEMMA, target=target)

    def _learn(self, clause: Clause, node: TNode) -> None:
        self.learned.setdefault(hash(clause), []).append(node)
        self.learned_count += 1

    def _derive(self, tclause: Clause, glit: int) -> TNode:
        """Resolve the two guarded copies of an axiom on its guard; learn it."""
        a1 = self._mk(tclause | {glit}, AXIOM)
        a2 = self._mk(tclause | {-glit}, AXIOM)
        node = self._resolve(a1, a2, abs(glit))
        self._learn(tclause, node)
        return node

    # -- availability and classification -----------------------------------

    def _available(self, clause: Clause) -> TNode | None:
        """A numbered node that derives `clause`, if any: learned nodes
        share a hash key, so the node's tuple must hold just the clause."""
        for node in self.learned.get(hash(clause), ()):
            if node.nid >= 0 and len(node.clause) == len(clause) and clause.issuperset(node.clause):
                return node
        return None

    def _classify(self, tri, ctx, blocked: bool):
        """How the axiom T[tri] enters an expansion on a branch with literals `ctx`.

        `tri` is min-first, and `blocked` says whether the guard variable is
        resolved below the axiom (`Skeleton.blocked`).  Returns ("lem", node),
        ("guard", lit), ("derive", glit), or None for a blocked axiom.
        """
        hit = self._available(self.trans[tri])
        if hit is not None:
            return ("lem", hit)
        glit = self.glits[tri]
        if glit in ctx and -glit in ctx:
            raise ConstructionError("branch context contains both guard polarities")
        for lit in (glit, -glit):
            if lit in ctx:
                return ("guard", lit)
        if blocked:
            return None
        return ("derive", glit)

    def _axiom_tnode(self, clause, dec, stage_learned) -> TNode:
        """The node for an axiom classified `dec`; None is a minimality axiom.

        A guarded axiom's `clause` already holds its guard literal.  An
        axiom derived earlier in the stage is referenced through
        `stage_learned`.
        """
        if dec is None or dec[0] == "guard":
            return self._mk(clause, AXIOM)
        what, arg = dec
        if what == "lem":
            return self._lemma_ref(arg, clause)
        hit = stage_learned.get(clause)
        if hit is not None:
            return self._lemma_ref(hit, clause)
        node = stage_learned[clause] = self._derive(clause, arg)
        return node

    # -- stage driver -------------------------------------------------------

    def run(self) -> tuple[Derivation, LrStats]:
        while self.leaves:
            self._stage()
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise TimeBudgetExceeded(f"stage {self.stats.stages} ended past the deadline")
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
        skel = build_ppi_dag(rec.pi)
        blocked = set(skel.blocked(self.glits))
        decisions: dict[int, tuple] = {}
        trigger = None
        # postorder, not node order: taking blocked axioms in node order moves
        # the trigger in about half the branching stages and gives shorter
        # proofs but more greedy_up violations (ROADMAP, greedy item)
        for nid in skel.trans_postorder():
            dec = self._classify(skel.tri[nid], rec.cplus, nid in blocked)
            if dec is None:
                trigger = nid
                break
            decisions[nid] = dec
        if trigger is None:
            newroot = self._splice_expansion(rec, skel, decisions)
            leaf_paths: list[list[TNode]] = []
            case = "expand"
        else:
            newroot, leaf_paths = self._case_branch(rec, skel, trigger)
            case = "branch"
        self._splice(rec, newroot)
        for path in leaf_paths:
            self.leaves[path[0]] = self._leaf_record(rec, path)
        self._advance()
        self.stats.stage_log.append(StageRecord(
            self.stats.stages, case, len(rec.node.clause), sum(map(int.bit_count, rec.pi.rows)),
            len(self.leaves), self.node_count, self.learned_count,
        ))

    def _leaf_record(self, rec, path) -> LeafRec:
        """The record of a new leaf, from its path up to the spliced root."""
        cplus = rec.cplus.union(*(w.clause for w in path))
        # a literal on the branch is falsified there, so it asserts the
        # pair of its negation
        pair = pair_table(self.n)
        tau = [0] * self.n
        for lit in cplus:
            a, b = pair[-lit]
            tau[a] |= 1 << b
        try:
            sub_pi = associated_bpo(self.n, tau)
        except CyclicOrderError as exc:
            raise ConstructionError(f"unfinished leaf branch is cyclic: {exc}") from exc
        if bpo_clause(sub_pi) != path[0].clause:
            raise ConstructionError(
                "new unfinished leaf is not labeled by its branch's bipartite order"
            )
        return LeafRec(path[0], cplus, sub_pi)

    # -- cases (i)-(iii): splice the adjusted order derivation ---------------

    def _splice_expansion(self, rec, skel: Skeleton, decisions) -> TNode:
        """Expand the order derivation, guard literals riding down.

        A guarded axiom holds its guard literal, and resolution carries it
        down until a pivot removes it; one meeting its negation makes a
        resolvent tautological.  The root must hold the leaf's clause, its
        order's (`_leaf_record`), and beyond it only this stage's guards.
        """
        try:
            root = self._unfold(skel, decisions)
        except RuleError as exc:
            raise ConstructionError(f"guard literal meets its negation on the way down: {exc}") from exc
        leaf, clause = rec.node.clause, root.clause
        guards = {arg for what, arg in decisions.values() if what == "guard"}
        if not leaf <= clause or not clause - leaf <= guards:
            raise ConstructionError(f"derivation root {sorted(clause)} differs from the pi "
                                    f"clause {sorted(leaf)} beyond its guard literals")
        return root

    def _unfold(self, skel: Skeleton, decisions) -> TNode:
        """Depth-first expansion; a repeated clause may become a lemma ref.

        One pass first derives each skeleton clause once, a guarded
        axiom's with its guard literal, and each emitted inference takes
        its resolvent from there.  Repeats are cited through
        `stage_learned`, keyed by clause.  In pool mode it holds every
        inference.  In input-lemma mode it holds only input-derived ones,
        also learned, and `_available` offers those of earlier stages;
        other clauses are re-expanded, so each occurs at most depth-many
        times and a splice emits at most size*depth lines.  One table
        serves both modes because, in an expanding stage, distinct
        inferences have distinct guarded clauses and none has the clause
        of an axiom classified "derive": keyed by clause, pool mode cites
        each skeleton node's first occurrence, as a table by node would.
        """
        pool = self.mode == POOL_MODE
        clauses: list[Clause] = []
        depth = [0] * len(skel.premises)
        for nid, (prem, piv, kind) in enumerate(zip(skel.premises, skel.pivot, skel.kind)):
            if prem:
                depth[nid] = 1 + max(depth[prem[0]], depth[prem[1]])
                clauses.append(resolve_on_var(RESOLVE, clauses[prem[0]], clauses[prem[1]], piv))
                continue
            if kind[0] == "alpha":
                clauses.append(alpha_clause(kind[1], self.n))
                continue
            clause = self.trans[skel.tri[nid]]
            dec = decisions.get(nid)
            clauses.append(clause | {dec[1]} if dec is not None and dec[0] == "guard" else clause)
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
                node = self._resolve(p0, p1, skel.pivot[nid], clause)
                if pool:
                    stage_learned[clause] = node
                elif node.inp and clause not in stage_learned:
                    stage_learned[clause] = node
                    self._learn(clause, node)
                out.append(node)
                continue
            if not prem:
                out.append(self._axiom_tnode(clause, decisions.get(nid), stage_learned))
                continue
            hit = stage_learned.get(clause)
            if hit is None and not pool:
                hit = self._available(clause)  # every learned node is input-derived
            if hit is not None:
                out.append(self._lemma_ref(hit, clause))
                continue
            stack.append((nid, True))
            stack.append((prem[1], False))
            stack.append((prem[0], False))
        (root,) = out
        if not pool:
            self.stats.segment_budget += len(clauses) * (depth[skel.root] + 1)
            self.stats.unfold_lines += self.node_count - before
        return root

    # -- case (iv): branch and learn -----------------------------------------

    def _case_branch(self, rec, skel: Skeleton, trigger: int):
        """Learn the trigger axiom T and resolve it with two (gamma) or three
        (beta) replacement chains back to the leaf clause.

        `trigger` is T's node in `skel`, and each chain step is listed with
        its triangle min-first.  Returns the subproof root and, per chain,
        the path from its new unfinished leaf up to that root: the chain,
        leaf first, and then the joins from that chain on.
        """
        self.stats.case_iv += 1
        pi = rec.pi
        above = pi.rows
        kind, (i, j, k) = skel.kind[trigger]
        lit = lit_table(self.n)
        var = lambda a, b: abs(lit[a][b])
        # per chain: the pairs its leaf adds, its steps, and the pivot joining
        # it; both kinds close with the chain that puts j below i
        swap = ([(j, i)], [(min_first(j, i, l), var(j, l)) for l in bits(above[i])
                           if not above[j] >> l & 1], var(i, j))
        if kind == "gamma":
            self.stats.case_iv_gamma += 1
            steps = [(min_first(i, j, l), var(i, l)) for l in bits(above[j])
                     if l != k and not above[i] >> l & 1]
            plans = [([(i, j)], steps, var(i, k)), swap]
        else:
            self.stats.case_iv_beta += 1
            steps_a = []
            for l in bits(above[j] | above[k]):
                if above[i] >> l & 1:
                    continue
                partner = j if above[j] >> l & 1 else k
                steps_a.append((min_first(i, partner, l), var(i, l)))
            steps_b = []
            for l in bits(above[j]):
                if not above[k] >> l & 1:
                    steps_b.append((min_first(k, j, l), var(k, l)))
                if not above[i] >> l & 1:
                    steps_b.append((min_first(i, j, l), var(i, l)))
            plans = [([(i, j), (j, k), (i, k)], steps_a, var(i, k)),
                     ([(i, j), (k, j)], steps_b, var(j, k)), swap]
        tri = skel.tri[trigger]
        node = self._derive(self.trans[tri], self.glits[tri])

        bases = [self._plan_chain(above, pairs, steps) for pairs, steps, _ in plans]
        joined = []  # the clause after each chain is resolved in, guards ignored
        cur = self.trans[tri]
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

    def _plan_chain(self, rows, new_pairs, steps) -> list[Clause]:
        """Clause sequence of a replacement chain, leaf first, guards ignored.

        `rows` is the branch's order, to which the chain's leaf adds
        `new_pairs`.  Those pairs join minimal vertices only, so a path out
        of a minimal vertex takes new pairs first and then the branch's
        own: the rows of the branch's literals and those of its order give
        the leaf the same associated order.  Guard literals added later
        only ever duplicate branch literals, so classification contexts
        computed from these base clauses are exact.
        """
        rows = list(rows)
        for a, b in new_pairs:
            rows[a] |= 1 << b
        leaf = bpo_clause(associated_bpo(self.n, rows))
        seq = [leaf]
        trans = self.trans
        for tri, piv in steps:
            seq.append(resolve_on_var(RESOLVE, trans[tri], seq[-1], piv))
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
            dec = self._classify(tri, ctx, False)
            tclause = self.trans[tri]
            tsub = self._axiom_tnode(tclause | {dec[1]} if dec[0] == "guard" else tclause, dec, {})
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
                # no clause repeats a variable (`apply_rule` rejects a
                # tautology, `_splice` a literal meeting its negation), so
                # sorting by variable is clause_key order
                tn.clause = tuple(sorted(tn.clause, key=abs))
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


def _build(formula_or_n, seed, mode, max_nodes, deadline) -> tuple[Derivation, LrStats]:
    if isinstance(formula_or_n, FormulaInstance):
        formula = formula_or_n
    else:
        formula = gen_ggt(formula_or_n, seed)
    with collector_paused():
        return _Engine(formula, mode, max_nodes, deadline).run()


def build_pool_with_stats(n, seed: int = 0, max_nodes: int | None = None,
                          deadline: float | None = None) -> tuple[Derivation, LrStats]:
    """Pool refutation of the guarded instance (a tree with lemmas, regular,
    root empty) and its construction statistics.

    `n` is either a size, for GGT(n) drawn with `seed`, or a FormulaInstance.
    Past `max_nodes` nodes the build raises NodeBudgetExceeded; a stage
    that ends after `deadline` (a `time.monotonic()` value) raises
    TimeBudgetExceeded.
    """
    return _build(n, seed, POOL_MODE, max_nodes, deadline)


def build_regrti_with_stats(n, seed: int = 0, max_nodes: int | None = None,
                            deadline: float | None = None) -> tuple[Derivation, LrStats]:
    """Tree-like regular refutation using only input lemmas, and its statistics.

    `n` and the budgets are as for `build_pool_with_stats`.
    """
    return _build(n, seed, INPUT_MODE, max_nodes, deadline)
