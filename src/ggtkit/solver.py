"""Restart-free DPLL with clause learning for the ordering families.

The search follows the decision cascade that makes the guarded instances
easy: (1) propagate and, on a conflict, learn the transitivity clause the
conflict resolves to (when it does) and backtrack by flipping the last
relevant decision; (2) if the transitive closure of the order decided so
far assigns a variable the trail has not, decide it with the polarity
that contradicts the closure, so the conflict/learn/flip sequence records
the closure pair; (3) otherwise walk the order derivation for the current
bipartite partial order, deciding its pivots root-first along falsified
premises; the walk is the gtproofs skeleton that the pool construction
splices, built without clauses; (4) if a transitivity axiom of that
derivation is blocked (its guard is resolved deeper in the derivation),
branch on the axiom's triangle directly, which learns it.  Each order's
walk is cached, keeping only what steps (3) and (4) read: the
premises and first-premise literals in compact arrays, and the axioms
whose guard is resolved below them, which depends on the order alone.

There are no restarts: the decision stack is only pushed, flipped, or
popped.  Every flip carries the clause derived from the conflict that
caused it, so the final level-zero conflict replays to the empty clause
and the whole run serializes as a checkable dag derivation.

Each clause fact has one store, by clause index: `_as_set` holds the
literals (the input clauses, then the learned ones, which are returned as
a slice) and `node_of` the trace node, -1 until an input clause is first
used.  An index names one clause because no instance holds a clause twice.
A conflict is handled on one path: the unwind flips the last decision its
running clause holds, then stores the clause it learned on the way.  The
flip never leaves that clause falsified: were all its literals below the
flipped decision, no later resolution step would touch the running clause
and the unwind would skip that decision instead.  `_learn` checks it.

Assignments are stored by literal, as in MiniSat (Een & Sorensson 2003):
`lv` is one list of length 2*nvars + 1 in which `lv[lit]` is True, False
or None, and a negative literal indexes from the end, so `lv[lit]` and
`lv[-lit]` are the two polarities of one variable.  Watch lists are
indexed the same way.  `pair` is `literals.pair_table(n)`, and each
triangle's guard is read from the instance's `guard_map`.  A triangle is
learned once, and only on a guarded instance: on any other, every
transitivity clause is an input.  The search allocates only acyclic
objects (trail tuples, frozensets, trace nodes), so `Solver.solve` runs
under `proofs.collector_paused`: the cyclic garbage collector would
otherwise scan the growing trace over and over and free nothing.  The
helper restores the caller's setting when the search returns or raises.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

from ggtkit.formulas import GGT, GT, FormulaInstance
from ggtkit.gtproofs import build_skeleton
from ggtkit.literals import bits, clause_key, encode_lit, min_first, pair_table, triangle_of
from ggtkit.proofs import AXIOM, DAG, RESOLVE, Derivation, ProofNode, collector_paused

DECISION = -1


class UnsupportedFamilyError(ValueError):
    """The decision heuristic is specific to the GT/GGT families."""


class SolverContractError(RuntimeError):
    """An internal solver invariant failed."""


@dataclass
class FlipReason:
    clause: frozenset
    node: int  # trace node id (or -1 when tracing is off)


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0
    skipped_decisions: int = 0  # unflipped decisions popped as conflict-irrelevant


@dataclass
class SolveResult:
    status: str
    stats: SolveStats
    learned_clauses: list
    trace: Derivation | None = None
    decision_markers: dict[int, list[int]] = field(default_factory=dict)


class Solver:
    def __init__(self, f: FormulaInstance, trace: bool = False, tie_seed: int = 0):
        if f.family not in (GT, GGT):
            raise UnsupportedFamilyError(f"solver handles gt/ggt instances, not {f.family!r}")
        self.f = f
        self.n = f.n
        # tie break for the closure scan: which vertex is examined first
        self._vertex_order = list(range(f.n))
        if tie_seed:
            random.Random(tie_seed).shuffle(self._vertex_order)
        self.clauses: list[list[int]] = [list(clause_key(c)) for c in f.clauses]
        self._as_set = [frozenset(c) for c in f.clauses]  # clause index -> its literals
        self.n_original = len(self.clauses)
        size = 2 * f.nvars + 1  # literal-indexed lists; lit < 0 counts from the end
        self.watches: list[list[int]] = [[] for _ in range(size)]
        self.lv: list[bool | None] = [None] * size
        # per variable: the trail depth of its assignment, 0 while unassigned
        self._stamp = [0] * (f.nvars + 1)
        self.pair = pair_table(f.n)  # lit -> decode_lit(lit)
        # vertex adjacency bitmasks for the order the trail currently asserts
        self._succ = [0] * f.n
        self._adj = [0] * f.n  # assigned pair variables, per endpoint
        self.trail: list[tuple[int, object]] = []  # (true literal, reason)
        self.qhead = 0
        self.stats = SolveStats()
        self.learned_tris: set[tuple[int, int, int]] = set()
        self._pi_cache: dict[tuple, tuple] = {}  # order -> _walk_tools entry
        # the trace: nodes, decision markers by the node they precede, the
        # decisions since the last node, and the node of each clause index
        # (the generators emit no clause twice and read_dimacs rejects a repeat)
        self.tracing = trace
        self.nodes: list[ProofNode] = []
        self.markers: dict[int, list[int]] = {}
        self._pending: list[int] = []
        self.node_of = [-1] * self.n_original
        self._final_node = -1

    # -- assignment and propagation -----------------------------------------

    def _assign(self, lit: int, reason) -> None:
        lv = self.lv
        lv[lit] = True
        lv[-lit] = False
        trail = self.trail
        trail.append((lit, reason))
        self._stamp[lit if lit > 0 else -lit] = len(trail)
        i, j = self.pair[lit]
        self._succ[i] |= 1 << j
        self._adj[i] |= 1 << j
        self._adj[j] |= 1 << i

    def _unassign(self, lit: int) -> None:
        lv = self.lv
        lv[lit] = lv[-lit] = None
        self._stamp[lit if lit > 0 else -lit] = 0
        i, j = self.pair[lit]
        self._succ[i] &= ~(1 << j)
        self._adj[i] &= ~(1 << j)
        self._adj[j] &= ~(1 << i)

    def _attach(self, cidx: int):
        """Install watches for a clause; returns the index if it is falsified.

        When fewer than two literals are non-false, the second watch goes
        to the most recently falsified literal, so no unit propagation can
        be missed after backtracking past it.
        """
        clause = self.clauses[cidx]
        if len(clause) == 1:
            lit = clause[0]
            val = self.lv[lit]
            if val is False:
                return cidx
            if val is None:
                self._assign(lit, cidx)
                self.stats.propagations += 1
            return None
        lv = self.lv
        free = [l for l in clause if lv[l] is not False]
        if not free:
            return cidx
        if len(free) >= 2:
            w0, w1 = free[0], free[1]
        else:
            w0 = free[0]
            stamp = self._stamp
            w1 = max((l for l in clause if l != w0), key=lambda l: stamp[abs(l)])
            if lv[w0] is None:
                self._assign(w0, cidx)
                self.stats.propagations += 1
        rest = [l for l in clause if l != w0 and l != w1]
        clause[:] = [w0, w1] + rest
        self.watches[w0].append(cidx)
        self.watches[w1].append(cidx)
        return None

    def _propagate(self):
        """Watched-literal propagation; returns a falsified clause index or None.

        Each watch list is compacted in place: the clauses that keep
        watching the falsified literal stay in their order, and those whose
        watch moved are appended, in visiting order, to their new literal's
        list.
        """
        lv = self.lv
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        assign = self._assign
        qhead = self.qhead
        conflict = None
        propagations = 0
        while conflict is None and qhead < len(trail):
            falsified = -trail[qhead][0]
            qhead += 1
            watchlist = watches[falsified]
            kept = 0
            end = len(watchlist)
            for idx, cidx in enumerate(watchlist, 1):
                clause = clauses[cidx]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                head = lv[clause[0]]
                if head is not True:
                    for pos in range(2, len(clause)):
                        other = clause[pos]
                        if lv[other] is not False:
                            clause[1], clause[pos] = other, clause[1]
                            watches[other].append(cidx)
                            break
                    else:
                        watchlist[kept] = cidx
                        kept += 1
                        if head is False:
                            conflict = cidx
                            end = idx
                            break
                        assign(clause[0], cidx)
                        propagations += 1
                    continue
                watchlist[kept] = cidx
                kept += 1
            del watchlist[kept:end]
        self.qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # -- conflict handling ----------------------------------------------------

    def _reason_clause(self, reason) -> frozenset:
        if isinstance(reason, FlipReason):
            return reason.clause
        return self._as_set[reason]

    def _emit(self, rule: str, clause: tuple, premises=(), pivot=None) -> int:
        nid = len(self.nodes)
        if self._pending:
            self.markers[nid] = self._pending
            self._pending = []
        self.nodes.append(ProofNode(nid, rule, clause, premises, pivot))
        return nid

    def _reason_node(self, reason) -> int:
        if isinstance(reason, FlipReason):
            return reason.node
        nid = self.node_of[reason]
        if nid < 0:  # an input clause, first used: emit it as an axiom
            nid = self.node_of[reason] = self._emit(AXIOM, clause_key(self._as_set[reason]))
        return nid

    def _handle_conflict(self, conf_idx: int) -> bool:
        """Unwind the trail; returns False when the search space is exhausted."""
        self.stats.conflicts += 1
        k = self._as_set[conf_idx]
        tracing = self.tracing
        node = self._reason_node(conf_idx) if tracing else -1
        learn = None
        guarded = self.f.guard_map is not None
        trail = self.trail
        unassign = self._unassign
        while trail:
            lit, reason = trail.pop()
            unassign(lit)
            if -lit not in k:
                if reason == DECISION:
                    self.stats.skipped_decisions += 1
                continue
            if reason == DECISION:
                # flip: the derived clause is unit in -lit at this point
                self.qhead = len(trail)
                self._assign(-lit, FlipReason(k, node))
                if learn is not None:
                    self._learn(*learn)
                return True
            # lit is true and k is false here, so k lacks lit and the reason lacks -lit
            k = (k | self._reason_clause(reason)) - {lit, -lit}
            if tracing:
                # k is false under the trail, so it never holds both
                # polarities of a variable and sorting by variable is
                # clause_key order
                node = self._emit(
                    RESOLVE, tuple(sorted(k, key=abs)), (self._reason_node(reason), node), abs(lit)
                )
            if learn is None and guarded and len(k) == 3:
                tri = triangle_of(k, self.n)
                if tri is not None and tri not in self.learned_tris:
                    learn = (k, node)
        if k:
            raise SolverContractError(f"trail exhausted with nonempty clause {sorted(k)}")
        self.qhead = 0
        self._final_node = node
        if learn is not None:
            self._learn(*learn)
        return False

    def _learn(self, clause: frozenset, node: int) -> None:
        """Store a transitivity clause derived by the unwind, at trace node `node`."""
        self.stats.learned += 1
        self.learned_tris.add(triangle_of(clause, self.n))
        cidx = len(self.clauses)
        self.clauses.append(list(clause_key(clause)))
        self._as_set.append(clause)
        self.node_of.append(node)
        if self._attach(cidx) is not None:
            raise SolverContractError(f"learned clause {sorted(clause)} is falsified")

    # -- decision cascade -------------------------------------------------------

    def _closure_decision(self) -> int | None:
        succ = self._succ
        for a in self._vertex_order:
            row = succ[a]
            if not row:
                continue
            two_step = 0
            m = row
            while m:
                b = (m & -m).bit_length() - 1
                m &= m - 1
                two_step |= succ[b]
            cand = two_step & ~self._adj[a] & ~(1 << a)
            if cand:
                c = (cand & -cand).bit_length() - 1
                return encode_lit(c, a, self.n)  # contradict the closure first
        return None

    def _walk_tools(self) -> tuple:
        """The decision walk for the trail's bipartite order, and its blockers.

        Once the closure step is exhausted, the assigned pairs are closed
        under composition, so the bipartite order is read off the
        adjacency rows of the minimal vertices directly.  Its skeleton is
        built and cached, keeping only what `_pick_decision` reads:
        `(lit0, prem, root, blockers)`.  `lit0[nid]` is the pivot literal
        as it occurs in node nid's first premise, 0 at an axiom, and
        `prem[2 * nid]` and `prem[2 * nid + 1]` are its premises, all in
        compact arrays.  `blockers` lists, in node-id order, each
        transitivity axiom whose guard variable is resolved below it, a
        property of the order alone, as (min-first triangle, guard
        variable, kind).
        """
        n = self.n
        succ = self._succ
        incoming = 0
        for row in succ:
            incoming |= row
        min_mask = ~incoming & ((1 << n) - 1)
        minimals = list(bits(min_mask))
        key = (min_mask, tuple(succ[i] for i in minimals))
        walk = self._pi_cache.get(key)
        if walk is None:
            skel = build_skeleton(n, minimals, succ)
            blockers = []
            glits = self.f.guard_map
            if glits is not None:
                masks = skel.masks()
                for nid, kind in enumerate(skel.kind):
                    if kind is not None and kind[0] != "alpha":
                        tri = min_first(*kind[1])
                        gvar = abs(glits[tri])
                        if masks[nid] >> gvar & 1:
                            blockers.append((tri, gvar, kind))
            prem = array("i", [p for pair in skel.premises for p in (pair or (0, 0))])
            walk = (array("i", skel.lit0), prem, skel.root, tuple(blockers))
            self._pi_cache[key] = walk
        return walk

    def _blocking_axiom(self, blockers) -> tuple | None:
        """The first of `blockers` whose guard is unassigned and whose
        triangle is not learned yet: its kind."""
        lv = self.lv
        tris = self.learned_tris
        for tri, gvar, kind in blockers:
            if lv[gvar] is None and tri not in tris:
                return kind
        return None

    def _pick_decision(self) -> int:
        lit = self._closure_decision()
        if lit is not None:
            return lit
        lit0, prem, nid, blockers = self._walk_tools()
        blocker = self._blocking_axiom(blockers)
        if blocker is not None:
            _, (i, j, k) = blocker
            for a, b in ((i, j), (j, k), (k, i)):
                lit = encode_lit(a, b, self.n)
                if self.lv[lit] is None:
                    return lit  # falsify the axiom's literal
            raise SolverContractError("blocking axiom fully assigned without conflict")
        # walk the order derivation from the root along falsified premises
        lv = self.lv
        l0 = lit0[nid]
        while l0:
            v = lv[l0]
            if v is None:
                return -l0  # explore the first premise first
            nid = prem[2 * nid + v]
            l0 = lit0[nid]
        raise SolverContractError("decision walk reached a falsified axiom")

    # -- main loop -----------------------------------------------------------------

    def solve(self) -> SolveResult:
        with collector_paused():
            return self._search()

    def _search(self) -> SolveResult:
        for cidx in range(len(self.clauses)):
            conf = self._attach(cidx)
            if conf is not None and not self._handle_conflict(conf):
                return self._unsat()
        while True:
            conf = self._propagate()
            if conf is not None:
                if not self._handle_conflict(conf):
                    return self._unsat()
                continue
            if len(self.trail) == self.f.nvars:
                raise SolverContractError(
                    "complete assignment found; instance is not an ordering tautology"
                )
            lit = self._pick_decision()
            self.stats.decisions += 1
            if self.tracing:
                self._pending.append(lit)
            self._assign(lit, DECISION)

    def _unsat(self) -> SolveResult:
        trace = None
        if self.tracing:
            if self._final_node < 0 or self.nodes[self._final_node].clause:
                raise SolverContractError("final trace node is not the empty clause")
            f = self.f
            nodes = tuple(self.nodes)
            trace = Derivation(nodes, len(nodes) - 1, DAG, family=f.family, n=f.n, seed=f.seed)
        return SolveResult(
            status="UNSAT",
            stats=self.stats,
            learned_clauses=self._as_set[self.n_original:],
            trace=trace,
            decision_markers=self.markers,
        )


def solve(f: FormulaInstance, trace: bool = False, tie_seed: int = 0) -> SolveResult:
    """Refute a GT/GGT instance; returns UNSAT with statistics (and a trace)."""
    return Solver(f, trace=trace, tie_seed=tie_seed).solve()
