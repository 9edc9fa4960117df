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
branch on the axiom's triangle directly, which learns it.

There are no restarts: the decision stack is only pushed, flipped, or
popped.  Every flip carries the clause derived from the conflict that
caused it, so the final level-zero conflict replays to the empty clause
and the whole run serializes as a checkable dag derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ggtkit.formulas import GGT, GT, FormulaInstance
from ggtkit.gtproofs import Skeleton, build_skeleton
from ggtkit.literals import bits, clause_key, decode_lit, encode_lit, min_first, triangle_of
from ggtkit.proofs import AXIOM, DAG, RESOLVE, Derivation, ProofNode

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


class _Trace:
    def __init__(self, family: str, n: int, seed):
        self.nodes: list[ProofNode] = []
        self.family = family
        self.n = n
        self.seed = seed
        self._axiom_ids: dict = {}
        self.markers: dict[int, list[int]] = {}
        self._pending: list[int] = []

    def decision(self, lit: int) -> None:
        self._pending.append(lit)

    def axiom(self, clause) -> int:
        key = frozenset(clause)
        nid = self._axiom_ids.get(key)
        if nid is None:
            nid = self._emit(ProofNode(len(self.nodes), AXIOM, tuple(clause_key(key))))
            self._axiom_ids[key] = nid
        return nid

    def resolve(self, p0: int, p1: int, pivot_var: int, clause) -> int:
        return self._emit(
            ProofNode(
                len(self.nodes), RESOLVE, tuple(clause_key(clause)), (p0, p1), pivot_var
            )
        )

    def _emit(self, node: ProofNode) -> int:
        if self._pending:
            self.markers[node.nid] = self._pending
            self._pending = []
        self.nodes.append(node)
        return node.nid

    def finish(self) -> Derivation:
        return Derivation(
            tuple(self.nodes),
            root=len(self.nodes) - 1,
            shape=DAG,
            family=self.family,
            n=self.n,
            seed=self.seed,
        )


class Solver:
    def __init__(self, f: FormulaInstance, trace: bool = False, tie_seed: int = 0):
        if f.family not in (GT, GGT):
            raise UnsupportedFamilyError(f"solver handles gt/ggt instances, not {f.family!r}")
        self.f = f
        self.n = f.n
        # tie break for the closure scan: which vertex is examined first
        self._vertex_order = list(range(f.n))
        if tie_seed:
            import random

            random.Random(tie_seed).shuffle(self._vertex_order)
        self.clauses: list[list[int]] = [list(clause_key(c)) for c in f.clauses]
        self.clause_set = {frozenset(c) for c in f.clauses}
        self.n_original = len(self.clauses)
        self.watches: dict[int, list[int]] = {}
        self.vals: dict[int, bool] = {}
        self._assign_order: dict[int, int] = {}
        self._order = 0
        # vertex adjacency bitmasks for the order the trail currently asserts
        self._succ = [0] * f.n
        self._adj = [0] * f.n  # assigned pair variables, per endpoint
        self.trail: list[tuple[int, object]] = []  # (true literal, reason)
        self.qhead = 0
        self.stats = SolveStats()
        self.learned_clauses: list[frozenset] = []
        self.learned_tris: set[tuple[int, int, int]] = set()
        self.trace = _Trace(f.family, f.n, f.seed) if trace else None
        self.learned_nodes: dict[int, int] = {}  # clause index -> trace node id
        self._pi_cache: dict[tuple, tuple[Skeleton, list]] = {}
        self._final_node = -1

    # -- assignment and propagation -----------------------------------------

    def _value(self, lit: int):
        v = self.vals.get(abs(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def _assign(self, lit: int, reason) -> None:
        self.vals[abs(lit)] = lit > 0
        self._order += 1
        self._assign_order[abs(lit)] = self._order
        i, j = decode_lit(lit, self.n)
        self._succ[i] |= 1 << j
        self._adj[i] |= 1 << j
        self._adj[j] |= 1 << i
        self.trail.append((lit, reason))

    def _unassign(self, lit: int) -> None:
        del self.vals[abs(lit)]
        del self._assign_order[abs(lit)]
        i, j = decode_lit(lit, self.n)
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
            val = self._value(lit)
            if val is False:
                return cidx
            if val is None:
                self._assign(lit, cidx)
                self.stats.propagations += 1
            return None
        free = [l for l in clause if self._value(l) is not False]
        if not free:
            return cidx
        if len(free) >= 2:
            w0, w1 = free[0], free[1]
        else:
            w0 = free[0]
            w1 = max(
                (l for l in clause if l != w0),
                key=lambda l: self._assign_order.get(abs(l), 0),
            )
            if self._value(w0) is None:
                self._assign(w0, cidx)
                self.stats.propagations += 1
        rest = [l for l in clause if l != w0 and l != w1]
        clause[:] = [w0, w1] + rest
        self.watches.setdefault(w0, []).append(cidx)
        self.watches.setdefault(w1, []).append(cidx)
        return None

    def _propagate(self):
        """Watched-literal propagation; returns a falsified clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead][0]
            self.qhead += 1
            falsified = -lit
            watchlist = self.watches.get(falsified)
            if not watchlist:
                continue
            kept = []
            idx = 0
            while idx < len(watchlist):
                cidx = watchlist[idx]
                idx += 1
                clause = self.clauses[cidx]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) is True:
                    kept.append(cidx)
                    continue
                moved = False
                for pos in range(2, len(clause)):
                    if self._value(clause[pos]) is not False:
                        clause[1], clause[pos] = clause[pos], clause[1]
                        self.watches.setdefault(clause[1], []).append(cidx)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(cidx)
                head = self._value(clause[0])
                if head is None:
                    self._assign(clause[0], cidx)
                    self.stats.propagations += 1
                elif head is False:
                    kept.extend(watchlist[idx:])
                    self.watches[falsified] = kept
                    return cidx
            self.watches[falsified] = kept
        return None

    # -- conflict handling ----------------------------------------------------

    def _reason_clause(self, reason) -> frozenset:
        if isinstance(reason, FlipReason):
            return reason.clause
        return frozenset(self.clauses[reason])

    def _reason_node(self, reason) -> int:
        if isinstance(reason, FlipReason):
            return reason.node
        if reason >= self.n_original:
            return self.learned_nodes[reason]
        return self.trace.axiom(self.clauses[reason])

    def _handle_conflict(self, conf_idx: int) -> bool:
        """Unwind the trail; returns False when the search space is exhausted."""
        self.stats.conflicts += 1
        k = frozenset(self.clauses[conf_idx])
        node = self._reason_node(conf_idx) if self.trace else None
        pending_learn = None
        while self.trail:
            lit, reason = self.trail.pop()
            self._unassign(lit)
            if -lit not in k:
                if reason == DECISION:
                    self.stats.skipped_decisions += 1
                continue
            if reason == DECISION:
                # flip: the derived clause is unit in -lit at this point
                self.qhead = len(self.trail)
                self._assign(-lit, FlipReason(k, node if node is not None else -1))
                self._finish_learn(pending_learn)
                return True
            rclause = self._reason_clause(reason)
            k = (rclause - {lit}) | (k - {-lit})
            if self.trace:
                node = self.trace.resolve(self._reason_node(reason), node, abs(lit), k)
            if pending_learn is None and len(k) == 3 and k not in self.clause_set:
                if triangle_of(k, self.n) is not None:
                    pending_learn = (k, node)
        if k:
            raise SolverContractError(f"trail exhausted with nonempty clause {sorted(k)}")
        self.qhead = 0
        self._final_node = node if node is not None else -1
        self._finish_learn(pending_learn)
        return False

    def _finish_learn(self, pending) -> None:
        if pending is None:
            return
        clause, node = pending
        self.stats.learned += 1
        self.learned_clauses.append(clause)
        self.clause_set.add(clause)
        self.learned_tris.add(triangle_of(clause, self.n))
        cidx = len(self.clauses)
        self.clauses.append(list(clause_key(clause)))
        if node is not None:
            self.learned_nodes[cidx] = node
        conf = self._attach(cidx)
        if conf is not None:
            # the learned clause is falsified under the post-flip trail
            ok = self._handle_conflict(conf)
            if not ok:
                raise _Exhausted()

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

    def _walk_tools(self) -> tuple[Skeleton, list]:
        """The order-derivation skeleton for the trail's bipartite order.

        Once the closure step is exhausted, the assigned pairs are closed
        under composition, so the bipartite order is read off the
        adjacency rows of the minimal vertices directly.  Returned with the
        skeleton, in node-id order, is one entry per transitivity axiom:
        its min-first triple, its guard variable, the variables resolved
        below it, and its kind.
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
            taxioms = []
            guard_map = self.f.guard_map
            if guard_map is not None:
                masks = skel.masks()
                for nid, kind in enumerate(skel.kind):
                    if kind is not None and kind[0] != "alpha":
                        r, s = guard_map.guard(*kind[1])
                        gvar = abs(encode_lit(r, s, n))
                        taxioms.append((min_first(*kind[1]), gvar, masks[nid], kind))
            walk = (skel, taxioms)
            self._pi_cache[key] = walk
        return walk

    def _blocking_axiom(self, taxioms) -> tuple | None:
        """The first transitivity axiom whose unassigned guard is resolved
        below it and whose triangle is not learned yet: its kind."""
        vals = self.vals
        tris = self.learned_tris
        for tri, gvar, mask, kind in taxioms:
            if vals.get(gvar) is None and mask >> gvar & 1 and tri not in tris:
                return kind
        return None

    def _pick_decision(self) -> int:
        lit = self._closure_decision()
        if lit is not None:
            return lit
        skel, taxioms = self._walk_tools()
        blocker = self._blocking_axiom(taxioms)
        if blocker is not None:
            _, (i, j, k) = blocker
            for a, b in ((i, j), (j, k), (k, i)):
                lit = encode_lit(a, b, self.n)
                if self._value(lit) is None:
                    return lit  # falsify the axiom's literal
            raise SolverContractError("blocking axiom fully assigned without conflict")
        # walk the order derivation along falsified premises
        vals = self.vals
        premises = skel.premises
        lit0 = skel.lit0
        nid = skel.root
        while premises[nid]:
            l0 = lit0[nid]
            v = vals.get(abs(l0))
            if v is None:
                return -l0  # explore the first premise first
            nid = premises[nid][0] if v != (l0 > 0) else premises[nid][1]
        raise SolverContractError("decision walk reached a falsified axiom")

    # -- main loop -----------------------------------------------------------------

    def solve(self) -> SolveResult:
        try:
            for cidx in range(len(self.clauses)):
                conf = self._attach(cidx)
                if conf is not None:
                    if not self._handle_conflict(conf):
                        return self._unsat()
            while True:
                conf = self._propagate()
                if conf is not None:
                    if not self._handle_conflict(conf):
                        return self._unsat()
                    continue
                if len(self.vals) == self.f.nvars:
                    raise SolverContractError(
                        "complete assignment found; instance is not an ordering tautology"
                    )
                lit = self._pick_decision()
                self.stats.decisions += 1
                if self.trace:
                    self.trace.decision(lit)
                self._assign(lit, DECISION)
        except _Exhausted:
            return self._unsat()

    def _unsat(self) -> SolveResult:
        trace = None
        markers: dict[int, list[int]] = {}
        if self.trace:
            if self._final_node < 0 or self.trace.nodes[self._final_node].clause:
                raise SolverContractError("final trace node is not the empty clause")
            trace = self.trace.finish()
            markers = self.trace.markers
        return SolveResult(
            status="UNSAT",
            stats=self.stats,
            learned_clauses=list(self.learned_clauses),
            trace=trace,
            decision_markers=markers,
        )


class _Exhausted(Exception):
    """Internal signal: conflict unwinding emptied the trail."""


def solve(f: FormulaInstance, trace: bool = False, tie_seed: int = 0) -> SolveResult:
    """Refute a GT/GGT instance; returns UNSAT with statistics (and a trace)."""
    return Solver(f, trace=trace, tie_seed=tie_seed).solve()
