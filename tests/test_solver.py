import dataclasses
import gc
import random

import pytest

from tests.oracles import is_satisfiable
from ggtkit import lr_engine
from ggtkit import solver as solver_module
from ggtkit.checker import VALID, check_proof
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi
from ggtkit.bpo import Bpo, minimal_rows
from ggtkit.gtproofs import build_ppi_dag
from ggtkit.literals import (
    decode_lit,
    encode_lit,
    min_first,
    num_vars,
    pair_table,
    trans_clause,
    triangle_of,
)
from ggtkit.propagation import ClauseIndex, unit_propagate
from ggtkit.proofs import BudgetExceeded, TimeBudgetExceeded
from ggtkit.solver import (
    DECISION,
    ConflictBudgetExceeded,
    Solver,
    SolverContractError,
    UnsupportedFamilyError,
    solve,
)


def test_gt2_pure_propagation():
    result = solve(gen_gt(2))
    assert result.status == "UNSAT"
    assert result.stats.decisions == 0


def test_unsat_matches_oracle_small():
    for n in (2, 3, 4, 5):
        assert not is_satisfiable(gen_gt(n).clauses, n)
        assert solve(gen_gt(n)).status == "UNSAT"
    for seed in (0, 1, 2):
        for n in (4, 5):
            f = gen_ggt(n, seed)
            assert not is_satisfiable(f.clauses, n)
            assert solve(f).status == "UNSAT"


def test_learned_clauses_are_transitivity_patterns():
    for n in (4, 5, 6, 8):
        f = gen_ggt(n, 0)
        result = solve(f)
        assert result.stats.learned == len(result.learned_clauses)
        for clause in result.learned_clauses:
            assert len(clause) == 3
            assert triangle_of(clause, n) is not None
        # learning is opportunistic: some conflicts resolve to nothing usable
        assert result.stats.conflicts > result.stats.learned


def test_no_restarts_and_no_skipped_decisions_on_family():
    for n in (4, 6, 8):
        for seed in (0, 1):
            result = solve(gen_ggt(n, seed))
            assert result.stats.restarts == 0
            assert result.stats.skipped_decisions == 0


class _RandomDecisions(Solver):
    """A solver that, with probability 0.3, decides a random unassigned
    literal of a seeded generator instead of the cascade's choice."""

    def __init__(self, f, rng):
        super().__init__(f, trace=True)
        self.rng = rng

    def _pick_decision(self):
        if self.rng.random() < 0.3:
            free = [v for v in range(1, self.f.nvars + 1) if self.lv[v] is None]
            var = self.rng.choice(free)
            return var if self.rng.random() < 0.5 else -var
        return super()._pick_decision()


@pytest.mark.parametrize("f, seed", [
    (gen_gt(5), 1), (gen_gt(6), 11), (gen_ggt(6, 0), 14), (gen_ggt(6, 0), 20),
], ids=["gt5", "gt6", "ggt6-14", "ggt6-20"])
def test_an_unwind_skips_a_decision_its_clause_does_not_hold(f, seed):
    # the cascade never makes such a decision; random ones do, and the
    # unwind pops them unflipped while the trace stays a valid refutation
    result = _RandomDecisions(f, random.Random(seed)).solve()
    assert result.status == "UNSAT"
    assert result.stats.skipped_decisions > 0
    report = check_proof(result.trace, f, (VALID,))
    assert report.ok, report.lines()[:4]
    assert result.trace.root_clause == frozenset()


def test_trace_replays_as_valid_derivation():
    for n in (4, 5, 6):
        for seed in (0, 1):
            f = gen_ggt(n, seed)
            result = solve(f, trace=True)
            report = check_proof(result.trace, f, (VALID,))
            assert report.ok, (n, seed, report.lines()[:4])
            assert result.trace.root_clause == frozenset()
            assert result.trace.shape == "dag"


def test_learned_clause_nodes_in_trace():
    f = gen_ggt(5, 3)
    result = solve(f, trace=True)
    clauses_in_trace = {frozenset(nd.clause) for nd in result.trace.nodes}
    for learned in result.learned_clauses:
        assert learned in clauses_in_trace


def test_rejects_unsupported_family():
    f = gen_gt_pi(4, Bpo.of(4, [(0, 2)]))
    with pytest.raises(UnsupportedFamilyError):
        solve(f)


class _GreedyAudit(Solver):
    """Asserts the trace-level greedy property: no decision is ever made
    while unit propagation of the current trail already conflicts."""

    def _pick_decision(self):
        state = unit_propagate(ClauseIndex(self.clauses), {lit for lit, _ in self.trail})
        assert state.conflict is None, "decision attempted with a pending conflict"
        return super()._pick_decision()


def test_greedy_property_at_trace_level():
    for n in (4, 5):
        for seed in (0, 1):
            result = _GreedyAudit(gen_ggt(n, seed)).solve()
            assert result.status == "UNSAT"


def test_determinism():
    a = solve(gen_ggt(7, 2))
    b = solve(gen_ggt(7, 2))
    assert a.stats == b.stats
    assert a.learned_clauses == b.learned_clauses


class _ClosureAgainstPairMasks(Solver):
    """A solver that recomputes each closure decision with the rule the scan
    replaced: per-endpoint masks of the pairs on the trail, and the lowest
    candidate c of the lowest vertex a."""

    def __init__(self, f):
        super().__init__(f)
        self.checked = self.decided = 0

    def _closure_decision(self):
        got = super()._closure_decision()
        n = self.n
        succ, assigned = [0] * n, [0] * n
        for lit, _ in self.trail:
            i, j = decode_lit(lit, n)
            succ[i] |= 1 << j
            assigned[i] |= 1 << j
            assigned[j] |= 1 << i
        want = None
        for a in range(n):
            two_step = 0
            for b in range(n):
                if succ[a] >> b & 1:
                    two_step |= succ[b]
            cand = two_step & ~assigned[a] & ~(1 << a)
            if cand:
                want = encode_lit((cand & -cand).bit_length() - 1, a, n)
                break
        assert got == want, (self.f.family, n, self.f.seed, len(self.trail))
        self.checked += 1
        self.decided += want is not None
        return got


def test_closure_scan_picks_what_the_pair_masks_picked():
    checked = decided = 0
    for n in range(4, 11):
        for f in [gen_gt(n)] + [gen_ggt(n, seed) for seed in range(3)]:
            s = _ClosureAgainstPairMasks(f)
            assert s.solve().status == "UNSAT"
            checked += s.checked
            decided += s.decided
    assert decided > 0 and checked > decided


def test_closure_decision_provokes_then_flips():
    # after x01 and x12 are decided true, the closure assigns (0,2); the
    # solver decides x20 (contradiction first), learns T{0,1,2}, and flips
    from ggtkit.literals import encode_lit, trans_clause

    n = 4
    f = gen_ggt(n, 0)
    s = Solver(f)
    for cidx in range(len(s.clauses)):
        assert s._attach(cidx) is None
    s._assign(encode_lit(0, 1, n), -1)
    s._assign(encode_lit(1, 2, n), -1)
    assert s._propagate() is None
    lit = s._pick_decision()
    assert lit == encode_lit(2, 0, n)
    s._assign(lit, -1)
    conf = s._propagate()
    assert conf is not None  # the triangle conflicts through the guarded pair
    assert s._handle_conflict(conf)
    assert s.learned_tris == {(0, 1, 2)}  # T{0,1,2} was learned
    assert [frozenset(c) for c in s.clauses[s.n_original:]] == [trans_clause(0, 1, 2, n)]
    assert s.lv[encode_lit(0, 2, n)] is True  # the flip follows the closure


def test_attach_forces_the_last_free_literal_of_a_clause():
    # with the unit {1} on the trail, {-1, 2} has one free literal left:
    # _attach assigns it and watches the literal the trail falsified last
    s = Solver(gen_gt(4))
    unit = len(s.clauses)
    s.clauses.extend([[1], [-1, 2]])
    assert s._attach(unit) is None
    assert s._attach(unit + 1) is None
    assert s.trail == [(1, unit), (2, unit + 1)]
    assert s.clauses[unit + 1] == [2, -1]
    assert unit + 1 in s.watches[2] and unit + 1 in s.watches[-1]


def test_learning_a_falsified_clause_breaks_the_contract():
    # an unwind never learns a clause its flip leaves falsified; _learn checks
    from ggtkit.literals import encode_lit, trans_clause

    n = 4
    s = Solver(gen_ggt(n, 0))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        s._assign(encode_lit(a, b, n), DECISION)
    with pytest.raises(SolverContractError, match="is falsified"):
        s._learn(trans_clause(0, 1, 2, n), (0, 1, 2), -1)


def test_first_decision_is_base_derivation_root_pivot():
    # empty trail, nothing blocked: the last step decides the root's pivot.
    # An unguarded instance has no blocked axioms by construction.
    from ggtkit.gtproofs import build_pn

    for n in (4, 5, 6):
        s = Solver(gen_gt(n))
        for cidx in range(len(s.clauses)):
            assert s._attach(cidx) is None
        assert s._propagate() is None
        lit = s._pick_decision()
        d = build_pn(n)
        assert abs(lit) == d.nodes[d.root].pivot


class _RootAgainstWalk(Solver):
    """A solver that checks each decision the closure and blocker steps
    leave to the last step against the walk it replaced, whose first test
    always decided: the root pivot's literal, as the root's first premise
    holds it, must be unassigned, and the decision is its negation."""

    def __init__(self, f):
        super().__init__(f)
        self.checked = 0
        self._blocked = True  # the closure step decided

    def _blocking_axiom(self, blockers):
        self._blocked = super()._blocking_axiom(blockers)
        return self._blocked

    def _pick_decision(self):
        self._blocked = True
        lit = super()._pick_decision()
        if self._blocked is None:
            skel = build_ppi_dag(minimal_rows(self.n, self._succ))
            root = skel.root
            first = list(skel.clauses())[skel.premises[root][0]]
            (want,) = (l for l in first if abs(l) == skel.pivot[root])
            assert self.lv[want] is None, (self.f.family, self.n, self.f.seed, len(self.trail))
            assert lit == -want, (self.f.family, self.n, self.f.seed, len(self.trail))
            self.checked += 1
        return lit


def test_last_decision_step_is_the_walks_first_test():
    checked = decided = 0
    for n in range(4, 11):
        for f in [gen_gt(n)] + [gen_ggt(n, seed) for seed in range(3)]:
            s = _RootAgainstWalk(f)
            assert s.solve().status == "UNSAT"
            checked += s.checked
            decided += s.stats.decisions
    assert decided > checked > 0, (decided, checked)


def test_an_unguarded_solve_builds_no_skeleton(monkeypatch):
    # no axiom of GT(n) is blocked, so its search needs no order derivation
    def refuse(*args):
        raise AssertionError("skeleton built for an unguarded instance")

    monkeypatch.setattr(solver_module, "build_ppi_dag", refuse)
    for n in range(4, 11):
        assert solve(gen_gt(n)).status == "UNSAT"


def test_a_guarded_solve_builds_one_skeleton_per_order(monkeypatch):
    built = []

    def counted(pi):
        built.append(pi)
        return build_ppi_dag(pi)

    monkeypatch.setattr(solver_module, "build_ppi_dag", counted)
    s = Solver(gen_ggt(8, 0))
    assert s.solve().status == "UNSAT"
    assert len(built) == len(set(built)) == len(s._pi_cache) > 1


def test_last_decision_step_needs_two_minimal_vertices():
    # x01, x02 and x03 leave one minimal vertex, whose minimality clause is
    # the derivation's root and falsified; left unpropagated, the trail
    # reaches the step, which has no pair to decide
    n = 4
    s = Solver(gen_gt(n))
    for j in (1, 2, 3):
        s._assign(encode_lit(0, j, n), DECISION)
    with pytest.raises(SolverContractError, match="fewer than two minimal vertices"):
        s._pick_decision()


def test_closure_decision_skips_a_pair_of_a_cycle():
    # GT(4) without T[0,1,2] holds the cycle 0 -> 1 -> 2 -> 0 with no
    # conflict; each closure candidate is the cycle's reversed pair, which
    # is already assigned, so none is decided
    n = 4
    f = gen_gt(n)
    cyclic = dataclasses.replace(f, clauses=tuple(c for c in f.clauses if c != trans_clause(0, 1, 2, n)))
    s = Solver(cyclic)
    for cidx in range(len(s.clauses)):
        assert s._attach(cidx) is None
    for a, b in ((0, 1), (1, 2), (2, 0)):
        s._assign(encode_lit(a, b, n), DECISION)
    assert s._propagate() is None
    assert s._closure_decision() is None


class _BlockerAudit(Solver):
    """Records blocked axioms; each must end up learned."""

    def __init__(self, f):
        super().__init__(f)
        self.blocked = []

    def _blocking_axiom(self, blockers):
        blocker = super()._blocking_axiom(blockers)
        if blocker is not None:
            self.blocked.append(min_first(*blocker[1]))
        return blocker


def test_blocking_axioms_get_learned():
    # step (3): branching on a blocked axiom's triangle learns it, unless a
    # closure decision redirects the branch first; most blocked triangles
    # must end up in the learned store
    for seed in (0, 1, 2):
        s = _BlockerAudit(gen_ggt(5, seed))
        result = s.solve()
        assert result.status == "UNSAT"
        blocked = set(s.blocked)
        if blocked:
            learned = blocked & s.learned_tris
            assert len(learned) * 2 >= len(blocked), (seed, sorted(blocked - learned))


def test_solve_leaves_gc_enabled(restore_gc):
    gc.enable()
    assert solve(gen_ggt(6, 0)).status == "UNSAT"
    assert gc.isenabled()


def test_solve_leaves_gc_disabled(restore_gc):
    gc.disable()
    assert solve(gen_ggt(6, 0)).status == "UNSAT"
    assert not gc.isenabled()


def test_solve_restores_gc_when_the_search_raises(restore_gc):
    # without its transitivity clauses GT(3) is satisfiable (a 3-cycle)
    f = gen_gt(3)
    satisfiable = dataclasses.replace(f, clauses=f.clauses[:3])
    gc.enable()
    with pytest.raises(SolverContractError, match="complete assignment found"):
        solve(satisfiable)
    assert gc.isenabled()


def test_a_search_that_fits_its_conflict_budget_finishes():
    # GGT(6), seed 0, takes 39 conflicts: a budget of 39 is enough, 38 is not
    f = gen_ggt(6, 0)
    assert solve(f, max_conflicts=39).stats.conflicts == 39
    s = Solver(f, max_conflicts=38)
    with pytest.raises(ConflictBudgetExceeded):
        s.solve()
    assert s.stats.conflicts == 38


def test_a_search_past_its_deadline_stops_after_one_conflict(restore_gc):
    gc.enable()
    s = Solver(gen_ggt(8, 0), deadline=0.0)
    with pytest.raises(TimeBudgetExceeded):
        s.solve()
    assert s.stats.conflicts == 1
    assert gc.isenabled()


def test_budget_errors_share_one_base_outside_the_builder():
    assert lr_engine.BudgetExceeded is BudgetExceeded
    assert lr_engine.TimeBudgetExceeded is TimeBudgetExceeded
    assert issubclass(ConflictBudgetExceeded, BudgetExceeded)
    assert issubclass(lr_engine.NodeBudgetExceeded, BudgetExceeded)


@pytest.mark.parametrize("n", (6, 7, 8))
def test_literal_indexed_assignment_matches_dict_reference(n):
    rng = random.Random(n)
    s = Solver(gen_ggt(n, 0))
    nvars = num_vars(n)
    lits = [l for v in range(1, nvars + 1) for l in (v, -v)]
    ref: dict[int, bool] = {}  # variable -> value
    for _ in range(400):
        if ref and (len(ref) == nvars or rng.random() < 0.45):
            lit, _ = s.trail.pop()
            s._unassign(lit)
            del ref[abs(lit)]
        else:
            var = rng.choice([v for v in range(1, nvars + 1) if v not in ref])
            lit = var if rng.random() < 0.5 else -var
            s._assign(lit, DECISION)
            ref[var] = lit > 0
        for l in lits:
            v = ref.get(abs(l))
            assert s.lv[l] is (None if v is None else v == (l > 0))
            assert s.lv[l] is not s.lv[-l] or s.lv[l] is None
        assert len(s.trail) == len(ref)
        succ = [0] * n
        for var, val in ref.items():
            i, j = decode_lit(var if val else -var, n)
            succ[i] |= 1 << j
        assert s._succ == succ


def test_pair_table_matches_decode_lit():
    for n in range(2, 17):
        s = Solver(gen_gt(n))
        assert s.pair is pair_table(n)  # shared, not built per solver
        assert len(s.pair) == 2 * num_vars(n) + 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert s.pair[encode_lit(i, j, n)] == (i, j)
