import dataclasses
import gc
import random

import pytest

from tests.oracles import is_satisfiable
from ggtkit.checker import VALID, check_proof
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi
from ggtkit.bpo import Bpo
from ggtkit.literals import decode_lit, encode_lit, min_first, num_vars, pair_table, triangle_of
from ggtkit.propagation import unit_propagate
from ggtkit.solver import DECISION, Solver, SolverContractError, UnsupportedFamilyError, solve


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


def test_tie_seed_changes_search_not_verdict():
    f = gen_ggt(6, 0)
    base = solve(f)
    shuffled = solve(f, tie_seed=5)
    assert base.status == shuffled.status == "UNSAT"
    assert solve(f, tie_seed=5).stats == shuffled.stats  # still deterministic


def test_no_restarts_and_no_skipped_decisions_on_family():
    for n in (4, 6, 8):
        for seed in (0, 1):
            result = solve(gen_ggt(n, seed))
            assert result.stats.restarts == 0
            assert result.stats.skipped_decisions == 0


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
        clauses = [frozenset(c) for c in self.clauses]
        state = unit_propagate(clauses, {lit for lit, _ in self.trail})
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
    assert s._as_set[s.n_original:] == [trans_clause(0, 1, 2, n)]
    assert s.lv[encode_lit(0, 2, n)] is True  # the flip follows the closure


def test_learning_a_falsified_clause_breaks_the_contract():
    # an unwind never learns a clause its flip leaves falsified; _learn checks
    from ggtkit.literals import encode_lit, trans_clause

    n = 4
    s = Solver(gen_ggt(n, 0))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        s._assign(encode_lit(a, b, n), DECISION)
    with pytest.raises(SolverContractError, match="is falsified"):
        s._learn(trans_clause(0, 1, 2, n), -1)


def test_first_decision_is_base_derivation_root_pivot():
    # empty trail, nothing blocked: the walk starts at the derivation root.
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
    # step (4): branching on a blocked axiom's triangle learns it, unless a
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
