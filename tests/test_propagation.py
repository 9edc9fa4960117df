import random

import pytest

from tests.greedy_reference import scan_unit_propagate
from ggtkit.formulas import gen_ggt, gen_gt
from ggtkit.literals import encode_lit, trans_clause
from ggtkit.propagation import (
    ClauseIndex,
    InconsistentAssignment,
    OracleScaleError,
    replay_conflict,
    semantic_entails,
    unit_propagate,
)


def test_gt2_conflicts_immediately():
    f = gen_gt(2)
    result = unit_propagate(list(f.clauses), ())
    assert result.conflict is not None


def test_ggt4_no_forced_literals():
    f = gen_ggt(4, 0)
    assert all(len(c) >= 2 for c in f.clauses)
    result = unit_propagate(list(f.clauses), ())
    assert result.conflict is None and not result.implications


def test_two_step_guard_propagation():
    n = 5
    t = trans_clause(0, 1, 2, n)
    g = encode_lit(3, 4, n)
    clauses = [t | {g}, t | {-g}]
    assignment = {-l for l in t}  # falsify the transitivity part
    result = unit_propagate(clauses, assignment)
    assert result.conflict is not None
    assert len(result.implications) == 1  # the guard literal was forced first


def test_replay_builds_input_derivation_of_transitivity():
    n = 5
    t = trans_clause(0, 1, 2, n)
    g = encode_lit(3, 4, n)
    clauses = [t | {g}, t | {-g}]
    result = unit_propagate(clauses, {-l for l in t})
    clause, chain = replay_conflict(clauses, result)
    assert clause == t
    assert len(chain) == 1


def test_inconsistent_assignment_rejected():
    with pytest.raises(InconsistentAssignment):
        unit_propagate([frozenset({1})], {2, -2})


def test_semantic_entailment_examples():
    f3 = list(gen_gt(3).clauses)
    assert semantic_entails(f3, frozenset(), 3)  # GT3 |= empty clause
    assert not semantic_entails(f3[1:], frozenset(), 3)  # dropping a clause breaks it
    x01 = frozenset({encode_lit(0, 1, 3)})
    assert not semantic_entails([], x01, 3)


def test_gt3_does_not_entail_single_literal():
    f3 = list(gen_gt(3).clauses)
    # unsatisfiable sets entail everything; check a satisfiable subset instead
    assert semantic_entails(f3, frozenset({encode_lit(0, 1, 3)}), 3)
    sat_subset = f3[:4]
    assert not semantic_entails(sat_subset, frozenset({encode_lit(0, 1, 3)}), 3)


def test_oracle_refuses_large_n():
    with pytest.raises(OracleScaleError):
        semantic_entails([], frozenset(), 6)


def _random_clauses(rng: random.Random, nvars: int, count: int) -> list[frozenset]:
    clauses = []
    for _ in range(count):
        vs = rng.sample(range(1, nvars + 1), min(nvars, rng.choice((1, 2, 2, 3, 3, 3, 4))))
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    if rng.random() < 0.05:
        clauses.append(frozenset())
    return clauses


def test_unit_propagate_matches_scan_reference():
    rng = random.Random(11)
    conflicts = 0
    for trial in range(600):
        nvars = rng.randrange(3, 12)
        clauses = _random_clauses(rng, nvars, rng.randrange(0, 3 * nvars))
        vs = rng.sample(range(1, nvars + 1), rng.randrange(0, nvars // 2 + 1))
        assignment = {v if rng.random() < 0.5 else -v for v in vs}
        for store in (clauses, ClauseIndex(clauses)):
            got = unit_propagate(store, assignment)
            ref = scan_unit_propagate(clauses, assignment)
            assert (got.conflict is None) == (ref.conflict is None), trial
            if got.conflict is None:
                assert got.assignment == ref.assignment, trial
                continue
            # the reported clause is falsified, and replaying its reasons
            # refutes a part of the initial assignment
            assert all(-lit in got.assignment for lit in clauses[got.conflict]), trial
            learned, _ = replay_conflict(clauses, got)
            assert all(-lit in assignment for lit in learned), trial
        conflicts += got.conflict is not None
    assert 100 < conflicts < 500


def test_clause_index_grows_between_calls():
    index = ClauseIndex([frozenset({1, 2}), frozenset({-2, 3})])
    assert unit_propagate(index, {-1}).conflict is None
    index.add(frozenset({-3, -2}))
    result = unit_propagate(index, {-1})
    assert result.conflict is not None and len(index.clauses) == 3
    with pytest.raises(InconsistentAssignment):
        unit_propagate(index, {3, -3})
