import random

import pytest

from ggtkit.formulas import gen_ggt
from ggtkit.literals import encode_lit, trans_clause
from ggtkit.proofs import (
    INFERENCE_RULES,
    LEMMA,
    RESOLVE,
    W_RESOLVE,
    ProofNode,
    RuleError,
    apply_rule,
    resolve_on_var,
)


def test_unit_contradiction():
    assert apply_rule(RESOLVE, frozenset({1}), frozenset({-1}), 1) == frozenset()


def test_guarded_pair_resolves_to_transitivity():
    n = 5
    f = gen_ggt(n, 0)
    t = trans_clause(0, 1, 2, n)
    g = f.guard_map[(0, 1, 2)]
    assert apply_rule(RESOLVE, t | {g}, t | {-g}, g) == t


def test_merge_through_identification():
    # {x10, x20} resolved with {-x01, -x12, -x20} on x20 gives {x10, -x12}:
    # the literal -x01 merges with x10.
    n = 3
    x10 = encode_lit(1, 0, n)
    x20 = encode_lit(2, 0, n)
    nx01 = -encode_lit(0, 1, n)
    nx12 = -encode_lit(1, 2, n)
    nx20 = -encode_lit(2, 0, n)
    assert x10 == nx01
    out = apply_rule(RESOLVE, frozenset({x10, x20}), frozenset({nx01, nx12, nx20}), x20)
    assert out == frozenset({x10, nx12})


def test_w_resolution_phantom_pivot():
    assert apply_rule(W_RESOLVE, frozenset({5}), frozenset({6}), 2) == frozenset({5, 6})


def test_w_resolution_one_side():
    assert apply_rule(W_RESOLVE, frozenset({2, 5}), frozenset({6}), 2) == frozenset({5, 6})


def test_no_degenerate_rule():
    # the inferences are plain and w-resolution; degenerate steps are not derivations
    assert INFERENCE_RULES == (RESOLVE, W_RESOLVE)
    with pytest.raises(RuleError) as info:
        apply_rule("D", frozenset({1, 4}), frozenset({5}), 1)
    assert str(info.value) == "unknown rule mode 'D'"


def test_side_conditions():
    with pytest.raises(RuleError):
        apply_rule(RESOLVE, frozenset({-1, 2}), frozenset({-1}), 1)  # -x in A
    with pytest.raises(RuleError):
        apply_rule(RESOLVE, frozenset({1}), frozenset({1, 3}), 1)  # x in B
    with pytest.raises(RuleError):
        apply_rule(RESOLVE, frozenset({2}), frozenset({-1}), 1)  # pivot missing from A
    with pytest.raises(RuleError):
        apply_rule(RESOLVE, frozenset({1}), frozenset({2}), 1)  # pivot missing from B


def test_tautological_resolvent_rejected():
    with pytest.raises(RuleError):
        apply_rule(RESOLVE, frozenset({1, 2}), frozenset({-1, -2}), 1)


def test_tautological_resolvent_error_names_the_first_clashing_literal():
    # the literal named is the first of the resolvent, in set iteration order
    cases = [
        ((RESOLVE, frozenset({1, 2}), frozenset({-1, -2}), 1), "contains 2 and -2"),
        ((W_RESOLVE, frozenset({3, -7}), frozenset({7, 5}), 1), "contains -7 and 7"),
        ((RESOLVE, frozenset({4, 9, -6}), frozenset({-4, -9, 6}), 4), "contains 9 and -9"),
    ]
    for args, tail in cases:
        with pytest.raises(RuleError) as info:
            apply_rule(*args)
        assert str(info.value) == f"tautological resolvent: {tail}"


def test_resolvent_never_contains_pivot():
    rng = random.Random(0)
    for _ in range(300):
        pivot = rng.randrange(1, 7)
        a = {pivot} | {rng.choice([v, -v]) for v in rng.sample(range(1, 10), 3)}
        b = {-pivot} | {rng.choice([v, -v]) for v in rng.sample(range(1, 10), 3)}
        a.discard(-pivot)
        b.discard(pivot)
        try:
            out = apply_rule(RESOLVE, frozenset(a), frozenset(b), pivot)
        except RuleError:
            continue
        assert pivot not in out and -pivot not in out


def test_resolve_on_var_orients():
    a, b = frozenset({-2, 3}), frozenset({2, 4})
    assert resolve_on_var(RESOLVE, a, b, 2) == frozenset({3, 4})
    with pytest.raises(RuleError):
        resolve_on_var(RESOLVE, frozenset({3}), frozenset({4}), 2)


def test_proof_node_is_slotted_and_compares_field_by_field():
    node = ProofNode(3, RESOLVE, (2, -4), (1, 2), 5)
    assert not hasattr(node, "__dict__")
    assert node == ProofNode(3, RESOLVE, (2, -4), (1, 2), 5)
    assert node != ProofNode(3, RESOLVE, (2, -4), (1, 2), 6)
    assert node != ProofNode(3, RESOLVE, (2, -4), (2, 1), 5)
    assert ProofNode(4, LEMMA, (2,), target=1) == ProofNode(4, LEMMA, (2,), (), None, 1)
    assert repr(node) == (
        "ProofNode(nid=3, rule='R', clause=(2, -4), premises=(1, 2), pivot=5, target=None)"
    )
