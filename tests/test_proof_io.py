import pytest

from ggtkit.checker import POOL, REGULAR, VALID, check_proof
from ggtkit.formulas import gen_ggt
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.literals import clause_key
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import ProofParseError, parse_proof, serialize_proof
from ggtkit.solver import solve
from tests.test_golden import seeded_order


def test_roundtrip_pn():
    d = build_pn(3)
    out = parse_proof(serialize_proof(d))
    assert out.nodes == d.nodes
    assert out.shape == d.shape and out.n == d.n


def test_roundtrip_pool_and_recheck():
    d = build_pool_with_stats(5, 0)[0]
    text = serialize_proof(d)
    out = parse_proof(text)
    assert out.nodes == d.nodes
    f = gen_ggt(5, 0)
    assert check_proof(out, f, (VALID, REGULAR, POOL)).ok
    assert serialize_proof(out) == text


def test_forward_lemma_rejected():
    text = "p proof gt n=2 shape=tree\n0 A 1 0\n1 L 2\n"
    with pytest.raises(ProofParseError):
        parse_proof(text)


def test_id_out_of_order_rejected():
    text = "p proof gt n=2 shape=tree\n1 A 1 0\n"
    with pytest.raises(ProofParseError) as info:
        parse_proof(text)
    assert "out of order" in str(info.value)


def test_dangling_premise_rejected():
    text = "p proof gt n=2 shape=dag\n0 A 1 0\n1 A -1 0\n2 R 1 0 5 0\n"
    with pytest.raises(ProofParseError):
        parse_proof(text)


def test_postorder_layout_enforced_for_trees():
    # premises exist and are earlier, but the right premise is not id-1
    text = (
        "p proof gt n=3 shape=tree\n"
        "0 A 1 0\n"
        "1 A -1 2 0\n"
        "2 A -2 0\n"
        "3 R 1 0 1 2 0\n"
    )
    with pytest.raises(ProofParseError) as info:
        parse_proof(text)
    assert "postorder" in str(info.value)


def test_trace_with_decision_markers_parses():
    f = gen_ggt(4, 1)
    result = solve(f, trace=True)
    text = serialize_proof(result.trace, result.decision_markers)
    assert any(line.startswith("d ") for line in text.splitlines())
    out = parse_proof(text)
    assert out.nodes == result.trace.nodes
    assert check_proof(out, f, (VALID,)).ok


def test_header_required():
    with pytest.raises(ProofParseError):
        parse_proof("0 A 1 0\n")


@pytest.mark.parametrize("numbers, message", [
    ("n=six", "line 1: bad n in header 'six'"),
    ("n=2 seed=1x", "line 1: bad seed in header '1x'"),
])
def test_malformed_header_number_rejected(numbers, message):
    text = f"p proof gt {numbers} shape=tree\n0 A 1 0\n"
    with pytest.raises(ProofParseError) as info:
        parse_proof(text)
    assert str(info.value) == message


def test_malformed_lemma_target_rejected():
    text = "p proof gt n=2 shape=tree\n0 A 1 0\n1 L x0\n"
    with pytest.raises(ProofParseError) as info:
        parse_proof(text)
    assert str(info.value) == "line 3: bad lemma target 'x0'"


def test_second_header_rejected():
    # a header after node 9 would otherwise switch the shape to dag, and with
    # it off the postorder check, and replace n and the seed
    lines = serialize_proof(build_pool_with_stats(5, 0)[0]).splitlines()
    assert lines[0] == "p proof ggt n=5 seed=0 shape=tree"
    lines.insert(11, "p proof ggt n=7 seed=9 shape=dag")
    with pytest.raises(ProofParseError) as info:
        parse_proof("\n".join(lines) + "\n")
    assert str(info.value) == "line 12: second proof header; the first is line 1"


def test_repeated_literal_rejected():
    # kept, the repeat would widen the clause and re-serialize non-canonically
    text = serialize_proof(build_pool_with_stats(5, 0)[0])
    lines = text.splitlines()
    assert lines[1] == "0 A -2 8 -9 10 0"
    for bad in ("0 A -2 -2 8 -9 10 0", "0 A -2 8 -9 10 8 0"):
        lines[1] = bad
        with pytest.raises(ProofParseError) as info:
            parse_proof("\n".join(lines) + "\n")
        assert str(info.value) == "line 2: duplicate literal in clause"


def _canonical_producers():
    for n in range(4, 11):
        yield build_pn(n)
        for seed in range(3):
            yield build_ppi(n, seeded_order(n, seed))
    for n in range(4, 10):
        for seed in range(3):
            yield build_pool_with_stats(n, seed)[0]
            yield build_regrti_with_stats(n, seed)[0]
            yield solve(gen_ggt(n, seed), trace=True).trace


def test_every_producer_stores_clauses_in_clause_key_order():
    # serialize_proof writes each clause as stored, so every producer, the
    # parser included, must store it sorted
    count = 0
    for d in _canonical_producers():
        for out in (d, parse_proof(serialize_proof(d))):
            for nd in out.nodes:
                assert nd.clause == clause_key(nd.clause), (d.family, d.n, d.seed, nd.nid)
                count += 1
    assert count > 10_000


def test_parsed_clauses_are_sorted_whatever_the_text_order():
    text = "p proof gt n=3 shape=dag\n0 A 3 -2 0\n1 A 2 1 0\n2 R 2 1 0 3 1 0\n"
    assert [nd.clause for nd in parse_proof(text).nodes] == [(-2, 3), (1, 2), (1, 3)]
