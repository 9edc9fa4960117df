from ggtkit.checker import INPUT_LEMMA, POOL, REGULAR, VALID, check_proof
from ggtkit.formulas import gen_ggt
from ggtkit.literals import triangle_of
from ggtkit.lr_engine import build_regrti_with_stats
from ggtkit.proofs import AXIOM, LEMMA


def test_regrti_small_all_profiles():
    for n in (4, 5, 6):
        for seed in (0, 1):
            d, st = build_regrti_with_stats(n, seed)
            f = gen_ggt(n, seed)
            report = check_proof(d, f, (VALID, REGULAR, POOL, INPUT_LEMMA))
            assert report.ok, (n, seed, report.lines()[:5])


def test_regrti_transitivity_lemmas_are_three_node_inputs():
    d, _ = build_regrti_with_stats(6, 0)
    n = 6
    for nd in d.nodes:
        if nd.rule != LEMMA:
            continue
        target = d.nodes[nd.target]
        if triangle_of(frozenset(target.clause), n) is None:
            continue
        if target.rule == AXIOM:
            continue
        p0, p1 = (d.nodes[p] for p in target.premises)
        assert {p0.rule, p1.rule} <= {AXIOM, LEMMA}, (
            "transitivity lemma target is not a height-one input derivation"
        )


def test_regrti_segment_budget():
    for n in (4, 6, 8):
        _, st = build_regrti_with_stats(n, 0)
        assert st.unfold_lines <= st.segment_budget


def test_regrti_deterministic():
    a, _ = build_regrti_with_stats(5, 2)
    b, _ = build_regrti_with_stats(5, 2)
    assert a.nodes == b.nodes
