"""The verify path agrees with the straightforward reference passes.

`check_proof` must give the reports, and `parse_proof` the derivations,
errors and line numbers, of tests/verify_reference.py: on built proofs,
on hand-built nodes that reach every rule message, and on seeded
corruptions of built proofs and of their text.
"""

import dataclasses
import random

import pytest

from ggtkit.checker import ALL_PROFILES, REGULAR, VALID, check_proof
from ggtkit.formulas import FormulaInstance, gen_ggt, gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import ProofParseError, parse_proof, serialize_proof
from ggtkit.proofs import (
    AXIOM,
    DAG,
    LEMMA,
    RESOLVE,
    W_RESOLVE,
    Derivation,
    ProofNode,
    ProofStructureError,
)
from ggtkit.solver import solve
from tests import verify_reference
from tests.test_golden import seeded_order


def _producers():
    """(label, proof, formula) for every producer over small sizes."""
    for n in range(4, 10):
        yield f"pn{n}", build_pn(n), gen_gt(n)
        for seed in range(3):
            pi = seeded_order(n, seed)
            yield f"ppi{n}-{seed}", build_ppi(n, pi), gen_gt_pi(n, pi)
    for n in range(4, 10):
        for seed in range(3):
            f = gen_ggt(n, seed)
            yield f"pool{n}-{seed}", build_pool_with_stats(f)[0], f
            yield f"regrti{n}-{seed}", build_regrti_with_stats(f)[0], f
            yield f"dpll{n}-{seed}", solve(f, trace=True).trace, f


PRODUCED = list(_producers())


def _verdict(check, d, f, profiles):
    """The report lines, or the structure error raised instead."""
    try:
        return check(d, f, profiles).lines()
    except ProofStructureError as exc:
        return f"ProofStructureError: {exc}"


def _same_as_reference(d, f, profiles):
    got = _verdict(check_proof, d, f, profiles)
    assert got == _verdict(verify_reference.reference_report, d, f, profiles)
    return got


def test_built_proofs_get_the_reference_report():
    for label, d, f in PRODUCED:
        lines = _same_as_reference(d, f, ALL_PROFILES)
        assert lines[0] == "valid: PASS", label


def _mutants(d: Derivation, rng: random.Random, count: int):
    """Seeded single-node corruptions: pivot, clause, premises or target."""
    nodes = d.nodes
    nvars = max((abs(l) for nd in nodes for l in nd.clause), default=1) + 1
    for _ in range(count):
        nd = rng.choice(nodes)
        kind = rng.randrange(6)
        if kind == 0 and nd.premises:
            nd = dataclasses.replace(nd, pivot=rng.randint(-1, nvars))
        elif kind == 1 and nd.clause:
            drop = rng.randrange(len(nd.clause))
            nd = dataclasses.replace(nd, clause=nd.clause[:drop] + nd.clause[drop + 1:])
        elif kind == 2:
            nd = dataclasses.replace(nd, clause=nd.clause + (rng.choice((-1, 1)) * rng.randint(1, nvars),))
        elif kind == 3 and nd.premises:
            nd = dataclasses.replace(nd, premises=nd.premises[::-1])
        elif kind == 4 and nd.premises:
            nd = dataclasses.replace(nd, clause=nodes[nd.premises[0]].clause)
        elif kind == 5 and nd.rule == LEMMA:
            nd = dataclasses.replace(nd, target=rng.randrange(nd.nid))
        elif kind == 5 and nd.premises:
            nd = dataclasses.replace(nd, rule=rng.choice((RESOLVE, W_RESOLVE)))
        else:
            nd = dataclasses.replace(nd, clause=nd.clause[::-1])
        out = list(nodes)
        out[nd.nid] = nd
        yield dataclasses.replace(d, nodes=tuple(out))


def test_corrupted_proofs_get_the_reference_report():
    rng = random.Random(5)
    failed = 0
    for label, d, f in PRODUCED:
        if d.n > 7:
            continue
        for mutant in _mutants(d, rng, 8):
            lines = _same_as_reference(mutant, f, ALL_PROFILES)
            failed += isinstance(lines, list) and lines[0] != "valid: PASS"
    assert failed > 150  # of 416 mutants; the rest break structure or nothing


def _dag(*nodes, formula):
    """A dag of (rule, clause, premises, pivot, target) rows, root last."""
    built = tuple(ProofNode(i, rule, clause, premises, pivot, target)
                  for i, (rule, clause, premises, pivot, target) in enumerate(nodes))
    f = FormulaInstance(family="gt", n=4, clauses=tuple(frozenset(c) for c in formula))
    return Derivation(built, root=len(built) - 1, shape=DAG, family="gt", n=4), f


def _step(a, b, rule, pivot, clause):
    """Axioms a and b, and one inference on them."""
    return _dag((AXIOM, a, (), None, None), (AXIOM, b, (), None, None),
                (rule, clause, (0, 1), pivot, None), formula=(a, b))


_BAD_STEP = "clause is not the resolvent of its premises"

STEPS = {
    "negated pivot in A": (
        _step((1, -1, 2), (-1, 3), RESOLVE, 1, (2, 3)), "premise A contains the negated pivot -1"),
    "pivot in B": (_step((1, 2), (-1, 1, 3), RESOLVE, 1, (2, 3)), "premise B contains the pivot 1"),
    "pivot missing from A": (_step((2,), (-1, 3), RESOLVE, 1, (2, 3)), "pivot 1 missing from premise A"),
    "pivot missing from B": (_step((1, 2), (3,), RESOLVE, 1, (2, 3)), "pivot -1 missing from premise B"),
    "pivot missing from both": (
        _step((2,), (3,), RESOLVE, 1, (2, 3)), "pivot variable 1 missing from both premises"),
    "negative pivot": (
        _step((-1, 2), (1, 3), RESOLVE, -1, (2, 3)), "pivot variable must be positive, got -1"),
    "zero pivot": (_step((1, 2), (-1, 3), RESOLVE, 0, (2, 3)), "pivot variable must be positive, got 0"),
    "tautological resolvent": (
        _step((1, 2), (-1, -2), RESOLVE, 1, (2, -2)), "tautological resolvent: contains "),
    "clash carried from a premise": (
        _step((1, 2, -2), (-1, 3), RESOLVE, 1, (2, -2, 3)), "tautological resolvent: contains "),
    "wrong resolvent": (_step((1, 2), (-1, 3), RESOLVE, 1, (2,)), _BAD_STEP),
    "extra literal": (_step((1, 2), (-1, 3), RESOLVE, 1, (2, 3, 4)), _BAD_STEP),
    "pivot kept": (_step((1, 2), (-1, 3), RESOLVE, 1, (1, 2, 3)), _BAD_STEP),
    "resolution": (_step((1, 2), (-1, 3), RESOLVE, 1, (2, 3)), None),
    "mirrored premises": (_step((-1, 3), (1, 2), RESOLVE, 1, (2, 3)), None),
    "unsorted clause tuple": (_step((1, 2), (-1, 3), RESOLVE, 1, (3, 2)), None),
    "repeated literal in clause tuple": (_step((1, 2), (-1, 3), RESOLVE, 1, (2, 3, 3)), None),
    "w-resolution on a phantom pivot": (_step((2,), (-1, 3), W_RESOLVE, 1, (2, 3)), None),
    "w-resolution, wrong clause": (_step((2,), (-1, 3), W_RESOLVE, 1, (2,)), _BAD_STEP),
    "w-resolution, negated pivot in A": (
        _step((1, -1, 2), (3,), W_RESOLVE, 1, (2, 3)), "premise A contains the negated pivot -1"),
    "lemma with its target's set, unsorted": (
        _dag((AXIOM, (2, 3), (), None, None), (LEMMA, (3, 2), (), None, 0),
             (AXIOM, (-2,), (), None, None), (RESOLVE, (3,), (1, 2), 2, None),
             formula=((2, 3), (-2,))), None),
    "lemma with another set": (
        _dag((AXIOM, (2, 3), (), None, None), (LEMMA, (2,), (), None, 0),
             (AXIOM, (-2,), (), None, None), (RESOLVE, (), (1, 2), 2, None),
             formula=((2, 3), (-2,))), "lemma clause differs from target 0"),
    "clash carried through a lemma": (
        _dag((AXIOM, (1, 2, -2), (), None, None), (LEMMA, (1, 2, -2), (), None, 0),
             (AXIOM, (-1, 3), (), None, None), (RESOLVE, (2, -2, 3), (1, 2), 1, None),
             formula=((1, 2, -2), (-1, 3))), "tautological resolvent: contains "),
    "lemma before its target": (
        _dag((AXIOM, (1,), (), None, None), (LEMMA, (-1,), (), None, 2),
             (AXIOM, (-1,), (), None, None), (RESOLVE, (), (0, 1), 1, None),
             formula=((1,), (-1,))), None),
    # the formulas of these steps have 6 variables: literals past 6, the
    # literal 0 and repeated literals have no mask and take the set path
    "literal past nvars": (_step((1, 7), (-1, 3), RESOLVE, 1, (3, 7)), None),
    "negative literal past nvars": (_step((1, -7), (-1, 3), RESOLVE, 1, (-7, 3)), None),
    # a literal table indexed from its end would read -8 as the literal 5
    "negative literal past nvars, not the resolvent": (
        _step((1, -8), (-1, 3), RESOLVE, 1, (3, 5)), _BAD_STEP),
    "negative literal past nvars, clause": (_step((1, 5), (-1, 3), RESOLVE, 1, (-8, 3)), _BAD_STEP),
    # 0 is its own negation
    "literal 0 in a premise": (
        _step((1, 0), (-1, 3), RESOLVE, 1, (0, 3)), "tautological resolvent: contains 0 and 0"),
    "literal 0 in the clause only": (_step((1, 2), (-1, 3), RESOLVE, 1, (0, 2, 3)), _BAD_STEP),
    "repeated literal in a premise": (_step((1, 2, 2), (-1, 3), RESOLVE, 1, (2, 3)), None),
    # summed bits would carry 2 + 2 into -2: the count of bits rules it out
    "repeated literal in a premise, carried": (
        _step((1, 2, 2), (-1, 3), RESOLVE, 1, (-2, 3)), _BAD_STEP),
    "repeated literal in the clause, carried": (
        _step((1, -2), (-1, 3), RESOLVE, 1, (2, 2, 3)), _BAD_STEP),
    "repeated pivot in a premise": (_step((1, 1, 2), (-1, 3), RESOLVE, 1, (2, 3)), None),
    "pivot past nvars": (_step((7, 2), (-7, 3), RESOLVE, 7, (2, 3)), None),
    "huge pivot": (
        _step((1, 2), (-1, 3), RESOLVE, 4_000_000_000, (2, 3)),
        "pivot variable 4000000000 missing from both premises"),
    "w-resolution with both pivot literals": (_step((1, 2), (-1, 3), W_RESOLVE, 1, (2, 3)), None),
    "w-resolution, pivot kept": (_step((1, 2), (-1, 3), W_RESOLVE, 1, (1, 2, 3)), _BAD_STEP),
    "axiom not in the formula": (
        _dag((AXIOM, (1,), (), None, None), (AXIOM, (-1, 5), (), None, None),
             (RESOLVE, (5,), (0, 1), 1, None), formula=((1,), (-1,))),
        "axiom clause not in the formula"),
}


@pytest.mark.parametrize("case", STEPS)
def test_every_rule_message_matches_the_reference(case):
    (d, f), message = STEPS[case]
    lines = _same_as_reference(d, f, (VALID,))
    if message is None:
        assert lines == ["valid: PASS"]
    else:
        assert len(lines) == 2 and lines[1].startswith(f"[valid] node ") and message in lines[1]


def test_clauses_over_more_than_64_variables_get_the_reference_report():
    # GT(12) has 66 variables, so its literal masks need more than one word
    rng = random.Random(12)
    pi = seeded_order(12, 1)
    for d, f in ((build_pn(12), gen_gt(12)), (build_ppi(12, pi), gen_gt_pi(12, pi))):
        assert f.nvars > 64
        assert _same_as_reference(d, f, (VALID, REGULAR)) == ["valid: PASS", "regular: PASS"]
        for mutant in _mutants(d, rng, 40):
            _same_as_reference(mutant, f, (VALID, REGULAR))


# --- parsing ---------------------------------------------------------------

def _texts():
    f = gen_ggt(5, 0)
    result = solve(gen_ggt(5, 1), trace=True)
    return {
        "pool": serialize_proof(build_pool_with_stats(f)[0]),
        "regrti": serialize_proof(build_regrti_with_stats(gen_ggt(5, 1))[0]),
        "trace": serialize_proof(result.trace, result.decision_markers),
        "pn": serialize_proof(build_pn(5)),
    }


TEXTS = _texts()


def _outcome(parse, text):
    try:
        return parse(text)
    except ProofParseError as exc:
        return (str(exc), exc.line_no)


def _node_lines(lines, rules="ARWL", min_lits=0):
    out = []
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) > 1 and parts[0].isdigit() and parts[1] in rules:
            start = 2 if parts[1] == "A" else 5
            if parts[1] == "L" or len(parts) - 1 - start >= min_lits:
                out.append(i)
    return out


def _edit_literals(edit, min_lits=1):
    """A corruption that rewrites the literal tokens of one clause line."""
    def corrupt(lines, rng):
        i = rng.choice(_node_lines(lines, "ARW", min_lits))
        parts = lines[i].split()
        start = 2 if parts[1] == "A" else 5
        lits = edit(parts[start:-1], rng)
        lines[i] = " ".join(parts[:start] + lits + ["0"])
    return corrupt


def _insert(make):
    def corrupt(lines, rng):
        lines.insert(rng.randrange(1, len(lines) + 1), make(rng))
    return corrupt


def _drop_terminator(lines, rng):
    i = rng.choice(_node_lines(lines, "ARW", 2))
    lines[i] = lines[i].rsplit(" ", 1)[0]


def _bad_token(lines, rng):
    i = rng.randrange(len(lines))
    parts = lines[i].split()
    j = rng.randrange(len(parts))
    parts[j] = rng.choice(("x", "1.5", "", "--2", "0x3")) + parts[j]
    lines[i] = " ".join(parts)


def _tabs(lines, rng):
    # node lines only: a tab after `d` or `p` makes a bad node id
    for i in rng.sample(_node_lines(lines), 5):
        lines[i] = lines[i].replace(" ", rng.choice(("\t", " \t ", "  ")))


def _retarget(lines, rng):
    i = rng.choice(_node_lines(lines, "RWL"))
    parts = lines[i].split()
    nid = int(parts[0])
    slot = 2 if parts[1] == "L" else rng.choice((3, 4))
    parts[slot] = str(rng.randrange(max(nid, 1)))
    lines[i] = " ".join(parts)


def _swap(lines, rng):
    i = rng.randrange(1, len(lines) - 1)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


def _delete(lines, rng):
    del lines[rng.randrange(len(lines))]


def _header(lines, rng):
    lines[0] = rng.choice((
        lines[0].replace(" ", "\t", 1),
        lines[0].replace("shape=", "shape=forest"),
        lines[0].rsplit(" ", 1)[0],
        lines[0].replace("proof", "proof x", 1),
        lines[0] + " n=x",
    ))


def _negate_first(lits, rng):
    first = lits[0]
    return lits + [first[1:] if first.startswith("-") else "-" + first]


CORRUPTIONS = {
    # accepted, and the same derivation as the clean text
    "unsorted clause": (_edit_literals(lambda lits, rng: lits[::-1], 2), "same"),
    "shuffled clause": (_edit_literals(lambda lits, rng: rng.sample(lits, len(lits)), 2), "same"),
    "signed and padded literals": (
        _edit_literals(lambda lits, rng: [("+" + t if t[0] != "-" else "-0" + t[1:]) for t in lits]),
        "same"),
    "c lines": (_insert(lambda rng: rng.choice(("c note", "cx", "  c indented", "c"))), "same"),
    "decision marker": (_insert(lambda rng: f"d {rng.randint(-9, 9)}"), "same"),
    "blank lines": (_insert(lambda rng: rng.choice(("", "   ", "\t", "\x0c"))), "same"),
    "tab-separated tokens": (_tabs, "same"),
    # accepted as another derivation
    "tautological clause": (_edit_literals(_negate_first), "other"),
    # rejected with a line number
    "repeated literal": (
        _edit_literals(lambda lits, rng: lits + [rng.choice(lits)]), "duplicate literal in clause"),
    "0 inside a clause": (
        _edit_literals(lambda lits, rng: lits[:1] + ["0"] + lits[1:]), "literal 0 inside clause"),
    "no terminator": (_drop_terminator, "literal list not terminated by 0"),
    "d and a tab": (_insert(lambda rng: f"d\t{rng.randint(1, 9)}"), "bad node id 'd'"),
    # anything, as long as it is what the reference does
    "non-integer token": (_bad_token, None),
    "retargeted premise or lemma": (_retarget, None),
    "swapped lines": (_swap, None),
    "deleted line": (_delete, None),
    "header": (_header, None),
}


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupted_text_parses_as_the_reference_does(kind):
    corrupt, expect = CORRUPTIONS[kind]
    for label, text in TEXTS.items():
        clean = parse_proof(text)
        for seed in range(6):
            lines = text.splitlines()
            corrupt(lines, random.Random(f"{kind}:{label}:{seed}"))
            bad = "\n".join(lines) + "\n"
            got = _outcome(parse_proof, bad)
            assert got == _outcome(verify_reference.parse, bad), (label, seed)
            if expect == "same":
                assert got == clean, (label, seed)
            elif expect == "other":
                assert isinstance(got, Derivation) and got != clean, (label, seed)
            elif expect is not None:
                assert isinstance(got, tuple) and got[0].endswith(expect) and got[1] > 0, (label, seed)


@pytest.mark.parametrize("text", ["", "c only\n", "p proof gt n=2 shape=dag\n", "0 A 1 0\n",
                                  "p proof gt n=2 shape=tree\n0 A 1 0\n1 A -1 0\n2 R 1 1 1 0\n",
                                  "p proof gt n=2 shape=tree\n0 A 1 0\n1 R 1 0 0 0\n",
                                  "p proof gt n=2 shape=tree\nc x\n0 A 1 0\n1 A -1 0\nd 1\n2 R 1 1 1 0\n"])
def test_small_texts_parse_as_the_reference_does(text):
    assert _outcome(parse_proof, text) == _outcome(verify_reference.parse, text)
