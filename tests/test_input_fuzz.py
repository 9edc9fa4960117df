"""Seeded line-level edits of a formula file or its proof file: no `ggt`
command ends in a traceback.

Each round applies one to three edits to one of the two files (a token
replaced, or a line dropped, duplicated or swapped with another) and runs
every command that reads them through `cli.main`: `check` with all five
profiles, `refute` in the modes the family has, and `solve --trace`.
Each must return 0, 1 or 2 and raise nothing.  The edits are drawn
without looking at what they do, so none is chosen to step around a
failure.
"""

import random

import pytest

from ggtkit.checker import ALL_PROFILES
from ggtkit.cli import main
from ggtkit.dimacs import write_dimacs
from ggtkit.formulas import gen_ggt, gen_gt
from ggtkit.gtproofs import build_pn
from ggtkit.lr_engine import build_pool_with_stats
from ggtkit.proof_io import serialize_proof

ROUNDS = 300


def _ggt5():
    f = gen_ggt(5, 0)
    return write_dimacs(f), serialize_proof(build_pool_with_stats(f)[0]), ("pool", "regrti")


def _gt5():
    return write_dimacs(gen_gt(5)), serialize_proof(build_pn(5)), ("pn",)


FAMILIES = {"ggt": _ggt5, "gt": _gt5}


def _edit(lines: list[str], rng: random.Random) -> None:
    """One line-level edit of `lines`, in place."""
    what = rng.randrange(4)
    at = rng.randrange(len(lines))
    if what == 0:
        toks = lines[at].split()
        if toks:
            pool = [t for line in lines for t in line.split()]
            toks[rng.randrange(len(toks))] = rng.choice(
                (rng.choice(pool), str(rng.randint(-12, 12)), "x"))
            lines[at] = " ".join(toks)
    elif what == 1:
        del lines[at]
    elif what == 2:
        lines.insert(at, lines[at])
    else:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]


def _run_all(tmp_path, cnf_text: str, proof_text: str, modes) -> None:
    cnf, prf, out = tmp_path / "f.cnf", tmp_path / "p.prf", tmp_path / "out"
    cnf.write_text(cnf_text)
    prf.write_text(proof_text)
    commands = [["check", "-f", str(cnf), "-p", str(prf), "--profiles", ",".join(ALL_PROFILES)]]
    commands += [["refute", "--mode", mode, "-i", str(cnf), "-o", str(out)] for mode in modes]
    commands.append(["solve", "-i", str(cnf), "--trace", str(out)])
    for args in commands:
        assert main(args) in (0, 1, 2), (args[0], cnf_text, proof_text)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_changed_minimality_clause_ends_in_no_traceback(tmp_path, capsys, family):
    # line 4, vertex 1's minimality clause, loses a negation
    cnf_text, proof_text, modes = FAMILIES[family]()
    assert cnf_text.splitlines()[3] == "1 -5 -6 -7 0"
    _run_all(tmp_path, cnf_text.replace("\n1 -5 -6 -7 0\n", "\n1 5 -6 -7 0\n", 1), proof_text, modes)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_edited_inputs_end_in_no_traceback(tmp_path, capsys, family):
    cnf_text, proof_text, modes = FAMILIES[family]()
    rng = random.Random(f"fuzz-{family}")
    for _ in range(ROUNDS):
        texts = [cnf_text, proof_text]
        target = rng.randrange(2)
        lines = texts[target].splitlines()
        for _ in range(rng.randint(1, 3)):
            if lines:
                _edit(lines, rng)
        texts[target] = "\n".join(lines) + "\n"
        _run_all(tmp_path, *texts, modes)
