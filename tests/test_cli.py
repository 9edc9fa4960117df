import argparse
import dataclasses

import pytest

import ggtkit.cli
from ggtkit.bench import ARTIFACTS
from ggtkit.checker import ALL_PROFILES, SELF_CHECK
from ggtkit.cli import main, make_parser
from ggtkit.formulas import gen_ggt
from ggtkit.literals import clause_key, trans_clause
from ggtkit.proofs import RESOLVE


def test_pipeline_gen_refute_check(tmp_path):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    assert main(["gen", "--family", "ggt", "--n", "6", "--seed", "1", "-o", str(cnf)]) == 0
    assert main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)]) == 0
    assert main(
        ["check", "-f", str(cnf), "-p", str(prf), "--profiles", "valid,regular,pool"]
    ) == 0


def test_regrti_pipeline(tmp_path):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    assert main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)]) == 0
    assert main(["refute", "--mode", "regrti", "-i", str(cnf), "-o", str(prf)]) == 0
    assert main(
        ["check", "-f", str(cnf), "-p", str(prf),
         "--profiles", "valid,regular,pool,input_lemma"]
    ) == 0


def test_pn_pipeline(tmp_path):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    assert main(["gen", "--family", "gt", "--n", "6", "-o", str(cnf)]) == 0
    assert main(["refute", "--mode", "pn", "-i", str(cnf), "-o", str(prf)]) == 0
    assert main(["check", "-f", str(cnf), "-p", str(prf), "--profiles", "valid,regular"]) == 0


def test_corrupted_pivot_detected(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "4", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = prf.read_text().splitlines()
    for idx, line in enumerate(lines):
        parts = line.split()
        if len(parts) > 2 and parts[1] == "R":
            parts[2] = "1" if parts[2] != "1" else "2"
            lines[idx] = " ".join(parts)
            corrupted_node = parts[0]
            break
    prf.write_text("\n".join(lines) + "\n")
    code = main(["check", "-f", str(cnf), "-p", str(prf), "--profiles", "valid"])
    assert code == 1
    out = capsys.readouterr().out
    assert f"node {corrupted_node}" in out


def test_solve_and_trace(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    trc = tmp_path / "t.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "2", "-o", str(cnf)])
    assert main(["solve", "-i", str(cnf), "--trace", str(trc)]) == 0
    out = capsys.readouterr().out
    assert "UNSAT" in out and "restarts=0" in out
    assert main(["check", "-f", str(cnf), "-p", str(trc), "--profiles", "valid"]) == 0


def test_solve_trace_self_check_blocks_corrupted_trace(tmp_path, monkeypatch, capsys):
    real_solve = ggtkit.cli.solve

    def corrupted_solve(inst, **kwargs):
        result = real_solve(inst, **kwargs)
        nodes = list(result.trace.nodes)
        nd = next(nd for nd in nodes if nd.rule == RESOLVE)
        used = {abs(l) for p in nd.premises for l in nodes[p].clause}
        free = min(set(range(1, inst.nvars + 1)) - used)
        nodes[nd.nid] = dataclasses.replace(nd, pivot=free)
        trace = dataclasses.replace(result.trace, nodes=tuple(nodes))
        return dataclasses.replace(result, trace=trace)

    cnf = tmp_path / "f.cnf"
    trc = tmp_path / "t.prf"
    main(["gen", "--family", "ggt", "--n", "6", "--seed", "0", "-o", str(cnf)])
    monkeypatch.setattr(ggtkit.cli, "solve", corrupted_solve)
    assert main(["solve", "-i", str(cnf), "--trace", str(trc)]) == 1
    assert not trc.exists()
    assert "self-check FAILED" in capsys.readouterr().err


def test_refute_self_check_blocks_a_corrupted_proof(tmp_path, monkeypatch, capsys):
    build = ggtkit.cli.build_pn

    def corrupted(n):
        d = build(n)
        nodes = list(d.nodes)
        nd = next(nd for nd in nodes if nd.rule == RESOLVE)
        nodes[nd.nid] = dataclasses.replace(nd, pivot=nd.pivot + 1)
        return dataclasses.replace(d, nodes=tuple(nodes))

    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    monkeypatch.setattr(ggtkit.cli, "build_pn", corrupted)
    assert main(["refute", "--mode", "pn", "-i", str(cnf), "-o", str(prf)]) == 1
    assert not prf.exists()
    assert "self-check FAILED" in capsys.readouterr().err


def test_solve_gt(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    assert main(["solve", "-i", str(cnf)]) == 0
    assert "UNSAT" in capsys.readouterr().out


def test_solve_rejects_a_header_n_the_file_cannot_hold(tmp_path, capsys, no_tables_for_n):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("c family=gt n=3000\np cnf 4498500 1\n1 2 0\n")
    _usage_error(capsys, ["solve", "-i", str(cnf)],
                 "line 2: the file lacks 8991004999 of the 8991005000 clauses of GT(3000)")


def test_gtpi_gen(tmp_path):
    cnf = tmp_path / "f.cnf"
    assert main(["gen", "--family", "gtpi", "--n", "5", "--pi", "0:3,1:4", "-o", str(cnf)]) == 0
    text = cnf.read_text()
    assert "pi=0:3,1:4" in text


def test_bench_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--artifacts", "pn,pool,dpll", "--n-min", "4", "--n-max", "6",
            "--seeds", "2", "--no-wall"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    header = out1.read_text().splitlines()[0]
    assert header == ("family,n,seed,artifact,lines,maxWidth,stages,caseIvCount,"
                      "conflicts,decisions,wallMillis,status")


def test_bench_prints_the_slopes_of_its_sweep(tmp_path, capsys):
    out = tmp_path / "pn.csv"
    assert main(["bench", "--artifacts", "pn", "--n-min", "6", "--n-max", "8",
                 "--no-wall", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote 3 rows to {out}"
    assert [line.split(":")[0] for line in lines[1:]] == ["slope pn lines", "slope pn maxWidth"]


@pytest.mark.parametrize("change, message", [
    (["--n-min", "5", "--n-max", "4"], "empty size range: --n-min 5 exceeds --n-max 4"),
    (["--seeds", "0"], "no seed to run: --seeds 0; give at least 1"),
    (["--artifacts", ""], "no artifact given; choose from " + ",".join(ARTIFACTS)),
], ids=["sizes", "seeds", "artifacts"])
def test_bench_rejects_an_empty_sweep(tmp_path, capsys, change, message):
    out = tmp_path / "h.csv"
    args = ["bench", "--artifacts", "pool", "--n-min", "4", "--n-max", "5", "--no-wall"]
    capsys.readouterr()
    assert main(args + change + ["-o", str(out)]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "nope", "--n", "4", "-o", str(tmp_path / "x")])
    assert info.value.code == 2
    assert main(["solve", "-i", str(tmp_path / "missing.cnf")]) == 2


def test_refute_mode_mismatch(tmp_path):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    assert main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "p")]) == 2


def test_refute_pn_rejects_a_ggt_file(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    capsys.readouterr()
    assert main(["refute", "--mode", "pn", "-i", str(cnf), "-o", str(prf)]) == 2
    assert capsys.readouterr() == ("", "mode pn needs a gt instance, got ggt\n")
    assert not prf.exists()


def test_check_rejects_an_unknown_profile(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "gt", "--n", "4", "-o", str(cnf)])
    main(["refute", "--mode", "pn", "-i", str(cnf), "-o", str(prf)])
    capsys.readouterr()
    assert main(["check", "-f", str(cnf), "-p", str(prf), "--profiles", "valid,bogus"]) == 2
    assert capsys.readouterr() == (
        "", f"unknown profile 'bogus'; choose from {','.join(ALL_PROFILES)}\n")


def test_bench_rejects_an_unknown_artifact(tmp_path, capsys):
    out = tmp_path / "h.csv"
    capsys.readouterr()
    assert main(["bench", "--artifacts", "pool,bogus", "--n-min", "4", "--n-max", "4",
                 "--no-wall", "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"unknown artifact 'bogus'; choose from {','.join(ARTIFACTS)}\n")
    assert not out.exists()


def test_a_blank_line_after_the_problem_line_is_skipped(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    capsys.readouterr()
    assert main(["solve", "-i", str(cnf)]) == 0
    plain = capsys.readouterr()
    lines = cnf.read_text().splitlines(keepends=True)
    at = next(idx for idx, line in enumerate(lines) if line.startswith("p cnf"))
    lines[at + 1:at + 1] = ["\n", "   \n"]
    cnf.write_text("".join(lines))
    assert main(["solve", "-i", str(cnf)]) == 0
    assert capsys.readouterr() == plain


def _gen_ggt(directory, n, seed, edit=lambda text: text):
    """A generated GGT(n) file in a new directory, its text edited."""
    directory.mkdir()
    cnf = directory / "f.cnf"
    main(["gen", "--family", "ggt", "--n", str(n), "--seed", str(seed), "-o", str(cnf)])
    cnf.write_text(edit(cnf.read_text()))
    return cnf


def _refute_and_solve(capsys, cnf):
    """Exit code, stdout, stderr and proof file of refute (both modes) and
    solve --trace, the proofs written beside the formula."""
    capsys.readouterr()
    out = {}
    for args in (["refute", "--mode", "pool"], ["refute", "--mode", "regrti"], ["solve"]):
        prf = cnf.parent / f"{args[-1]}.prf"
        code = main(args + ["-i", str(cnf), "--trace" if args == ["solve"] else "-o", str(prf)])
        captured = capsys.readouterr()
        out[args[-1]] = (code, captured.out.replace(str(prf), "P"), captured.err, prf.read_text())
    return out


def _body(text: str) -> str:
    return text.split("\n", 1)[1]


def test_refute_ggt_without_seed(tmp_path, capsys):
    # the guards are read off the clauses, so a seedless file refutes, and
    # its proofs are the seeded file's bar the header's seed
    seeded = _refute_and_solve(capsys, _gen_ggt(tmp_path / "a", 5, 0))
    cnf = _gen_ggt(tmp_path / "b", 5, 0, lambda text: text.replace(" seed=0", "", 1))
    assert cnf.read_text().startswith("c family=ggt n=5\n")
    seedless = _refute_and_solve(capsys, cnf)
    for mode in ("pool", "regrti", "solve"):
        code, out, err, proof = seedless[mode]
        assert (code, err) == (0, "") and out.endswith("self-check passed\n")
        assert out == seeded[mode][1]
        assert proof.startswith("p proof ggt n=5 shape=")
        assert _body(proof) == _body(seeded[mode][3])


def test_header_seed_does_not_select_the_guards(tmp_path, capsys):
    # a GGT(6) seed-1 file whose header says seed=2 gets the proofs of its
    # own clauses, not those of seed 2's guard map
    one = _refute_and_solve(capsys, _gen_ggt(tmp_path / "a", 6, 1))
    cnf = _gen_ggt(tmp_path / "b", 6, 1, lambda text: text.replace(" seed=1", " seed=2", 1))
    assert cnf.read_text().startswith("c family=ggt n=6 seed=2\n")
    relabelled = _refute_and_solve(capsys, cnf)
    for mode in ("pool", "regrti", "solve"):
        code, out, err, proof = relabelled[mode]
        assert (code, err) == (0, "") and out.endswith("self-check passed\n")
        assert out == one[mode][1]
        assert proof.startswith("p proof ggt n=6 seed=2 shape=")
        assert _body(proof) == _body(one[mode][3])


def test_refute_rejects_an_unpaired_guard_copy(tmp_path, capsys):
    # the second copy of triangle (0, 1, 2) carries a third literal, not -g
    f = gen_ggt(6, 1)
    t, g = trans_clause(0, 1, 2, 6), f.guard_map[(0, 1, 2)]
    h = next(v for v in range(1, 16) if v != abs(g) and v not in map(abs, t))
    line = lambda clause: " ".join(map(str, clause_key(clause))) + " 0\n"
    cnf = _gen_ggt(tmp_path / "a", 6, 1, lambda text: text.replace(line(t | {-g}), line(t | {h})))
    # the edited copy is line 10: a header comment, the problem line, six
    # minimality clauses and the first copy come before it
    assert cnf.read_text().splitlines()[9] + "\n" == line(t | {h})
    for args in (["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "p")],
                 ["solve", "-i", str(cnf)]):
        _usage_error(capsys, args, f"line 10: triangle (0, 1, 2) has guarded copies "
                                   f"[{g}, {h}]; it needs one opposite pair")
    assert not (tmp_path / "p").exists()


def test_a_changed_minimality_clause_is_a_usage_error(tmp_path, capsys):
    # line 4, vertex 1's minimality clause, loses a negation: the guard map
    # read off the file is unchanged, but the formula is no longer GGT(5)
    cnf = _gen_ggt(tmp_path / "a", 5, 0, lambda text: text.replace("\n1 -5 -6 -7 0\n",
                                                                   "\n1 5 -6 -7 0\n", 1))
    assert cnf.read_text().splitlines()[3] == "1 5 -6 -7 0"
    for args in (["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "p")],
                 ["refute", "--mode", "regrti", "-i", str(cnf), "-o", str(tmp_path / "p")],
                 ["solve", "-i", str(cnf)]):
        _usage_error(capsys, args, "line 4: not a clause of GGT(5) under the guards read off the file")
    assert not (tmp_path / "p").exists()


def test_a_changed_gt_minimality_clause_is_a_usage_error(tmp_path, capsys):
    # the same edit of GT(5): the file is no longer GT(5)
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    cnf.write_text(cnf.read_text().replace("\n1 -5 -6 -7 0\n", "\n1 5 -6 -7 0\n", 1))
    assert cnf.read_text().splitlines()[3] == "1 5 -6 -7 0"
    for args in (["refute", "--mode", "pn", "-i", str(cnf), "-o", str(tmp_path / "p")],
                 ["solve", "-i", str(cnf)]):
        _usage_error(capsys, args, "line 4: not a clause of GT(5)")
    assert not (tmp_path / "p").exists()


def test_refute_ignores_metadata_after_the_problem_line(tmp_path, capsys):
    # a trailing seed=3 comment would otherwise swap in another guard map
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    cnf.write_text(cnf.read_text() + "c seed=3\n")
    for mode in ("pool", "regrti"):
        prf = tmp_path / f"{mode}.prf"
        assert main(["refute", "--mode", mode, "-i", str(cnf), "-o", str(prf)]) == 0
        assert prf.read_text().startswith("p proof ggt n=5 seed=0 ")
    assert capsys.readouterr().err == ""


def test_check_reports_implied_profiles(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "1", "-o", str(cnf)])
    main(["refute", "--mode", "regrti", "-i", str(cnf), "-o", str(prf)])
    capsys.readouterr()
    assert main(["check", "-f", str(cnf), "-p", str(prf), "--profiles", "input_lemma"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "regular: PASS", "pool: PASS", "input_lemma: PASS",
    ]


def test_self_check_profiles_cover_artifacts_and_modes():
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["refute"]._actions if a.dest == "mode")
    assert set(ARTIFACTS) <= set(SELF_CHECK)
    assert set(mode.choices) <= set(SELF_CHECK)
    for profiles in SELF_CHECK.values():
        assert profiles == tuple(p for p in ALL_PROFILES if p in profiles)


def test_refute_node_budget_is_a_usage_error(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "8", "--seed", "3", "-o", str(cnf)])
    capsys.readouterr()
    for mode in ("pool", "regrti"):
        args = ["refute", "--mode", mode, "-i", str(cnf), "-o", str(prf), "--max-nodes", "50"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: proof exceeded 50 nodes\n"
        assert not prf.exists()


@pytest.mark.parametrize("profiles", ["", ",", " , "])
def test_check_rejects_an_empty_profile_list(tmp_path, capsys, profiles):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "8", "--seed", "3", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    capsys.readouterr()
    assert main(["check", "-f", str(cnf), "-p", str(prf), "--profiles", profiles]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("no profile given")


def _usage_error(capsys, args, message):
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_refute_rejects_a_malformed_seed(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    cnf.write_text(cnf.read_text().replace("seed=0", "seed=abc", 1))
    _usage_error(capsys, ["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "p")],
                 "line 1: malformed seed 'abc' in header")


@pytest.mark.parametrize("good, bad", [(" n=5 ", " n=six "), (" seed=0 ", " seed=s0 ")])
def test_check_rejects_a_malformed_proof_header(tmp_path, capsys, good, bad):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    prf.write_text(prf.read_text().replace(good, bad, 1))
    key, val = bad.strip().split("=")
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)],
                 f"line 1: bad {key} in header {val!r}")


def test_check_rejects_a_malformed_lemma_target(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = prf.read_text().splitlines()
    at = next(idx for idx, line in enumerate(lines) if line.split()[1:2] == ["L"])
    nid, _, target = lines[at].split()
    lines[at] = f"{nid} L x{target}"
    prf.write_text("\n".join(lines) + "\n")
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)],
                 f"line {at + 1}: bad lemma target 'x{target}'")


@pytest.mark.parametrize("pi, item", [("1-3", "1-3"), ("a:b", "a:b"), ("0:3,1:2:4", "1:2:4"),
                                      ("0:x", "0:x"), ("0:1,,1:2", "")])
def test_gen_rejects_a_malformed_pi(tmp_path, capsys, pi, item):
    # one codec, `Bpo.parse`, reads the option and a gtpi header's pi, so
    # both reject each text and name the same item
    cnf = tmp_path / "f.cnf"
    _usage_error(capsys, ["gen", "--family", "gtpi", "--n", "4", "--pi", pi, "-o", str(cnf)],
                 f"malformed pair {item!r}; expected a:b")
    assert not cnf.exists()
    assert main(["gen", "--family", "gtpi", "--n", "4", "--pi", "0:3", "-o", str(cnf)]) == 0
    cnf.write_text(cnf.read_text().replace(" pi=0:3", f" pi={pi}", 1))
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(tmp_path / "p")],
                 f"line 1: malformed pi in header: malformed pair {item!r}; expected a:b")


@pytest.mark.parametrize("pi, message", [
    ("0:1,1:2", "domain and range intersect: [1]"),
    ("0:7", "pair (0,7) invalid over [4]"),
    ("-1:2", "pair (-1,2) invalid over [4]"),
    ("2:2", "domain and range intersect: [2]"),
])
def test_gen_rejects_a_well_formed_pi_that_is_no_bipartite_order(tmp_path, capsys, pi, message):
    cnf = tmp_path / "f.cnf"
    _usage_error(capsys, ["gen", "--family", "gtpi", "--n", "4", f"--pi={pi}", "-o", str(cnf)], message)
    assert not cnf.exists()


def test_refute_and_check_reject_a_second_problem_line(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = cnf.read_text().splitlines()
    lines.insert(4, lines[1])
    cnf.write_text("\n".join(lines) + "\n")
    message = "line 5: second problem line; the first is line 2"
    _usage_error(capsys, ["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "q")],
                 message)
    assert not (tmp_path / "q").exists()
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)], message)


def test_check_rejects_a_second_proof_header(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = prf.read_text().splitlines()
    lines.insert(11, "p proof ggt n=7 seed=9 shape=dag")
    prf.write_text("\n".join(lines) + "\n")
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)],
                 "line 12: second proof header; the first is line 1")


@pytest.mark.parametrize("n, problem", [(-3, None), (0, "p cnf 0 0"), (1, "p cnf 0 0")])
def test_solve_rejects_a_header_n_below_two(tmp_path, capsys, n, problem):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "4", "-o", str(cnf)])
    text = cnf.read_text().replace("n=4", f"n={n}", 1)
    if problem:
        text = text.splitlines()[0] + "\n" + problem + "\n"
    cnf.write_text(text)
    _usage_error(capsys, ["solve", "-i", str(cnf)],
                 f"line 1: n={n} in header; the families need n >= 2")


def test_check_rejects_a_repeated_literal(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = prf.read_text().splitlines()
    nid, rule, first, *rest = lines[1].split()
    assert (nid, rule) == ("0", "A")
    lines[1] = " ".join([nid, rule, first, first] + rest)
    prf.write_text("\n".join(lines) + "\n")
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)],
                 "line 2: duplicate literal in clause")


@pytest.mark.parametrize("command", ["check-proof-dir", "check-proof-bytes", "refute-input-dir"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, command):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "ggt", "--n", "4", "--seed", "0", "-o", str(cnf)])
    folder = tmp_path / "folder"
    folder.mkdir()
    raw = tmp_path / "p.prf"
    raw.write_bytes(b"p proof ggt n=4 seed=0 shape=tree\n0 A \xff 0\n")
    args = {
        "check-proof-dir": ["check", "-f", str(cnf), "-p", str(folder)],
        "check-proof-bytes": ["check", "-f", str(cnf), "-p", str(raw)],
        "refute-input-dir": ["refute", "--mode", "pool", "-i", str(folder), "-o", str(raw)],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check -p", "check -f", "refute -i", "solve -i"])
def test_non_utf8_input_names_the_file_and_line(tmp_path, capsys, command):
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "4", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    bad = prf if command == "check -p" else cnf
    lines = bad.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b" ", b" \xff", 1)
    bad.write_bytes(b"\n".join(lines))
    args = {
        "check -p": ["check", "-f", str(cnf), "-p", str(prf)],
        "check -f": ["check", "-f", str(cnf), "-p", str(prf)],
        "refute -i": ["refute", "--mode", "pool", "-i", str(cnf), "-o", str(tmp_path / "q")],
        "solve -i": ["solve", "-i", str(cnf)],
    }[command]
    _usage_error(capsys, args, f"{bad}: line 3: not UTF-8 text (byte 0xff)")


def test_non_utf8_byte_opening_a_line_is_counted_on_that_line(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "4", "-o", str(cnf)])
    cnf.write_bytes(cnf.read_bytes() + b"\xff1 2 0\n")
    lines = cnf.read_bytes().count(b"\n")
    _usage_error(capsys, ["solve", "-i", str(cnf)], f"{cnf}: line {lines}: not UTF-8 text (byte 0xff)")


def test_check_rejects_a_degenerate_step(tmp_path, capsys):
    # the proof format has plain (R) and w-resolution (W) steps only
    cnf = tmp_path / "f.cnf"
    prf = tmp_path / "p.prf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    main(["refute", "--mode", "pool", "-i", str(cnf), "-o", str(prf)])
    lines = prf.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[1] == "R")
    lines[i] = lines[i].replace(" R ", " D ", 1)
    prf.write_text("\n".join(lines) + "\n")
    _usage_error(capsys, ["check", "-f", str(cnf), "-p", str(prf)],
                 f"line {i + 1}: unknown rule 'D'")
