import argparse
import dataclasses

import pytest

import ggtkit.cli
from ggtkit.bench import ARTIFACTS
from ggtkit.checker import ALL_PROFILES, SELF_CHECK
from ggtkit.cli import main, make_parser
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


def test_solve_gt(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "gt", "--n", "5", "-o", str(cnf)])
    assert main(["solve", "-i", str(cnf)]) == 0
    assert "UNSAT" in capsys.readouterr().out


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


def test_refute_ggt_without_seed(tmp_path, capsys):
    # without a seed the header does not name the guard map
    cnf = tmp_path / "f.cnf"
    main(["gen", "--family", "ggt", "--n", "5", "--seed", "0", "-o", str(cnf)])
    cnf.write_text(cnf.read_text().replace(" seed=0", "", 1))
    capsys.readouterr()
    for mode in ("pool", "regrti"):
        prf = tmp_path / f"{mode}.prf"
        assert main(["refute", "--mode", mode, "-i", str(cnf), "-o", str(prf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "guarded instance" in err
        assert not prf.exists()


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


@pytest.mark.parametrize("pi, item", [("1-3", "1-3"), ("a:b", "a:b"), ("0:3,1:2:4", "1:2:4")])
def test_gen_rejects_a_malformed_pi(tmp_path, capsys, pi, item):
    cnf = tmp_path / "f.cnf"
    _usage_error(capsys, ["gen", "--family", "gtpi", "--n", "4", "--pi", pi, "-o", str(cnf)],
                 f"malformed --pi pair {item!r}; expected a:b")
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
