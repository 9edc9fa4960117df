import pytest

from ggtkit.bpo import Bpo
from ggtkit.dimacs import DimacsError, read_dimacs, write_dimacs
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi


def test_write_gt3_header():
    text = write_dimacs(gen_gt(3))
    assert "p cnf 3 5" in text
    assert text.startswith("c family=gt n=3")


def test_roundtrip_ggt():
    f = gen_ggt(5, 7)
    g = read_dimacs(write_dimacs(f))
    assert g.family == f.family and g.n == f.n and g.seed == 7
    assert g.clause_set() == f.clause_set()
    assert g.guard_map is not None and g.guard_map.table == f.guard_map.table


def test_roundtrip_gt_pi():
    pi = Bpo.of(5, [(0, 3), (1, 4)])
    f = gen_gt_pi(5, pi)
    g = read_dimacs(write_dimacs(f))
    assert g.pi is not None and g.pi.pairs == pi.pairs
    assert g.clause_set() == f.clause_set()


def test_roundtrip_unguarded():
    f = gen_ggt(3, 2)
    g = read_dimacs(write_dimacs(f))
    assert g.unguarded and g.guard_map is None
    assert g.clause_set() == f.clause_set()


def test_determinism_byte_identical():
    assert write_dimacs(gen_ggt(6, 1)) == write_dimacs(gen_ggt(6, 1))


def test_literal_out_of_range():
    text = "c family=gt n=3\np cnf 3 5\n-1 -2 0\n1 -3 0\n2 3 0\n-1 2 -3 0\n1 -2 4 0\n"
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert "line 7" in str(info.value)


def test_tautological_clause_rejected():
    text = "c family=gt n=2\np cnf 1 1\n1 -1 0\n"
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert "line 3" in str(info.value)


def test_missing_terminator():
    text = "c family=gt n=2\np cnf 1 1\n1\n"
    with pytest.raises(DimacsError):
        read_dimacs(text)


def test_clause_count_mismatch():
    text = "c family=gt n=2\np cnf 1 2\n1 0\n"
    with pytest.raises(DimacsError):
        read_dimacs(text)


def test_missing_family():
    text = "p cnf 1 1\n1 0\n"
    with pytest.raises(DimacsError):
        read_dimacs(text)


@pytest.mark.parametrize("good, bad", [("seed=0", "seed=abc"), ("n=4", "n=four")])
def test_malformed_header_number_names_its_line(good, bad):
    text = write_dimacs(gen_ggt(4, 0)).replace(good, bad, 1)
    key, val = bad.split("=")
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == f"line 1: malformed {key} {val!r} in header"


def test_metadata_comes_from_the_header_only():
    # a key=value comment after the problem line does not replace the header's
    text = write_dimacs(gen_ggt(5, 0)) + "c seed=3 n=6 family=gt\n"
    g = read_dimacs(text)
    assert g.family == "ggt" and g.n == 5 and g.seed == 0
    assert g.guard_map.table == gen_ggt(5, 0).guard_map.table


def test_second_problem_line_rejected():
    # a repeated line with other counts would replace the first
    lines = write_dimacs(gen_ggt(4, 0)).splitlines()
    assert lines[1].startswith("p cnf 6 ")
    lines.insert(5, "p cnf 6 3")
    with pytest.raises(DimacsError) as info:
        read_dimacs("\n".join(lines) + "\n")
    assert str(info.value) == "line 6: second problem line; the first is line 2"



@pytest.mark.parametrize("n", (-3, 0, 1))
def test_header_n_below_two_rejected(n):
    if n < 0:  # num_vars(1 - n) == num_vars(n), so GT(4)'s problem line fits
        text = write_dimacs(gen_gt(4)).replace("n=4", f"n={n}", 1)
    else:
        text = f"c family=gt n={n}\np cnf 0 0\n"
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == f"line 1: n={n} in header; the families need n >= 2"
