import pytest

from ggtkit.bpo import Bpo
from ggtkit.dimacs import DimacsError, read_dimacs, write_dimacs
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi, guards
from ggtkit.literals import clause_key, trans_clause


def test_write_gt3_header():
    text = write_dimacs(gen_gt(3))
    assert "p cnf 3 5" in text
    assert text.startswith("c family=gt n=3")


def test_roundtrip_ggt():
    f = gen_ggt(5, 7)
    g = read_dimacs(write_dimacs(f))
    assert g.family == f.family and g.n == f.n and g.seed == 7
    assert g.clause_set() == f.clause_set()
    assert g.guard_map is not None and g.guard_map == f.guard_map


def test_roundtrip_gt_pi():
    pi = Bpo.of(5, [(0, 3), (1, 4)])
    f = gen_gt_pi(5, pi)
    g = read_dimacs(write_dimacs(f))
    assert g.pi is not None and g.pi.pairs == pi.pairs
    assert g.clause_set() == f.clause_set()


def test_roundtrip_unguarded():
    f = gen_ggt(3, 2)
    g = read_dimacs(write_dimacs(f))
    assert g.family == "ggt" and g.guard_map is None
    assert g.clause_set() == f.clause_set()


def test_writer_reads_no_guard_map():
    # the first guarded copy decides whether `c guards=unguarded` is written
    for n in (3, 5, 9):
        f = gen_ggt(n, 0)
        text = write_dimacs(f)
        assert "guard_map" not in vars(f)
        assert ("c guards=unguarded" in text) == (n < 4)


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
    assert g.guard_map == gen_ggt(5, 0).guard_map


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


def test_guard_map_round_trips_from_the_clauses():
    for n in range(2, 14):
        for seed in range(4):
            f = gen_ggt(n, seed)
            g = read_dimacs(write_dimacs(f))
            assert g.guard_map == f.guard_map == (guards(n, seed) if n >= 4 else None)


def test_header_seed_does_not_select_the_guards():
    text = write_dimacs(gen_ggt(6, 1))
    for header in ("c family=ggt n=6 seed=2", "c family=ggt n=6", "c family=ggt n=6 seed=1\nc guards=unguarded"):
        g = read_dimacs(text.replace("c family=ggt n=6 seed=1", header, 1))
        assert g.guard_map == guards(6, 1)



def _ggt6_with_copies(edit):
    """GGT(6), seed 1, with the lines of triangle (0, 1, 2)'s guarded copies
    (9 and 10) replaced by `edit(t, g, h)`: t is the triangle's clause, g its
    guard and h a variable that is neither."""
    f = gen_ggt(6, 1)
    t, g = trans_clause(0, 1, 2, 6), f.guard_map[(0, 1, 2)]
    h = next(v for v in range(1, 16) if v != abs(g) and v not in map(abs, t))
    lines = write_dimacs(f).splitlines()
    assert lines[8:10] == [" ".join(map(str, clause_key(t | {x}))) + " 0" for x in (g, -g)]
    new = [" ".join(map(str, clause_key(c))) + " 0" for c in edit(t, g, h)]
    lines[8:10] = new
    lines[1] = f"p cnf 15 {len(f.clauses) - 2 + len(new)}"
    return "\n".join(lines) + "\n", g, h


@pytest.mark.parametrize("edit, line, found", [
    (lambda t, g, h: [t | {g}, t | {h}], 10, "[{g}, {h}]"),  # not opposite: the second copy
    (lambda t, g, h: [t | {g}], 9, "[{g}]"),  # one copy
    (lambda t, g, h: [t | {g}, t | {-g}, t | {h}], 11, "[{g}, {neg}, {h}]"),  # the third copy
    (lambda t, g, h: [t, frozenset({h})], 2, "[]"),  # no copy: the problem line
])
def test_unpaired_triangle_names_a_copy_s_line(edit, line, found):
    text, g, h = _ggt6_with_copies(edit)
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    want = found.format(g=g, neg=-g, h=h)
    assert str(info.value) == (
        f"line {line}: triangle (0, 1, 2) has guarded copies {want}; it needs one opposite pair"
    )


def _edit_ggt5(old, new, count):
    """GGT(5), seed 0, with line `old` replaced by `new` lines and the
    problem line promising `count` clauses."""
    text = write_dimacs(gen_ggt(5, 0)).replace("p cnf 10 45", f"p cnf 10 {count}", 1)
    assert f"\n{old}\n" in text
    return text.replace(f"\n{old}\n", "".join(f"\n{line}" for line in new) + "\n", 1)


@pytest.mark.parametrize("text, message", [
    # vertex 1's minimality clause with a literal flipped
    (_edit_ggt5("1 -5 -6 -7 0", ["1 5 -6 -7 0"], 45),
     "line 4: not a clause of GGT(5) under the guards read off the file"),
    # a GT(5) transitivity clause beside its two guarded copies
    (_edit_ggt5("1 -5 -6 -7 0", ["1 -5 -6 -7 0", "-1 2 -5 0"], 46),
     "line 5: not a clause of GGT(5) under the guards read off the file"),
    # vertex 1's minimality clause dropped: the problem line
    (_edit_ggt5("1 -5 -6 -7 0", [], 44), "line 2: the file lacks 1 of the 45 clauses of GGT(5)"),
    # GT(5)'s clauses under a ggt header
    (write_dimacs(gen_gt(5)).replace("family=gt", "family=ggt", 1),
     "line 2: GGT(5) has guarded clauses; the file has none"),
    # below n = 4, GGT is GT
    (write_dimacs(gen_ggt(3, 0)).replace("\n-1 2 -3 0\n", "\n-1 2 3 0\n", 1),
     "line 7: not a clause of GGT(3) under the guards read off the file"),
])
def test_a_ggt_file_holds_exactly_the_ggt_clauses_of_its_guards(text, message):
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == message


_GT5 = write_dimacs(gen_gt(5))


@pytest.mark.parametrize("text, message", [
    # vertex 1's minimality clause with a literal flipped
    (_GT5.replace("\n1 -5 -6 -7 0\n", "\n1 5 -6 -7 0\n", 1), "line 4: not a clause of GT(5)"),
    # vertex 1's minimality clause dropped: the problem line
    (_GT5.replace("\n1 -5 -6 -7 0\n", "\n", 1).replace("p cnf 10 25", "p cnf 10 24", 1),
     "line 2: the file lacks 1 of the 25 clauses of GT(5)"),
    # GGT(5)'s clauses under a gt header: the first guarded copy
    (write_dimacs(gen_ggt(5, 0)).replace("family=ggt", "family=gt", 1),
     "line 8: not a clause of GT(5)"),
])
def test_a_gt_file_holds_exactly_the_gt_clauses(text, message):
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == message


_GTPI4 = write_dimacs(gen_gt_pi(4, Bpo.of(4, [(0, 3)])))


@pytest.mark.parametrize("text, message", [
    ("c family=gt n=2\np cnf 1 2\n1 0\n", "line 2: header promised 2 clauses, found 1"),
    ("c family=gt n=3\nc\np cnf 1 1\n1 0\n", "line 3: n=3 implies 3 vars, header says 1"),
    ("c n=2\nc family=xyz\np cnf 1 1\n1 0\n", "line 2: missing or unknown family in header: 'xyz'"),
    (_GTPI4.replace(" pi=0:3", "\nc pi=0:x", 1),
     "line 2: malformed pi in header: malformed pair '0:x'; expected a:b"),
    # a well-formed pair outside the vertex range is rejected before it is used
    (_GTPI4.replace(" pi=0:3", "\nc pi=-1:2", 1),
     "line 2: malformed pi in header: pair (-1,2) invalid over [4]"),
    (_GTPI4.replace(" pi=0:3", "\nc pi=0:1,1:3", 1),
     "line 2: malformed pi in header: domain and range intersect: [1]"),
    # no line holds the cause
    ("c n=2\np cnf 1 1\n1 0\n", "line 0: missing or unknown family in header: None"),
    ("c family=gt\np cnf 1 1\n1 0\n", "line 0: missing n in header"),
    ("c family=gt n=2\n", "line 0: missing problem line"),
])
def test_whole_file_errors_name_the_line_of_their_cause(text, message):
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == message


# GT(3000) would hold about 9e9 clauses, far more than these files
_GT3000 = "c family=gt n=3000\np cnf 4498500 1\n1 2 0\n"
_GGT3000 = "c family=ggt n=3000 seed=0\np cnf 4498500 2\n1 2 3 0\n-1 2 3 0\n"


@pytest.mark.parametrize("text, message", [
    (_GT3000, "line 2: the file lacks 8991004999 of the 8991005000 clauses of GT(3000)"),
    (_GGT3000, "line 2: the file lacks 17982006998 of the 17982007000 clauses of GGT(3000)"),
], ids=["gt", "ggt"])
def test_a_file_too_small_for_its_n_builds_no_table_for_it(text, message, no_tables_for_n):
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == message
