"""Byte-identity pins for the builders and the solver.

Each entry is the crc32 of a serialized artifact together with the
statistics reported beside it.  Any change to node order, clauses,
pivots, lemma targets, decision markers or counters changes a digest, so
a refactoring that claims identical output is held to it across commits,
not only across reruns in one process.
"""

from __future__ import annotations

import dataclasses
import random
import zlib

from ggtkit.bench import ARTIFACTS, bench_run, to_csv
from ggtkit.bpo import Bpo
from ggtkit.cli import main
from ggtkit.dimacs import write_dimacs
from ggtkit.formulas import gen_ggt, gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.literals import clause_key
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import serialize_proof
from ggtkit.solver import solve

PPI_N = 12
PPI_SEEDS = range(5)
LR_SIZES = range(4, 10)
LR_LARGE_SIZES = range(10, 14)  # up to the benchmark's GGT(13), seed 0 only
SOLVE_SIZES = range(4, 11)
SOLVE_LARGE_SIZES = (11, 12)
SOLVE_GT_SIZES = range(2, 13)
SOLVE_UNGUARDED_GGT_SIZES = (2, 3)
LEARNED_SIZES = range(4, 13)
SEEDS = range(3)


def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


def seeded_order(n: int, seed: int) -> Bpo:
    """A bipartite order with a random minimal set and random nonempty
    sets of minimal vertices below each other vertex."""
    rng = random.Random(seed)
    minimals = rng.sample(range(n), rng.randrange(2, n))
    pairs = []
    for k in range(n):
        if k not in minimals:
            below = rng.sample(minimals, rng.randrange(1, len(minimals) + 1))
            pairs.extend((i, k) for i in below)
    return Bpo.of(n, pairs)


def wide_order(n: int, minimals: int, seed: int) -> Bpo:
    """A bipartite order with a fixed number of minimal vertices, each
    other vertex above one to three of them."""
    rng = random.Random(seed)
    low = rng.sample(range(n), minimals)
    pairs = [(a, k) for k in range(n) if k not in low for a in rng.sample(low, rng.randint(1, 3))]
    return Bpo.of(n, pairs)


def pn_digest(n: int) -> int:
    return _crc(serialize_proof(build_pn(n)))


def ppi_digest(seed: int) -> int:
    return _crc(serialize_proof(build_ppi(PPI_N, seeded_order(PPI_N, seed))))


def lr_digest(build, n: int, seed: int) -> int:
    d, st = build(n, seed)
    counters = (st.stages, st.case_iv, st.unfold_lines, st.segment_budget)
    return _crc(serialize_proof(d) + repr(counters))


def learned_digest(n: int, seed: int) -> int:
    learned = solve(gen_ggt(n, seed)).learned_clauses
    return _crc("\n".join(" ".join(map(str, clause_key(c))) for c in learned))


def solve_digest(f) -> int:
    result = solve(f, trace=True)
    text = serialize_proof(result.trace, result.decision_markers)
    return _crc(text + result.status + repr(dataclasses.astuple(result.stats)))


PN = {
    2: 4051657035, 3: 2491830135, 4: 1606775791, 5: 1884679252,
    6: 2975080212, 7: 2359625753, 8: 2902019335, 9: 3370761134,
    10: 119412710, 11: 893382781, 12: 2945425415,
}
PPI = {
    0: 1332749986, 1: 2025324543, 2: 1656356500, 3: 633368056,
    4: 4094741212,
}
# build_pn(40) and build_ppi over wide_order(40, 34, s), seeds 0-2: the
# benchmark's GT sizes, with lines of up to 39 literals
PN40 = 963554951
PPI40 = {0: 2719380858, 1: 3066397017, 2: 1461059165}
POOL = {
    (4, 0): 3694682209, (4, 1): 794675680, (4, 2): 2284789111,
    (5, 0): 649953497, (5, 1): 3515107334, (5, 2): 2637289014,
    (6, 0): 3077784225, (6, 1): 3574346334, (6, 2): 544585525,
    (7, 0): 2595986335, (7, 1): 663535617, (7, 2): 2283960,
    (8, 0): 686201165, (8, 1): 3173360091, (8, 2): 4095828298,
    (9, 0): 206840291, (9, 1): 2467870479, (9, 2): 679298055,
}
REGRTI = {
    (4, 0): 1014808852, (4, 1): 890153690, (4, 2): 1935784611,
    (5, 0): 94219121, (5, 1): 2856940540, (5, 2): 1866025274,
    (6, 0): 2785461803, (6, 1): 394522153, (6, 2): 801011748,
    (7, 0): 1330456948, (7, 1): 533403399, (7, 2): 742503441,
    (8, 0): 2154924726, (8, 1): 3132891167, (8, 2): 1680504108,
    (9, 0): 4199809055, (9, 1): 1077953145, (9, 2): 2347614479,
}
POOL_LARGE = {10: 1486601308, 11: 1218447253, 12: 3266047183, 13: 1448728089}
REGRTI_LARGE = {10: 2042425101, 11: 1794673289, 12: 1818549090, 13: 399644}
SOLVE = {
    (4, 0): 2169057172, (4, 1): 2909880957, (4, 2): 1230600849,
    (5, 0): 1273677360, (5, 1): 2695358526, (5, 2): 2682364450,
    (6, 0): 3092537643, (6, 1): 925030967, (6, 2): 562777477,
    (7, 0): 2723597958, (7, 1): 1622378858, (7, 2): 2514634788,
    (8, 0): 355738047, (8, 1): 3455660262, (8, 2): 3128175771,
    (9, 0): 2069299180, (9, 1): 2034991066, (9, 2): 3892682226,
    (10, 0): 203882890, (10, 1): 796970355, (10, 2): 258432560,
}
SOLVE_LARGE = {
    (11, 0): 2792695501, (11, 1): 1785615566, (11, 2): 2112060917,
    (12, 0): 784605312, (12, 1): 729852753, (12, 2): 2070853552,
}
# GT(n), which has no seed, and GGT(2..3), seeds 0-2: unguarded instances,
# searched with no blockers and no learning
SOLVE_GT = {
    2: 1421443617, 3: 1677073633, 4: 2028832283, 5: 4254096468,
    6: 1850187094, 7: 850965518, 8: 2960069467, 9: 1104532485,
    10: 4203152044, 11: 3134531112, 12: 3111201158,
}
SOLVE_UNGUARDED_GGT = {
    (2, 0): 1505057851, (2, 1): 3598741934, (2, 2): 2628649296,
    (3, 0): 218393021, (3, 1): 1672544047, (3, 2): 3496821913,
}
# the learned clauses of the untraced solver, in learn order
LEARNED = {
    (4, 0): 1838853596, (4, 1): 1118681726, (4, 2): 212506911,
    (5, 0): 766867557, (5, 1): 2591755759, (5, 2): 22951012,
    (6, 0): 1676580508, (6, 1): 3827308230, (6, 2): 1426473508,
    (7, 0): 396976680, (7, 1): 1884113345, (7, 2): 3503167630,
    (8, 0): 2479196683, (8, 1): 4006975478, (8, 2): 969484901,
    (9, 0): 3110267845, (9, 1): 2262409330, (9, 2): 2447392478,
    (10, 0): 1376301544, (10, 1): 3863024583, (10, 2): 1200886530,
    (11, 0): 643408606, (11, 1): 2338798018, (11, 2): 128458704,
    (12, 0): 1332981846, (12, 1): 4129422821, (12, 2): 1504732922,
}
# (decisions, propagations, conflicts, learned, restarts, skipped_decisions)
SOLVE_GGT14_STATS = (5492, 88544, 5493, 682, 0, 0)
# all four artifacts at n = 4..9, seeds 0-1, wall column zeroed
BENCH_CSV = 2803520527
# `ggt refute --stage-log` for GGT(8) seed 3
STAGE_LOG = {"pool": 404010773, "regrti": 2120618279}
# `write_dimacs` of GGT(n), n = 2..13, seeds 0-2: the `c guards=unguarded`
# line below n = 4 and the clause order
DIMACS_GGT = {
    (2, 0): 2473785360, (2, 1): 1010199127, (2, 2): 378198751,
    (3, 0): 2803646182, (3, 1): 2099634190, (3, 2): 3357443447,
    (4, 0): 1642807278, (4, 1): 1021202565, (4, 2): 251227210,
    (5, 0): 1344682366, (5, 1): 2609627930, (5, 2): 3855841851,
    (6, 0): 2010475585, (6, 1): 3966165904, (6, 2): 3196106680,
    (7, 0): 2508279494, (7, 1): 269329039, (7, 2): 1652475102,
    (8, 0): 3497052428, (8, 1): 539090782, (8, 2): 152680093,
    (9, 0): 3772003067, (9, 1): 2464533249, (9, 2): 1066936593,
    (10, 0): 1497250500, (10, 1): 1394797478, (10, 2): 578466883,
    (11, 0): 2783135541, (11, 1): 1204085811, (11, 2): 2310211687,
    (12, 0): 52061483, (12, 1): 3947180645, (12, 2): 1753370859,
    (13, 0): 978862664, (13, 1): 3985166055, (13, 2): 4187552906,
}
# `write_dimacs` of GT_pi(12) over seeded_order(12, s), seeds 0-2
DIMACS_GTPI = {0: 1864816450, 1: 2427005155, 2: 3306492658}
# `write_dimacs` of GT_pi(40) over wide_order(40, 34, s), seeds 0-2: the
# transitivity clause order at the size of the benchmark's orders
DIMACS_GTPI40 = {0: 1843749024, 1: 1696031343, 2: 3058507210}


def test_pn_bytes():
    assert {n: pn_digest(n) for n in PN} == PN


def test_ppi_bytes():
    assert {s: ppi_digest(s) for s in PPI_SEEDS} == PPI


def test_pn_and_ppi_bytes_at_the_benchmark_size():
    assert pn_digest(40) == PN40
    got = {s: _crc(serialize_proof(build_ppi(40, wide_order(40, 34, s)))) for s in SEEDS}
    assert got == PPI40


def test_pool_bytes_and_stats():
    got = {(n, s): lr_digest(build_pool_with_stats, n, s) for n in LR_SIZES for s in SEEDS}
    assert got == POOL


def test_regrti_bytes_and_stats():
    got = {(n, s): lr_digest(build_regrti_with_stats, n, s) for n in LR_SIZES for s in SEEDS}
    assert got == REGRTI


def test_pool_and_regrti_bytes_larger_sizes():
    got = {n: lr_digest(build_pool_with_stats, n, 0) for n in LR_LARGE_SIZES}
    assert got == POOL_LARGE
    got = {n: lr_digest(build_regrti_with_stats, n, 0) for n in LR_LARGE_SIZES}
    assert got == REGRTI_LARGE


def test_solver_trace_markers_and_stats():
    got = {(n, s): solve_digest(gen_ggt(n, s)) for n in SOLVE_SIZES for s in SEEDS}
    assert got == SOLVE


def test_solver_trace_larger_sizes():
    got = {(n, s): solve_digest(gen_ggt(n, s)) for n in SOLVE_LARGE_SIZES for s in SEEDS}
    assert got == SOLVE_LARGE


def test_solver_trace_unguarded_instances():
    assert {n: solve_digest(gen_gt(n)) for n in SOLVE_GT_SIZES} == SOLVE_GT
    got = {(n, s): solve_digest(gen_ggt(n, s)) for n in SOLVE_UNGUARDED_GGT_SIZES for s in SEEDS}
    assert got == SOLVE_UNGUARDED_GGT


def test_solver_learned_clauses():
    got = {(n, s): learned_digest(n, s) for n in LEARNED_SIZES for s in SEEDS}
    assert got == LEARNED


def test_solver_stats_untraced_ggt14():
    assert dataclasses.astuple(solve(gen_ggt(14, 0)).stats) == SOLVE_GGT14_STATS


def test_bench_csv_bytes():
    records, _ = bench_run(range(4, 10), range(2), ARTIFACTS, wall=False)
    assert _crc(to_csv(records)) == BENCH_CSV


def test_stage_log_bytes(tmp_path):
    cnf = tmp_path / "f.cnf"
    assert main(["gen", "--family", "ggt", "--n", "8", "--seed", "3", "-o", str(cnf)]) == 0
    got = {}
    for mode in STAGE_LOG:
        log = tmp_path / f"{mode}.log"
        args = ["refute", "--mode", mode, "-i", str(cnf), "-o", str(tmp_path / f"{mode}.prf"),
                "--stage-log", str(log)]
        assert main(args) == 0
        got[mode] = _crc(log.read_text())
    assert got == STAGE_LOG


def test_dimacs_writer_bytes():
    got = {(n, s): _crc(write_dimacs(gen_ggt(n, s))) for n in range(2, 14) for s in SEEDS}
    assert got == DIMACS_GGT
    got = {s: _crc(write_dimacs(gen_gt_pi(PPI_N, seeded_order(PPI_N, s)))) for s in SEEDS}
    assert got == DIMACS_GTPI
    got = {s: _crc(write_dimacs(gen_gt_pi(40, wide_order(40, 34, s)))) for s in SEEDS}
    assert got == DIMACS_GTPI40
