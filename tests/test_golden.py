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
from ggtkit.formulas import gen_ggt
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


def solve_digest(n: int, seed: int) -> int:
    result = solve(gen_ggt(n, seed), trace=True)
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


def test_pn_bytes():
    assert {n: pn_digest(n) for n in PN} == PN


def test_ppi_bytes():
    assert {s: ppi_digest(s) for s in PPI_SEEDS} == PPI


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
    got = {(n, s): solve_digest(n, s) for n in SOLVE_SIZES for s in SEEDS}
    assert got == SOLVE


def test_solver_trace_larger_sizes():
    got = {(n, s): solve_digest(n, s) for n in SOLVE_LARGE_SIZES for s in SEEDS}
    assert got == SOLVE_LARGE


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
