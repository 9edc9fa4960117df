"""Memory gates: each producer's traced peak against the proof it returns.

Each build is traced with `tracemalloc` after one untraced build of the
same size, which fills the per-n tables (`literals.pair_table`,
`triangle_table`) that outlive a build.  The bytes still traced when the
build returns are those its result holds.  Each bound is the ratio
measured on the current code (Python 3.11) with its margin stated; the
builds that held every clause as a set, and a solver that cached whole
skeletons, exceed each one.
"""

import gc
import tracemalloc

from ggtkit.formulas import gen_ggt
from ggtkit.gtproofs import build_pn
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.solver import Solver


def _peak_and_held(make) -> tuple[int, int]:
    """The traced peak of one call of `make`, and the bytes its result holds."""
    make()
    gc.collect()
    tracemalloc.start()
    try:
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, held


def test_pn_build_peak_follows_its_proof():
    # measured 8.31 MB peak for a 6.26 MB proof (1.33); a list of every
    # clause beside the proof gave 19.9 MB (3.18).  Bound: 1.33 + 20 %
    peak, held = _peak_and_held(lambda: build_pn(30))
    assert peak < 1.6 * held, (peak, held)


def test_pool_build_peak_follows_its_proof():
    # measured 2.51 MB for 1.32 MB (1.90); a set per build node to the end
    # gave 5.43 MB for 1.45 MB (3.75).  Bound: 1.90 + 25 %
    peak, held = _peak_and_held(lambda: build_pool_with_stats(10, 0))
    assert peak < 2.4 * held, (peak, held)


def test_regrti_build_peak_follows_its_proof():
    # measured 2.77 MB for 1.32 MB (2.10); a frozenset key per learned
    # clause gave 3.99 MB for 1.33 MB (3.00), and a set per build node
    # 7.09 MB for 1.48 MB (4.78).  Bound: 2.10 + 20 %
    peak, held = _peak_and_held(lambda: build_regrti_with_stats(10, 0))
    assert peak < 2.5 * held, (peak, held)


def test_solver_walk_cache_is_small_beside_its_trace():
    # the blocked axioms cached for GGT(12), seed 0 (681 orders): measured
    # 0.47 MB beside a 6.38 MB result (trace, markers, learned clauses),
    # 0.073 of it; with each entry's axiom kind in place of its literal the
    # cache took 0.61 MB (0.096), with the decision walk's arrays 1.51 MB
    # (0.239), and whole skeletons 13.9 MB (2.19).  Bound: 0.073 + 20 %
    f = gen_ggt(12, 0)
    Solver(f, trace=True).solve()
    gc.collect()
    tracemalloc.start()
    try:
        solver = Solver(f, trace=True)
        result = solver.solve()
        before = tracemalloc.get_traced_memory()[0]
        solver._pi_cache.clear()
        cache = before - tracemalloc.get_traced_memory()[0]
        del solver
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.status == "UNSAT"
    assert cache < 0.088 * held, (cache, held)
