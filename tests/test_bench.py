import dataclasses

import pytest

from ggtkit import bench, lr_engine, solver
from ggtkit.bench import BenchError, BenchRecord, bench_run, fit_slope, run_one, summarize, to_csv
from ggtkit.proofs import RESOLVE


def test_pn_slope_on_spec_sizes():
    records, summary = bench_run([8, 12, 16, 24, 32], [0], ("pn",), wall=False)
    assert all(r.status == "ok" for r in records)
    slope = fit_slope([(r.n, r.lines) for r in records])
    assert slope <= 3.2, slope
    assert any(line.startswith("slope pn lines") for line in summary)


def test_pool_slopes_within_bounds():
    records, _ = bench_run(range(4, 11), [0], ("pool",), wall=False)
    good = [r for r in records if r.n >= 6]
    assert fit_slope([(r.n, r.lines) for r in good]) <= 6.2
    assert fit_slope([(r.n, r.maxWidth) for r in good]) <= 2.2


def test_node_budget_degrades_to_timeout_row():
    records, _ = bench_run([8, 4], [0], ("pool",), node_budget=40, wall=False)
    statuses = {r.n: r.status for r in records}
    assert statuses[8] == "TIMEOUT"
    # the sweep continued past the capped run
    assert len(records) == 2


@pytest.mark.parametrize("artifact", ["pool", "regrti"])
def test_time_cap_stops_a_build_at_the_first_stage_boundary(monkeypatch, artifact):
    stage = lr_engine._Engine._stage
    stages = []

    def counted(engine):
        stages.append(engine.stats.stages)
        stage(engine)

    monkeypatch.setattr(lr_engine._Engine, "_stage", counted)
    records, _ = bench_run([12], [0], (artifact,), time_cap=0, wall=False)
    assert len(stages) == 1  # GGT(12), seed 0, takes 150 stages uncapped
    (rec,) = records
    assert (rec.status, rec.lines) == ("TIMEOUT", 0)
    assert to_csv(records).splitlines()[1] == f"ggt,12,0,{artifact},0,0,0,0,0,0,0,TIMEOUT"


def test_time_cap_judges_a_pn_row_after_it_finishes():
    pn = run_one("pn", 8, 0, time_cap=0)
    assert pn.status == "TIMEOUT"
    assert pn.lines > 0


@pytest.mark.parametrize("cap", [{"time_cap": 0}, {"node_budget": 1}], ids=["time_cap", "node_budget"])
def test_a_cap_stops_a_dpll_search_at_the_first_conflict_boundary(monkeypatch, cap):
    handle = solver.Solver._handle_conflict
    conflicts = []

    def counted(search, conf):
        conflicts.append(conf)
        return handle(search, conf)

    monkeypatch.setattr(solver.Solver, "_handle_conflict", counted)
    records, _ = bench_run([12], [0], ("dpll",), wall=False, **cap)
    assert len(conflicts) == 1  # GGT(12), seed 0, takes 1 579 conflicts uncapped
    assert to_csv(records).splitlines()[1] == "ggt,12,0,dpll,0,0,0,0,0,0,0,TIMEOUT"


def test_run_one_rejects_an_unknown_artifact():
    with pytest.raises(BenchError, match="unknown artifact 'bogus'"):
        run_one("bogus", 4, 0)


def test_run_one_raises_when_a_proof_fails_its_self_check(monkeypatch):
    build = bench.build_pn

    def corrupted(n):
        # one inference's pivot moved to another variable: its premises
        # clash on one variable only, so the step no longer resolves
        d = build(n)
        nodes = list(d.nodes)
        nd = next(nd for nd in nodes if nd.rule == RESOLVE)
        nodes[nd.nid] = dataclasses.replace(nd, pivot=nd.pivot + 1)
        return dataclasses.replace(d, nodes=tuple(nodes))

    monkeypatch.setattr(bench, "build_pn", corrupted)
    with pytest.raises(BenchError, match="pn self-check failed"):
        run_one("pn", 5, 0)


def test_timeout_rows_excluded_from_slopes():
    ok = BenchRecord("ggt", 8, 0, "pool", lines=100, status="ok")
    bad = BenchRecord("ggt", 9, 0, "pool", lines=1, status="TIMEOUT")
    ok2 = BenchRecord("ggt", 10, 0, "pool", lines=200, status="ok")
    lines = summarize([ok, bad, ok2])
    slope = fit_slope([(8, 100), (10, 200)])
    assert f"slope pool lines: {slope:.2f}" in lines


def test_csv_shape():
    rec = run_one("dpll", 4, 0)
    text = to_csv([rec])
    header, row = text.strip().split("\n")
    assert len(header.split(",")) == len(row.split(","))
    assert rec.conflicts > 0 and rec.decisions >= 0
