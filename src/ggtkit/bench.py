"""Benchmark harness: sweeps, CSV records, and scaling-exponent fits."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

from ggtkit.checker import SELF_CHECK, check_proof
from ggtkit.formulas import gen_ggt, gen_gt
from ggtkit.gtproofs import build_pn
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proofs import BudgetExceeded
from ggtkit.solver import solve

ARTIFACTS = ("pn", "pool", "regrti", "dpll")

OK = "ok"
TIMEOUT = "TIMEOUT"


@dataclass
class BenchRecord:
    family: str
    n: int
    seed: int
    artifact: str
    lines: int = 0
    maxWidth: int = 0
    stages: int = 0
    caseIvCount: int = 0
    conflicts: int = 0
    decisions: int = 0
    wallMillis: int = 0
    status: str = OK

    def row(self) -> list[str]:
        return [str(getattr(self, col)) for col in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))  # the CSV header, in field order


class BenchError(RuntimeError):
    pass


def fit_slope(points) -> float | None:
    """Least-squares slope of log(y) against log(x); needs two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    xm = sum(x for x, _ in pts) / len(pts)
    ym = sum(y for _, y in pts) / len(pts)
    den = sum((x - xm) ** 2 for x, _ in pts)
    if den == 0:
        return None
    return sum((x - xm) * (y - ym) for x, y in pts) / den


def run_one(artifact: str, n: int, seed: int, node_budget: int | None = None,
            time_cap: float | None = None) -> BenchRecord:
    """One row.  A pool or regRTI build stops at the first stage boundary
    past `time_cap` seconds, or past `node_budget` nodes; a dpll search
    stops at the first conflict boundary past `time_cap`, or once it has
    used `node_budget` conflicts.  A pn row is judged against the cap only
    once it has finished."""
    start = time.monotonic()
    deadline = None if time_cap is None else start + time_cap
    rec = BenchRecord(family="gt" if artifact == "pn" else "ggt", n=n, seed=seed,
                      artifact=artifact)
    if artifact not in ARTIFACTS:
        raise BenchError(f"unknown artifact {artifact!r}")
    try:
        inst = gen_gt(n) if artifact == "pn" else gen_ggt(n, seed)
        if artifact == "dpll":
            result = solve(inst, deadline=deadline, max_conflicts=node_budget)
            rec.conflicts = result.stats.conflicts
            rec.decisions = result.stats.decisions
        else:
            if artifact == "pn":
                d = build_pn(n)
            else:
                build = build_pool_with_stats if artifact == "pool" else build_regrti_with_stats
                d, st = build(inst, max_nodes=node_budget, deadline=deadline)
                rec.stages, rec.caseIvCount = st.stages, st.case_iv
            report = check_proof(d, inst, SELF_CHECK[artifact])
            if not report.ok:
                raise BenchError(f"{artifact} self-check failed: {report.lines()[:3]}")
            rec.lines, rec.maxWidth = len(d), d.max_width()
    except BudgetExceeded:
        rec.status = TIMEOUT
    elapsed = time.monotonic() - start
    rec.wallMillis = int(elapsed * 1000)
    if time_cap is not None and elapsed > time_cap:
        rec.status = TIMEOUT
    return rec


def bench_run(ns, seeds, artifacts, node_budget: int | None = 4_000_000,
              time_cap: float | None = 300.0, wall: bool = True):
    """Run the sweep; returns (records, summary lines).

    Exceeding a resource cap degrades the run to a TIMEOUT row instead of
    aborting the sweep.  With wall=False the wallMillis column is zeroed
    so repeated identical plans produce byte-identical CSV files.
    """
    records = []
    for artifact in artifacts:
        for n in ns:
            for seed in seeds:
                rec = run_one(artifact, n, seed, node_budget, time_cap)
                if not wall:
                    rec.wallMillis = 0
                records.append(rec)
    return records, summarize(records)


def summarize(records) -> list[str]:
    lines = []
    for artifact in ARTIFACTS:
        good = [r for r in records if r.artifact == artifact and r.status == OK and r.n >= 6]
        if not good:
            continue
        if artifact == "dpll":
            slope = fit_slope([(r.n, r.conflicts) for r in good])
            if slope is not None:
                lines.append(f"slope {artifact} conflicts: {slope:.2f}")
        else:
            slope = fit_slope([(r.n, r.lines) for r in good])
            wslope = fit_slope([(r.n, r.maxWidth) for r in good])
            if slope is not None:
                lines.append(f"slope {artifact} lines: {slope:.2f}")
            if wslope is not None:
                lines.append(f"slope {artifact} maxWidth: {wslope:.2f}")
    return lines


def to_csv(records) -> str:
    out = [",".join(CSV_COLUMNS)]
    out.extend(",".join(rec.row()) for rec in records)
    return "\n".join(out) + "\n"
