"""ggtkit benchmark: the cost of producing a certified proof and of verifying it.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

Run from the repository root; the package is imported from `src/`.  The
workload's instances are generated from `--seed`.  With `--trace 0` the
benchmark cycles over the instances for about `--seconds` and prints the
end-to-end metrics; their times are wall seconds scaled to a reference
machine speed (see `reference_work`), and the raw wall times are printed
too.  With `--trace 1` it makes one untraced and one traced pass and prints
the per-layer metrics in raw wall seconds.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

START = time.perf_counter()

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
SETUP_REPS = 3
# Median duration of reference_work() on the machine the bounds were set on
# (2-vCPU x86-64 container, Python 3.11, quiet period).
REFERENCE_S = 0.0152

END_TO_END = (
    ("setup_s", "s"),
    ("produce_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("proof_lines", "count"),
    ("proof_bytes", "bytes"),
)

PER_LAYER = (
    ("formulas.gen_s", "s"),
    ("dimacs.write_s", "s"),
    ("dimacs.read_s", "s"),
    ("dimacs.bytes", "bytes"),
    ("lr_engine.pool_build_s", "s"),
    ("lr_engine.regrti_build_s", "s"),
    ("lr_engine.self_s", "s"),
    ("lr_engine.stages", "count"),
    ("lr_engine.case_iv", "count"),
    ("lr_engine.lines", "count"),
    ("lr_engine.max_width", "count"),
    ("lr_engine.unfold_lines", "count"),
    ("lr_engine.segment_budget", "count"),
    ("lr_engine.unfold_ratio", "ratio"),
    ("gtproofs.build_s", "s"),
    ("gtproofs.build_ppi_dag_s", "s"),
    ("gtproofs.build_ppi_dag_calls", "count"),
    ("bpo.associated_bpo_s", "s"),
    ("bpo.associated_bpo_calls", "count"),
    ("checker.self_check_s", "s"),
    ("checker.verify_check_s", "s"),
    ("checker.self_s", "s"),
    ("checker.valid_s", "s"),
    ("checker.regular_s", "s"),
    ("checker.pool_s", "s"),
    ("checker.input_lemma_s", "s"),
    ("checker.greedy_up_s", "s"),
    ("checker.nodes", "count"),
    ("checker.mutants", "count"),
    ("checker.mutants_rejected", "count"),
    ("checker.greedy_up_violations", "count"),
    ("checker.greedy_up_flags", "count"),
    ("propagation.unit_propagate_s", "s"),
    ("propagation.unit_propagate_calls", "count"),
    ("propagation.conflicts", "count"),
    ("proof_io.serialize_s", "s"),
    ("proof_io.parse_s", "s"),
    ("proof_io.bytes", "bytes"),
    ("solver.solve_s", "s"),
    ("solver.conflicts", "count"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("solver.learned", "count"),
    ("solver.skipped_decisions", "count"),
    ("solver.trace_lines", "count"),
    ("solver.learned_per_conflict", "ratio"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# Span names whose summed duration is a per-layer metric (set-up spans are
# averaged over the set-up repetitions, the others summed over the traced pass).
SPAN_TOTALS = {
    "formulas.gen_s": "formulas.gen",
    "dimacs.write_s": "dimacs.write",
    "dimacs.read_s": "dimacs.read",
    "lr_engine.pool_build_s": "lr_engine.pool_build",
    "lr_engine.regrti_build_s": "lr_engine.regrti_build",
    "gtproofs.build_s": "gtproofs.build",
    "gtproofs.build_ppi_dag_s": "gtproofs.build_ppi_dag",
    "bpo.associated_bpo_s": "bpo.associated_bpo",
    "checker.self_check_s": "checker.self_check",
    "checker.verify_check_s": "checker.verify_check",
    "propagation.unit_propagate_s": "propagation.unit_propagate",
    "proof_io.serialize_s": "proof_io.serialize",
    "proof_io.parse_s": "proof_io.parse",
    "solver.solve_s": "solver.solve",
}
SPAN_CALLS = {
    "gtproofs.build_ppi_dag_calls": "gtproofs.build_ppi_dag",
    "bpo.associated_bpo_calls": "bpo.associated_bpo",
    "propagation.unit_propagate_calls": "propagation.unit_propagate",
}

# What a pass keeps of each artifact: no proofs, so the heap stays small.
Outcome = namedtuple("Outcome", "art stats sig mutant_verdicts seconds")


def import_package():
    """Import ggtkit from this checkout's src/, or exit without a result."""
    if not (SRC / "ggtkit" / "__init__.py").is_file():
        sys.exit(f"error: no ggtkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ggtkit

    if Path(ggtkit.__file__).resolve().parent != SRC / "ggtkit":
        sys.exit(f"error: imported ggtkit from {ggtkit.__file__}, not from {SRC}")


def reference_work():
    """Fixed pure-Python work that calls nothing in ggtkit.

    On a shared host the machine's speed drifts by up to 2x for minutes at
    a time, and ops slow roughly alike: timed between ops, this loop tracks
    much of the drift (over 25 s windows, op time / loop time spread 3-15 %
    where raw times spread 20-50 %), so each op's time is scaled by
    REFERENCE_S over the mean of the loop's times just before and after it.
    """
    seen = {}
    for i in range(20000):
        key = tuple(sorted(frozenset((i % 97, -(i % 89), i % 13 + 100))))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def tail(values):
    """(percentile, value) of the highest percentile above the median with at
    least ten samples beyond it, or None when there are too few samples."""
    n = len(values)
    p = 100 * (n - 10) // n if n > 10 else 0
    if p <= 50:
        return None
    rank = -(-p * n // 100)
    return p, sorted(values)[rank - 1]


class Run:
    """One workload in this process: set-up, timed passes, checks."""

    def __init__(self, wl, name, seed):
        from spans import Recorder

        self.wl = wl
        self.seed = seed
        self.rec = Recorder()
        self.specs = wl.WORKLOADS[name](seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.signatures: dict[str, tuple] = {}
        # per artifact key: (op seconds, reference-loop seconds around the op)
        self.produce_times = defaultdict(list)
        self.verify_times = defaultdict(list)
        self.op_id = 0

    def reference(self):
        """Time reference_work() after a collection; returns its seconds."""
        gc.collect()
        t = time.perf_counter()
        reference_work()
        return time.perf_counter() - t

    def setup(self):
        """Set up SETUP_REPS times; returns [(seconds, reference-loop seconds around it)]."""
        reps = []
        for _ in range(SETUP_REPS):
            ref = self.reference()
            t = time.perf_counter()
            self.artifacts, self.dimacs_bytes, errors = self.wl.setup(self.specs, self.rec)
            reps.append((time.perf_counter() - t, (ref + self.reference()) / 2))
        self.setup_spans = len(self.rec.names)
        self.errors.extend(errors)
        return reps

    def _op(self, kind, fn):
        """Run one operation under an `op.<kind>` span.

        Returns (result, seconds, mean reference-loop seconds just before and after it).
        """
        ref = self.reference()
        self.attempted += 1
        self.rec.op = self.op_id
        self.op_id += 1
        idx = self.rec.open(f"op.{kind}")
        try:
            result = fn()
        except Exception:
            result = None
            self._fail(f"{kind} raised:\n{traceback.format_exc()}")
        finally:
            self.rec.close(idx)
            self.rec.op = -1
        return result, self.rec.duration(idx), (ref + self.reference()) / 2

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def one_pass(self, probe=None):
        """Produce and verify every artifact once; returns their outcomes by key."""
        outcomes = (self.artifact(art, probe) for art in self.artifacts)
        return {o.art.key: o for o in outcomes if o is not None}

    def artifact(self, art, probe=None):
        """Produce and verify one artifact; returns its Outcome, or None if it failed."""
        wl = self.wl
        prod, tp, rp = self._op("produce", lambda: wl.produce(art, self.rec))
        if prod is None:
            return None
        problems = wl.produce_errors(art, prod)
        if problems:
            self._fail(f"{art.key} produce: " + "; ".join(problems))
            return None
        try:
            muts = wl.mutants(art, prod.proof, self.seed)
        except Exception:
            self.attempted += 1
            self._fail(f"{art.key} mutants raised:\n{traceback.format_exc()}")
            return None
        ver, tv, rv = self._op("verify", lambda: wl.verify(art, prod.text, muts, self.rec))
        if ver is None:
            return None
        problems = wl.verify_errors(prod, ver)
        sig = wl.signature(prod, ver)
        first = self.signatures.setdefault(art.key, sig)
        if sig != first:
            problems.append(f"counts {sig} differ from an earlier pass {first}")
        if problems:
            self._fail(f"{art.key} verify: " + "; ".join(problems))
            return None
        self.produce_times[art.key].append((tp, rp))
        self.verify_times[art.key].append((tv, rv))
        stats = prod.stats
        if probe is not None:
            del prod, muts  # keep the collection before the probe small
            gc.collect()
            probe(art, ver.parsed)
        return Outcome(art, stats, sig, ver.mutant_verdicts, tp + tv)


def end_to_end(run, name, seconds, setup):
    """Cycle over the artifacts until `seconds` would be exceeded, each at least once.

    `setup` is (import seconds, [(set-up seconds, reference-loop seconds around it)]).
    """
    import_s, reps = setup
    done, count = 0, len(run.artifacts)
    t0 = time.perf_counter()
    while True:
        run.artifact(run.artifacts[done % count])
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= count and elapsed + elapsed / done > seconds:
            break

    def median(samples, scaled):
        """Median time, each sample optionally scaled by REFERENCE_S over the
        reference loop timed around it."""
        return statistics.median(t * REFERENCE_S / r if scaled else t for t, r in samples)

    def summed(times, scaled):
        return sum(median(samples, scaled) for samples in times.values())

    refs = [r for times in (run.produce_times, run.verify_times) for v in times.values() for _, r in v]
    produce, verify = summed(run.produce_times, False), summed(run.verify_times, False)
    sigs = run.signatures.values()
    metrics = {
        "setup_s": import_s * REFERENCE_S / reps[0][1] + median(reps, True),
        "produce_s": summed(run.produce_times, True),
        "verify_s": summed(run.verify_times, True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "proof_lines": sum(s.lines for s in sigs),
        "proof_bytes": sum(s.bytes for s in sigs),
    }
    ok = len(run.signatures) == len(run.artifacts)
    print(f"workload {name} seed {run.seed}: {count} artifacts, {done / count:.2f} passes "
          f"in {elapsed:.2f} s, {run.attempted} ops, {run.failed} failed "
          f"(failed_ratio {run.failed / max(run.attempted, 1):.4f})")
    print(f"  wall times: import {import_s:.4f} s, set-up {median(reps, False):.4f} s, "
          f"produce {produce:.4f} s, verify {verify:.4f} s; reference loop median "
          f"{statistics.median(r for _, r in reps) * 1000:.2f} ms in set-up, "
          f"{statistics.median(refs) * 1000:.2f} ms in ops")
    for label, times in (("produce", run.produce_times), ("verify", run.verify_times)):
        samples = [t for v in times.values() for t, _ in v]
        if not samples:
            continue
        line = f"  {label} op: median {statistics.median(samples):.4f} s"
        t = tail(samples)
        line += f", p{t[0]} {t[1]:.4f} s" if t else ", no percentile above the median has 10 samples beyond it"
        print(line + f" ({len(samples)} samples)")
    return metrics, ok


def per_layer(run, wl, name):
    from ggtkit.checker import check_proof
    from spans import traced_imports

    rec = run.rec
    untraced = run.one_pass()
    counts = defaultdict(int)
    probes = defaultdict(float)

    def probe(art, parsed):
        for profile in dict.fromkeys(wl.SELF_CHECK[art.kind] + wl.VERIFY[art.kind]):
            idx = rec.open(f"probe.checker.{profile}")
            check_proof(parsed, art.inst, (profile,))
            rec.close(idx)
            probes[f"checker.{profile}_s"] += rec.duration(idx)

    traced_from = len(rec.names)
    with traced_imports(rec, counts):
        traced = run.one_pass(probe)
    ok = traced.keys() == untraced.keys() == {a.key for a in run.artifacts}

    own = rec.self_times()
    span_s, span_calls, layer_self = defaultdict(float), defaultdict(int), defaultdict(float)
    for i in range(traced_from, len(rec.names)):
        if rec.ops[i] >= 0:
            span_s[rec.names[i]] += rec.duration(i)
            span_calls[rec.names[i]] += 1
            layer_self[rec.names[i].split(".")[0]] += own[i]
    for i in range(run.setup_spans):
        span_s[rec.names[i]] += rec.duration(i) / SETUP_REPS

    m = dict.fromkeys((k for k, _ in PER_LAYER), 0)
    m.update({metric: span_s[span] for metric, span in SPAN_TOTALS.items()})
    m.update({metric: span_calls[span] for metric, span in SPAN_CALLS.items()})
    m.update(probes)
    m["dimacs.bytes"] = run.dimacs_bytes
    m["lr_engine.self_s"] = layer_self.get("lr_engine", 0.0)
    m["checker.self_s"] = layer_self.get("checker", 0.0)
    m["trace.unattributed_s"] = layer_self["op"]
    m["trace.op_s"] = sum(o.seconds for o in traced.values())
    m["trace.overhead_s"] = m["trace.op_s"] - sum(o.seconds for o in untraced.values())
    m["propagation.conflicts"] = counts["propagation.conflicts"]

    for art, st, sig, verdicts, _ in traced.values():
        if art.kind in ("pool", "regrti", "greedy"):
            m["lr_engine.stages"] += st.stages
            m["lr_engine.case_iv"] += st.case_iv
            m["lr_engine.lines"] += st.lines
            m["lr_engine.max_width"] = max(m["lr_engine.max_width"], st.max_width)
            m["lr_engine.unfold_lines"] += st.unfold_lines
            m["lr_engine.segment_budget"] += st.segment_budget
        if art.kind == "solve":
            for field in ("conflicts", "decisions", "propagations", "learned", "skipped_decisions"):
                m[f"solver.{field}"] += getattr(st, field)
            m["solver.trace_lines"] += sig.lines
        m["checker.nodes"] += sig.lines
        m["checker.mutants"] += len(verdicts)
        m["checker.mutants_rejected"] += sum(verdicts)
        m["checker.greedy_up_violations"] += sig.greedy_violations
        m["checker.greedy_up_flags"] += sig.greedy_flags
        m["proof_io.bytes"] += sig.bytes
    if m["lr_engine.segment_budget"]:
        m["lr_engine.unfold_ratio"] = m["lr_engine.unfold_lines"] / m["lr_engine.segment_budget"]
    if m["solver.conflicts"]:
        m["solver.learned_per_conflict"] = m["solver.learned"] / m["solver.conflicts"]

    attributed = sum(layer_self.values())
    if abs(attributed - m["trace.op_s"]) > 1e-6 * max(m["trace.op_s"], 1.0):
        ok = False
        run.errors.append(f"layer self times sum to {attributed}, traced op time is {m['trace.op_s']}")
    print(f"workload {name} seed {run.seed} traced: {len(traced)} artifacts, "
          f"{run.attempted} ops, {run.failed} failed; "
          f"op time untraced {m['trace.op_s'] - m['trace.overhead_s']:.4f} s, "
          f"traced {m['trace.op_s']:.4f} s")
    print("  self time by layer: " + ", ".join(
        f"{layer if layer != 'op' else 'unattributed'} {t:.4f} s ({100 * t / m['trace.op_s']:.1f}%)"
        for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1])))
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}-seed{run.seed}.jsonl"
    rec.dump(path)
    print(f"  {len(rec.names)} spans written to {path.relative_to(ROOT)}")
    return m, ok


def run_workload(name, seed, seconds, trace):
    import_package()
    import workloads as wl

    if name not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {', '.join(wl.WORKLOADS)}")
    run = Run(wl, name, seed)
    import_s = time.perf_counter() - START
    setup = (import_s, run.setup())
    if trace:
        metrics, ok = per_layer(run, wl, name)
        units = PER_LAYER
    else:
        metrics, ok = end_to_end(run, name, seconds, setup)
        units = END_TO_END
    for message in run.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    for key, unit in units:
        print(f"  {key:34s} {metrics[key]:.6g} {unit}")
    correct = ok and run.failed == 0 and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }))


def run_all(args):
    """Each workload in its own process, one after the other."""
    import_package()
    import workloads as wl

    codes = []
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
