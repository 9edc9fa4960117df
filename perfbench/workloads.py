"""Workload inputs and the two operations timed on every proof artifact.

An artifact is one proof the toolkit produces for one parsed instance.
`produce` is what `ggt refute` / `ggt solve --trace` do for it: build or
solve, self-check with the CLI's profiles, serialize.  `verify` is what
`ggt check` does with the text: parse, check, and in addition check a few
seeded mutants whose verdict is known.  Both only call public functions of
`ggtkit` and wrap every call in a span named `<layer>.<call>`.
"""

from __future__ import annotations

import random
import zlib
from collections import namedtuple
from dataclasses import dataclass, field

from ggtkit.bpo import Bpo, bpo_clause
from ggtkit.checker import ALL_PROFILES, GREEDY_UP, INPUT_LEMMA, POOL, REGULAR, VALID, check_proof
from ggtkit.dimacs import read_dimacs, write_dimacs
from ggtkit.formulas import FormulaInstance, gen_ggt, gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import parse_proof, serialize_proof
from ggtkit.proofs import LEMMA, RESOLVE, TREE, Derivation, ProofNode
from ggtkit.solver import solve


@dataclass(frozen=True)
class Spec:
    label: str
    make: object  # () -> FormulaInstance
    kinds: tuple[str, ...]


def _guard_seeds(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(range(1 << 20), count)


def _order(n: int, minimals: int, rng: random.Random) -> Bpo:
    """A bipartite order with a fixed number of minimal vertices.

    Fixing the width fixes the size of the pi derivation, so the seed only
    varies which vertices are minimal and which lie below each other one.
    """
    low = rng.sample(range(n), minimals)
    pairs = [(a, k) for k in range(n) if k not in low for a in rng.sample(low, rng.randint(1, 3))]
    return Bpo.of(n, pairs)


def _refute(seed):
    return [Spec(f"ggt13-g{g}", lambda g=g: gen_ggt(13, g), ("pool", "regrti"))
            for g in _guard_seeds(seed, 4)]


def _solve(seed):
    return [Spec(f"ggt13-g{g}", lambda g=g: gen_ggt(13, g), ("solve",))
            for g in _guard_seeds(seed, 3)]


def _gt_orders(seed):
    rng = random.Random(seed)
    specs = [Spec("gt40", lambda: gen_gt(40), ("pn",))]
    for i in range(4):
        specs.append(Spec(f"gtpi40-{i}",
                          lambda s=rng.random(): gen_gt_pi(40, _order(40, 34, random.Random(s))),
                          ("ppi",)))
    return specs


def _greedy_verify(seed):
    return [Spec(f"ggt9-g{g}", lambda g=g: gen_ggt(9, g), ("greedy",))
            for g in _guard_seeds(seed, 8)]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "refute": _refute,
    "solve": _solve,
    "gt-orders": _gt_orders,
    "greedy-verify": _greedy_verify,
}

# Self-check profiles: those `ggt refute` uses per mode; `ggt solve` has none.
SELF_CHECK = {
    "pool": (VALID, REGULAR, POOL),
    "regrti": (VALID, REGULAR, POOL, INPUT_LEMMA),
    "greedy": (VALID, REGULAR, POOL, INPUT_LEMMA),
    "pn": (VALID, REGULAR),
    "ppi": (VALID, REGULAR),
    "solve": (),
}
VERIFY = dict(SELF_CHECK, greedy=ALL_PROFILES, solve=(VALID,))

_BUILD_SPAN = {
    "pool": "lr_engine.pool_build",
    "regrti": "lr_engine.regrti_build",
    "greedy": "lr_engine.regrti_build",
    "pn": "gtproofs.build",
    "ppi": "gtproofs.build",
    "solve": "solver.solve",
}


@dataclass
class Artifact:
    key: str
    kind: str
    inst: FormulaInstance


def setup(specs, rec) -> tuple[list[Artifact], int, list[str]]:
    """Generate each instance and round-trip it through DIMACS text.

    Returns the artifacts over the parsed instances, the DIMACS byte count
    and the errors found (a read-back that differs from what was written).
    """
    artifacts, nbytes, errors = [], 0, []
    for spec in specs:
        with rec.span("formulas.gen"):
            made = spec.make()
        with rec.span("dimacs.write"):
            text = write_dimacs(made)
        with rec.span("dimacs.read"):
            inst = read_dimacs(text)
        nbytes += len(text.encode())
        if inst.clauses != made.clauses or inst.pi != made.pi or inst.seed != made.seed:
            errors.append(f"{spec.label}: DIMACS read-back differs from the generated instance")
        artifacts.extend(Artifact(f"{spec.label}-{kind}", kind, inst) for kind in spec.kinds)
    return artifacts, nbytes, errors


@dataclass
class Produced:
    proof: Derivation
    text: str
    stats: object  # LrStats, SolveStats or None
    status: str
    self_check: object  # CheckReport or None


@dataclass
class Verified:
    parsed: Derivation
    report: object
    mutant_verdicts: list[bool] = field(default_factory=list)


def produce(art: Artifact, rec) -> Produced:
    inst, kind = art.inst, art.kind
    markers, stats, status = None, None, "UNSAT"
    with rec.span(_BUILD_SPAN[kind]):
        if kind == "pool":
            proof, stats = build_pool_with_stats(inst)
        elif kind in ("regrti", "greedy"):
            proof, stats = build_regrti_with_stats(inst)
        elif kind == "pn":
            proof = build_pn(inst.n)
        elif kind == "ppi":
            proof = build_ppi(inst.n, inst.pi)
        else:
            result = solve(inst, trace=True)
            proof, stats, status = result.trace, result.stats, result.status
            markers = result.decision_markers
    report = None
    if SELF_CHECK[kind]:
        with rec.span("checker.self_check"):
            report = check_proof(proof, inst, SELF_CHECK[kind])
    with rec.span("proof_io.serialize"):
        text = serialize_proof(proof, markers)
    return Produced(proof, text, stats, status, report)


def mutants(art: Artifact, proof: Derivation, seed: int) -> list[tuple[Derivation, str]]:
    """Seeded corruptions of a correct proof, each with the profile that must reject it.

    Mirrors the checker discrimination tests: a corrupted pivot breaks
    `valid`; in trees, a lemma retargeted to a later node breaks `pool`.
    """
    rng = random.Random(f"{seed}:{art.key}")
    nodes = proof.nodes
    out = []
    resolvents = [nd for nd in nodes if nd.rule == RESOLVE]
    for nd in rng.sample(resolvents, min(2, len(resolvents))):
        used = {abs(l) for p in nd.premises for l in nodes[p].clause}
        free = [v for v in range(1, art.inst.nvars + 1) if v not in used]
        bad = ProofNode(nd.nid, RESOLVE, nd.clause, nd.premises, rng.choice(free))
        out.append((_replace(proof, bad), VALID))
    if proof.shape == TREE:
        lemmas = [nd for nd in nodes if nd.rule == LEMMA]
        for nd in rng.sample(lemmas, min(2, len(lemmas))):
            later = [m.nid for m in nodes[nd.nid + 1:] if m.clause == nd.clause]
            target = later[0] if later else rng.randrange(nd.nid + 1, len(nodes))
            out.append((_replace(proof, ProofNode(nd.nid, LEMMA, nd.clause, target=target)), POOL))
    return out


def _replace(d: Derivation, node: ProofNode) -> Derivation:
    nodes = list(d.nodes)
    nodes[node.nid] = node
    return Derivation(tuple(nodes), root=d.root, shape=d.shape, family=d.family, n=d.n, seed=d.seed)


def verify(art: Artifact, text: str, muts, rec) -> Verified:
    with rec.span("proof_io.parse"):
        parsed = parse_proof(text)
    with rec.span("checker.verify_check"):
        report = check_proof(parsed, art.inst, VERIFY[art.kind])
    out = Verified(parsed, report)
    for mutant, profile in muts:
        with rec.span("checker.verify_check"):
            verdict = check_proof(mutant, art.inst, (profile,))
        out.mutant_verdicts.append(any(v.profile == profile for v in verdict.violations))
    return out


def produce_errors(art: Artifact, p: Produced) -> list[str]:
    errors = []
    if p.status != "UNSAT":
        errors.append(f"solver status {p.status}")
    if p.self_check is not None and not p.self_check.ok:
        errors.append("self-check failed: " + "; ".join(p.self_check.lines()[:3]))
    expected = bpo_clause(art.inst.pi) if art.kind == "ppi" else frozenset()
    if p.proof.root_clause != expected:
        errors.append(f"root clause {sorted(p.proof.root_clause)} is not {sorted(expected)}")
    lines = getattr(p.stats, "lines", None)
    if lines is not None and lines != len(p.proof):
        errors.append(f"stats.lines {lines} != proof length {len(p.proof)}")
    return errors


def verify_errors(p: Produced, v: Verified) -> list[str]:
    errors = []
    if v.parsed.nodes != p.proof.nodes or v.parsed.root != p.proof.root:
        errors.append("parsed proof differs from the built one")
    # greedy_up verdicts are counted in the signature, not failed
    bad = [str(x) for x in v.report.violations if x.profile != GREEDY_UP]
    if bad:
        errors.append("re-check failed: " + "; ".join(bad[:3]))
    accepted = v.mutant_verdicts.count(False)
    if accepted:
        errors.append(f"{accepted} mutant(s) accepted")
    return errors


Signature = namedtuple("Signature", "lines bytes crc32 stages conflicts greedy_violations greedy_flags")


def signature(p: Produced, v: Verified) -> Signature:
    """What must repeat exactly across passes and between traced and untraced runs.

    greedy_up verdicts are counts here, not failures: which side of the
    builder/profile disagreement is wrong is still open.
    """
    raw = p.text.encode()
    greedy = [x for x in v.report.violations if x.profile == GREEDY_UP]
    flags = len(v.report.flags) if GREEDY_UP in v.report.profiles else 0
    return Signature(len(p.proof), len(raw), zlib.crc32(raw), getattr(p.stats, "stages", 0),
                     getattr(p.stats, "conflicts", 0), len(greedy), flags)
