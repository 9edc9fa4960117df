"""Command-line front end: gen, refute, check, solve, bench."""

from __future__ import annotations

import argparse
import sys

from ggtkit.bench import ARTIFACTS, bench_run, to_csv
from ggtkit.bpo import Bpo, BpoError
from ggtkit.checker import ALL_PROFILES, SELF_CHECK, check_proof
from ggtkit.dimacs import DimacsError, read_dimacs, write_dimacs
from ggtkit.formulas import GGT, GT, GT_PI, SizeError, gen_ggt, gen_gt, gen_gt_pi
from ggtkit.gtproofs import build_pn
from ggtkit.lr_engine import NodeBudgetExceeded, build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import ProofParseError, parse_proof, serialize_proof
from ggtkit.solver import UnsupportedFamilyError, solve

USAGE_ERROR = 2


class NotUtf8Error(ValueError):
    """An input file that is not UTF-8 text."""


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; an error names the file and the line of
    the first byte that is not UTF-8, numbered as the parsers number them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # "x" stands for the bad byte, so a line that starts with it counts
        line = len((data[: exc.start].decode() + "x").splitlines())
        raise NotUtf8Error(
            f"{path}: line {line}: not UTF-8 text (byte {data[exc.start]:#04x})"
        ) from None


def _cmd_gen(args) -> int:
    if args.family == GT:
        inst = gen_gt(args.n)
    elif args.family == GGT:
        inst = gen_ggt(args.n, args.seed)
    else:
        inst = gen_gt_pi(args.n, Bpo.parse(args.n, args.pi or ""))
    with open(args.output, "w") as fh:
        fh.write(write_dimacs(inst))
    print(f"wrote {args.family} n={args.n} ({len(inst.clauses)} clauses) to {args.output}")
    return 0


def _self_check(proof, inst, profiles) -> bool:
    """Check a proof before it is written; on failure print the report."""
    report = check_proof(proof, inst, profiles)
    if not report.ok:
        print("self-check FAILED:", file=sys.stderr)
        for line in report.lines():
            print(f"  {line}", file=sys.stderr)
    return report.ok


def _cmd_refute(args) -> int:
    inst = read_dimacs(_read_text(args.input))
    if args.mode == "pn":
        if inst.family != GT:
            print(f"mode pn needs a gt instance, got {inst.family}", file=sys.stderr)
            return USAGE_ERROR
        d = build_pn(inst.n)
    else:
        build = build_pool_with_stats if args.mode == "pool" else build_regrti_with_stats
        d, stats = build(inst, max_nodes=args.max_nodes)
        print(
            f"{args.mode}: {stats.lines} lines, width {stats.max_width}, "
            f"{stats.stages} stages, {stats.case_iv} branchings"
        )
        if args.stage_log is not None:
            with open(args.stage_log, "w") as fh:
                for rec in stats.stage_log:
                    fh.write(" ".join(f"{k}={v}" for k, v in zip(rec._fields, rec)) + "\n")
    if not _self_check(d, inst, SELF_CHECK[args.mode]):
        return 1
    with open(args.output, "w") as fh:
        fh.write(serialize_proof(d))
    print(f"wrote proof ({len(d)} lines) to {args.output}; self-check passed")
    return 0


def _cmd_check(args) -> int:
    inst = read_dimacs(_read_text(args.formula))
    proof = parse_proof(_read_text(args.proof))
    profiles = tuple(p.strip() for p in args.profiles.split(",") if p.strip())
    if not profiles:
        print(f"no profile given; choose from {','.join(ALL_PROFILES)}", file=sys.stderr)
        return USAGE_ERROR
    for p in profiles:
        if p not in ALL_PROFILES:
            print(f"unknown profile {p!r}; choose from {','.join(ALL_PROFILES)}", file=sys.stderr)
            return USAGE_ERROR
    report = check_proof(proof, inst, profiles)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_solve(args) -> int:
    inst = read_dimacs(_read_text(args.input))
    result = solve(inst, trace=args.trace is not None)
    st = result.stats
    print(result.status)
    print(
        f"decisions={st.decisions} propagations={st.propagations} "
        f"conflicts={st.conflicts} learned={st.learned} restarts={st.restarts}"
    )
    if args.trace is not None:
        if not _self_check(result.trace, inst, SELF_CHECK["dpll"]):
            return 1
        with open(args.trace, "w") as fh:
            fh.write(serialize_proof(result.trace, result.decision_markers))
        print(f"wrote trace ({len(result.trace)} lines) to {args.trace}; self-check passed")
    return 0


def _cmd_bench(args) -> int:
    artifacts = tuple(a.strip() for a in args.artifacts.split(",") if a.strip())
    if not artifacts:
        print(f"no artifact given; choose from {','.join(ARTIFACTS)}", file=sys.stderr)
        return USAGE_ERROR
    for a in artifacts:
        if a not in ARTIFACTS:
            print(f"unknown artifact {a!r}; choose from {','.join(ARTIFACTS)}", file=sys.stderr)
            return USAGE_ERROR
    ns = range(args.n_min, args.n_max + 1)
    if not ns:
        print(f"empty size range: --n-min {args.n_min} exceeds --n-max {args.n_max}",
              file=sys.stderr)
        return USAGE_ERROR
    if args.seeds < 1:
        print(f"no seed to run: --seeds {args.seeds}; give at least 1", file=sys.stderr)
        return USAGE_ERROR
    records, summary = bench_run(
        ns,
        range(args.seeds),
        artifacts,
        node_budget=args.node_budget,
        time_cap=args.time_cap,
        wall=not args.no_wall,
    )
    with open(args.output, "w") as fh:
        fh.write(to_csv(records))
    print(f"wrote {len(records)} rows to {args.output}")
    for line in summary:
        print(line)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggt",
        description="Ordering-principle CNF families, their short refutations, and a clause-learning solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a CNF instance")
    p.add_argument("--family", choices=(GT, GGT, GT_PI), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pi", help="bipartite order pairs a:b,c:d (gtpi only)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("refute", help="build a refutation for an instance")
    p.add_argument("--mode", choices=("pool", "regrti", "pn"), required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--stage-log", help="write one line per construction stage to this file")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("check", help="check a proof against profiles")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-p", "--proof", required=True)
    p.add_argument("--profiles", default="valid,regular,pool")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="run the clause-learning solver")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--trace", help="write a replayable trace to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="sweep sizes and write a CSV report")
    p.add_argument("--artifacts", default="pn,pool,regrti,dpll")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-wall", action="store_true",
                   help="zero the wall-clock column for reproducible files")
    p.add_argument("--node-budget", type=int, default=4_000_000)
    p.add_argument("--time-cap", type=float, default=300.0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, ProofParseError, SizeError, BpoError, NodeBudgetExceeded,
            UnsupportedFamilyError, OSError, NotUtf8Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
