"""DIMACS CNF serialization with family metadata in comment lines.

Header comments, those before the problem line, carry enough to
reproduce the instance; comments after it carry no metadata:

    c family=ggt n=6 seed=1
    c family=gtpi n=4 pi=1:3,2:3
    c guards=unguarded          (GGT with no guarded clause: n < 4)

The seed is provenance only: a GGT instance's guards are read off its
guarded clause copies, and the `guards` key is not read back.

Clause order is canonical (minimality clauses by vertex, then transitivity
clauses by canonical triple) so identical parameters give byte-identical
files.
"""

from __future__ import annotations

from ggtkit.bpo import Bpo
from ggtkit.formulas import GGT, GT, GT_PI, FormulaInstance, GuardError, guarded_copies
from ggtkit.literals import clause_key, make_clause, num_vars, PairError, TautologyError


class DimacsError(ValueError):
    """Parse error carrying the 1-based number of the line that holds its
    cause: a clause, the problem line or the header comment that set a key;
    0 when no line does (no problem line, no `family` or `n`)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_dimacs(instance: FormulaInstance) -> str:
    lines = [f"c family={instance.family} n={instance.n}"]
    if instance.seed is not None:
        lines[0] += f" seed={instance.seed}"
    if instance.family == GT_PI:
        assert instance.pi is not None
        pairs = ",".join(f"{a}:{b}" for a, b in sorted(instance.pi.pairs))
        lines[0] += f" pi={pairs}"
    if instance.family == GGT and next(guarded_copies(instance.n, instance.clauses), None) is None:
        lines.append("c guards=unguarded")
    lines.append(f"p cnf {instance.nvars} {len(instance.clauses)}")
    for clause in instance.clauses:
        lines.append(" ".join(str(l) for l in clause_key(clause)) + " 0")
    return "\n".join(lines) + "\n"


def _parse_header_comment(text: str, meta: dict, meta_line: dict, line_no: int) -> None:
    for tok in text.split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            if key in ("n", "seed"):
                try:
                    val = int(val)
                except ValueError:
                    raise DimacsError(line_no, f"malformed {key} {val!r} in header") from None
                if key == "n" and val < 2:
                    raise DimacsError(line_no, f"n={val} in header; the families need n >= 2")
            meta[key] = val
            meta_line[key] = line_no


class _Literals(dict):
    """Each literal token met so far and its value, converted once: one int
    per distinct token, shared by every clause that holds it."""

    def __missing__(self, tok: str) -> int:
        lit = self[tok] = int(tok)
        return lit


def read_dimacs(text: str) -> FormulaInstance:
    meta: dict[str, str | int] = {}
    meta_line: dict[str, int] = {}  # the line that set each key
    nvars = nclauses = None
    problem_line = 0
    clauses = []
    clause_lines = []
    seen = set()
    lit_of = _Literals().__getitem__
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            if nvars is None:
                _parse_header_comment(line[1:], meta, meta_line, line_no)
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise DimacsError(line_no, f"second problem line; the first is line {problem_line}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(line_no, f"malformed problem line {line!r}")
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed problem line {line!r}") from None
            problem_line = line_no
            continue
        if nvars is None:
            raise DimacsError(line_no, "clause before problem line")
        parts = line.split()
        if parts[-1] != "0":
            raise DimacsError(line_no, "clause not terminated by 0")
        try:
            lits = list(map(lit_of, parts[:-1]))
        except ValueError:
            raise DimacsError(line_no, f"bad literal in {line!r}") from None
        for lit in lits:
            if lit == 0 or abs(lit) > nvars:
                raise DimacsError(line_no, f"literal {lit} out of range 1..{nvars}")
        try:
            clause = make_clause(lits)
        except TautologyError as exc:
            raise DimacsError(line_no, str(exc)) from None
        if len(clause) != len(lits):
            raise DimacsError(line_no, "duplicate literal in clause")
        if clause in seen:
            raise DimacsError(line_no, "duplicate clause")
        seen.add(clause)
        clauses.append(clause)
        clause_lines.append(line_no)
    if nvars is None:
        raise DimacsError(0, "missing problem line")
    if nclauses != len(clauses):
        raise DimacsError(problem_line, f"header promised {nclauses} clauses, found {len(clauses)}")

    family = meta.get("family")
    if family not in (GT, GGT, GT_PI):
        raise DimacsError(meta_line.get("family", 0), f"missing or unknown family in header: {family!r}")
    if "n" not in meta:
        raise DimacsError(0, "missing n in header")
    n = meta["n"]
    if num_vars(n) != nvars:
        raise DimacsError(problem_line, f"n={n} implies {num_vars(n)} vars, header says {nvars}")
    pi = None
    if family == GT_PI:
        try:
            pairs = [
                tuple(int(x) for x in item.split(":"))
                for item in meta.get("pi", "").split(",")
                if item
            ]
            pi = Bpo.of(n, pairs)
        except (ValueError, PairError) as exc:
            raise DimacsError(meta_line.get("pi", 0), f"malformed pi in header: {exc}") from None
    instance = FormulaInstance(family=family, n=n, clauses=tuple(clauses), seed=meta.get("seed"), pi=pi)
    try:
        instance.guard_map  # read once here, so a bad pair is a parse error
    except GuardError as exc:
        # no guarded copy: the triangle is missing from the clauses the problem line opens
        line_no = problem_line if exc.index is None else clause_lines[exc.index]
        raise DimacsError(line_no, str(exc)) from None
    return instance
