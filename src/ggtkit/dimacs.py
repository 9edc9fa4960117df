"""DIMACS CNF serialization with family metadata in comment lines.

Header comments, those before the problem line, carry enough to
reproduce the instance; comments after it carry no metadata:

    c family=ggt n=6 seed=1
    c family=gtpi n=4 pi=1:3,2:3
    c guards=unguarded          (GGT with no guarded clause: n < 4)

The seed is provenance only: a GGT instance's guards are read off its
guarded clause copies, and the `guards` key is not read back.  A ggt
file must then hold exactly the GGT(n) clauses under those guards (GT(n)'s
for n < 4), and a gt file exactly GT(n)'s, both compared with
`formulas.ggt_clauses`; the first line that holds another clause is
named.  A gt or ggt file with fewer clauses than GT(n) is rejected at
its problem line before any per-n table is built, so a header `n` the
file cannot hold costs nothing.  A gtpi file's clauses are not compared.

Clause order is canonical (minimality clauses by vertex, then transitivity
clauses by canonical triple) so identical parameters give byte-identical
files.
"""

from __future__ import annotations

from ggtkit.bpo import Bpo, BpoError
from ggtkit.formulas import GGT, GT, GT_PI, FormulaInstance, GuardError, ggt_clauses, guarded_copies
from ggtkit.literals import LiteralTokens, clause_key, make_clause, num_vars, TautologyError


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
        lines[0] += f" pi={instance.pi.text}"
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


def read_dimacs(text: str) -> FormulaInstance:
    meta: dict[str, str | int] = {}
    meta_line: dict[str, int] = {}  # the line that set each key
    nvars = nclauses = None
    problem_line = 0
    clauses = []
    clause_lines = []
    seen = set()
    lit_of = LiteralTokens().__getitem__
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
    if family != GT_PI:
        name = f"GGT({n})" if family == GGT else f"GT({n})"
        triangles = n * (n - 1) * (n - 2) // 3  # both orientations of each triple
        full = n + (2 * triangles if family == GGT and n >= 4 else triangles)
        lacks = f"the file lacks {full - len(clauses)} of the {full} clauses of {name}"
        # GT(n) is the smallest gt/ggt clause set for its n; a file with fewer
        # clauses is rejected before any table for n is built from it
        if len(clauses) < n + triangles:
            raise DimacsError(problem_line, lacks)
    pi = None
    if family == GT_PI:
        try:
            pi = Bpo.parse(n, meta.get("pi", ""))
        except BpoError as exc:
            raise DimacsError(meta_line.get("pi", 0), f"malformed pi in header: {exc}") from None
    instance = FormulaInstance(family=family, n=n, clauses=tuple(clauses), seed=meta.get("seed"), pi=pi)
    try:
        instance.guard_map  # read once here, so a bad pair is a parse error
    except GuardError as exc:
        # no guarded copy: the triangle is missing from the clauses the problem line opens
        line_no = problem_line if exc.index is None else clause_lines[exc.index]
        raise DimacsError(line_no, str(exc)) from None
    if family != GT_PI:
        if family == GGT:
            if instance.guard_map is None and n >= 4:
                raise DimacsError(problem_line, f"GGT({n}) has guarded clauses; the file has none")
            where = " under the guards read off the file"
        else:
            where = ""
        want = ggt_clauses(n, instance.guard_map)  # GT(n)'s when there is no guard map
        # neither side repeats a clause, so this is set equality
        if len(seen) != len(want) or not seen.issuperset(want):
            want = set(want)
            for clause, line_no in zip(clauses, clause_lines):
                if clause not in want:
                    raise DimacsError(line_no, f"not a clause of {name}{where}")
            raise DimacsError(problem_line, lacks)  # want holds `full` clauses
    return instance
