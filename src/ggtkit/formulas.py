"""Generators for the GT, GGT and GT_pi clause families.

GT(n) says that no strict total order on n vertices lacks a minimal
element: one minimality clause per vertex plus both orientations of every
transitivity triangle.  GGT(n) splits each transitivity clause into two
copies carrying opposite guard literals x[r,s] drawn per cyclic class of
triples.  GT_pi restricts the family to a bipartite partial order pi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ggtkit.bpo import Bpo
from ggtkit.literals import (
    Clause,
    PairError,
    alpha_clause,
    encode_lit,
    make_clause,
    num_vars,
    trans_clause,
)

GT = "gt"
GGT = "ggt"
GT_PI = "gtpi"

_GUARD_KEY_BASE = 1 << 21  # mixes (seed, i, j, k) into one deterministic int


class SizeError(ValueError):
    """Raised when the size parameter is too small for the requested family."""


def cyclic_classes(n: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of transitivity-clause classes.

    Each unordered triple {i,j,k} yields two classes (the two orientations
    of the triangle); the representative rotates the smallest vertex first.
    """
    reps = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                reps.append((i, j, k))
                reps.append((i, k, j))
    reps.sort()
    return reps


@dataclass(frozen=True)
class GuardMap:
    """Seeded guard assignment, one (r, s) pair per cyclic class."""

    n: int
    seed: int
    table: dict[tuple[int, int, int], tuple[int, int]] = field(repr=False)

    def guard(self, i: int, j: int, k: int) -> tuple[int, int]:
        """Guard pair for the class of (i, j, k); invariant under rotation."""
        for rot in ((i, j, k), (j, k, i), (k, i, j)):
            if rot in self.table:
                return self.table[rot]
        raise KeyError(f"no guard entry for triple ({i},{j},{k})")


def _admissible_guards(n: int, triple: tuple[int, int, int]) -> list[tuple[int, int]]:
    inside = set(triple)
    return [
        (r, s)
        for r in range(n)
        for s in range(n)
        if r != s and not (r in inside and s in inside)
    ]


def guards(n: int, seed: int) -> GuardMap:
    """Draw guard pairs uniformly per class with a per-class seeded RNG.

    Requires n >= 4 so that a guard outside the triple exists.  The RNG key
    mixes the seed with the canonical representative, so the table does not
    depend on iteration order.
    """
    if n < 4:
        raise SizeError(f"guards need n >= 4, got {n}")
    table = {}
    for rep in cyclic_classes(n):
        i, j, k = rep
        options = _admissible_guards(n, rep)
        key = ((seed * _GUARD_KEY_BASE + i) * _GUARD_KEY_BASE + j) * _GUARD_KEY_BASE + k
        table[rep] = options[random.Random(key).randrange(len(options))]
    return GuardMap(n=n, seed=seed, table=table)


@dataclass(frozen=True)
class FormulaInstance:
    """A generated CNF together with the metadata needed to reproduce it."""

    family: str
    n: int
    clauses: tuple[Clause, ...]
    seed: int | None = None
    guard_map: GuardMap | None = None
    pi: Bpo | None = None
    unguarded: bool = False  # GGT below n=4 falls back to plain GT clauses

    @property
    def nvars(self) -> int:
        return num_vars(self.n)

    def clause_set(self) -> frozenset[Clause]:
        return frozenset(self.clauses)


def gen_gt(n: int) -> FormulaInstance:
    """The graph tautology clauses over n vertices: n + 2*C(n,3) clauses."""
    if n < 2:
        raise SizeError(f"gt needs n >= 2, got {n}")
    clauses = [alpha_clause(i, n) for i in range(n)]
    for (i, j, k) in cyclic_classes(n):
        clauses.append(trans_clause(i, j, k, n))
    return FormulaInstance(family=GT, n=n, clauses=tuple(clauses))


def gen_ggt(n: int, seed: int) -> FormulaInstance:
    """The guarded family: each transitivity clause split on its guard.

    For n in {2, 3} there is no admissible guard, so the unguarded GT
    clauses are emitted with the `unguarded` flag set; the seed is still
    recorded for reproducibility of the file headers.
    """
    if n < 2:
        raise SizeError(f"ggt needs n >= 2, got {n}")
    if n < 4:
        base = gen_gt(n)
        return FormulaInstance(
            family=GGT, n=n, clauses=base.clauses, seed=seed, unguarded=True
        )
    gmap = guards(n, seed)
    clauses = [alpha_clause(i, n) for i in range(n)]
    for rep in cyclic_classes(n):
        i, j, k = rep
        t = trans_clause(i, j, k, n)
        r, s = gmap.guard(i, j, k)
        g = encode_lit(r, s, n)
        clauses.append(make_clause(t | {g}))
        clauses.append(make_clause(t | {-g}))
    return FormulaInstance(family=GGT, n=n, clauses=tuple(clauses), seed=seed, guard_map=gmap)


def gt_pi_clauses(n: int, pi: Bpo) -> tuple[list[Clause], list[Clause], list[Clause]]:
    """The (alpha, beta, gamma) clause groups of GT_pi."""
    minimals = sorted(pi.minimals)
    mset = pi.minimals
    alphas = [alpha_clause(i, n) for i in minimals]
    betas = []
    for x in range(len(minimals)):
        for y in range(x + 1, len(minimals)):
            for z in range(y + 1, len(minimals)):
                a, b, c = minimals[x], minimals[y], minimals[z]
                betas.append(trans_clause(a, b, c, n))
                betas.append(trans_clause(a, c, b, n))
    gammas = []
    for k in range(n):
        if k in mset:
            continue
        for j in sorted(pi.below(k)):
            for i in minimals:
                if i != j and not pi.precedes(i, k):
                    gammas.append(trans_clause(i, j, k, n))
    return alphas, betas, gammas


def gen_gt_pi(n: int, pi: Bpo) -> FormulaInstance:
    """GT restricted to a bipartite partial order pi.

    Minimality clauses only for pi-minimal vertices, transitivity inside
    the minimal set, and the mixed transitivity clauses T[i,j,k] with
    i, j minimal, j below k, and i not below k.  For empty pi this is
    exactly gen_gt(n).
    """
    if n < 2:
        raise SizeError(f"gtpi needs n >= 2, got {n}")
    if pi.n != n:
        raise PairError(f"pi is over {pi.n} vertices, formula wants {n}")
    alphas, betas, gammas = gt_pi_clauses(n, pi)
    trans = sorted(betas + gammas, key=_triple_sort_key(n))
    return FormulaInstance(family=GT_PI, n=n, clauses=tuple(alphas + trans), pi=pi)


def _triple_sort_key(n: int):
    from ggtkit.literals import triangle_of

    def key(clause: Clause):
        tri = triangle_of(clause, n)
        assert tri is not None
        return tri

    return key


def pi_witness_assignment(n: int, pi: Bpo) -> dict[int, bool] | None:
    """A satisfying assignment for GT_pi when pi is nonempty.

    Puts one fixed non-minimal vertex j below every minimal vertex and
    orders everything else against the canonical direction.
    """
    non_minimal = sorted(set(range(n)) - pi.minimals)
    if not non_minimal:
        return None
    j = non_minimal[0]
    assignment = {}
    for a in range(n):
        for b in range(a + 1, n):
            assignment[encode_lit(a, b, n)] = False
    for i in sorted(pi.minimals):
        lit = encode_lit(j, i, n)
        assignment[abs(lit)] = lit > 0
    return assignment
