"""Generators for the GT, GGT and GT_pi clause families.

GT(n) says that no strict total order on n vertices lacks a minimal
element: one minimality clause per vertex plus both orientations of every
transitivity triangle.  GGT(n) splits each transitivity clause into two
copies carrying opposite guard literals x[r,s] drawn per cyclic class of
triples.  GT_pi restricts the family to a bipartite partial order pi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ggtkit.bpo import Bpo
from ggtkit.literals import (
    Clause,
    PairError,
    alpha_clause,
    bits,
    cyclic_classes,
    encode_lit,
    min_first,
    num_vars,
    trans_clause,
    trans_table,
    triangle_table,
)

GT = "gt"
GGT = "ggt"
GT_PI = "gtpi"

_GUARD_KEY_BASE = 1 << 21  # mixes (seed, i, j, k) into one deterministic int


class SizeError(ValueError):
    """Raised when the size parameter is too small for the requested family."""


class GuardError(ValueError):
    """Raised when the guarded copies of a triangle do not form one opposite
    pair; `index` is the position of its last copy among the clauses, if any."""

    def __init__(self, message: str, index: int | None):
        super().__init__(message)
        self.index = index


def _admissible_guards(n: int, triple: tuple[int, int, int]) -> list[tuple[int, int]]:
    inside = set(triple)
    return [
        (r, s)
        for r in range(n)
        for s in range(n)
        if r != s and not (r in inside and s in inside)
    ]


def guards(n: int, seed: int) -> dict[tuple[int, int, int], int]:
    """Draw guard pairs uniformly per class with a per-class seeded RNG.

    Returns each class's guard as the signed literal x[r,s], keyed by the
    class's min-first triangle.  Requires n >= 4 so that a guard outside
    the triple exists.  The RNG key mixes the seed with the canonical
    representative, so the draw does not depend on iteration order.
    """
    if n < 4:
        raise SizeError(f"guards need n >= 4, got {n}")
    gmap = {}
    for rep in cyclic_classes(n):
        i, j, k = rep
        options = _admissible_guards(n, rep)
        key = ((seed * _GUARD_KEY_BASE + i) * _GUARD_KEY_BASE + j) * _GUARD_KEY_BASE + k
        gmap[rep] = encode_lit(*options[random.Random(key).randrange(len(options))], n)
    return gmap


def guarded_copies(n: int, clauses):
    """(index, triangle, guard) of each guarded copy among the clauses, in order.

    A guarded copy is a transitivity clause plus its guard literal.
    Four-literal minimality clauses (n = 5) hold no triangle.
    """
    tri_of = triangle_table(n)
    for idx, clause in enumerate(clauses):
        if len(clause) == 4:
            for g in clause:
                tri = tri_of.get(clause - {g})
                if tri is not None:
                    yield idx, tri, g
                    break


def read_guards(n: int, clauses) -> dict[tuple[int, int, int], int] | None:
    """Each triangle's guard literal, read off the GGT clauses; None if no clause is guarded.

    Each triangle needs two guarded copies with opposite guards, else
    GuardError names it; the guard kept is the first copy's, as `gen_ggt`
    lists them.
    """
    copies: dict[tuple[int, int, int], list[int]] = {}
    last: dict[tuple[int, int, int], int] = {}  # the index of each triangle's last copy
    for idx, tri, g in guarded_copies(n, clauses):
        copies.setdefault(tri, []).append(g)
        last[tri] = idx
    if not copies:
        return None
    gmap = {}
    for tri in cyclic_classes(n):
        found = copies.get(tri, [])
        if len(found) != 2 or found[0] != -found[1]:
            message = f"triangle {tri} has guarded copies {found}; it needs one opposite pair"
            raise GuardError(message, last.get(tri))
        gmap[tri] = found[0]
    return gmap


@dataclass(frozen=True)
class FormulaInstance:
    """A CNF with the metadata that reproduces it; the seed is provenance
    only, as a GGT instance's guards are read off its clauses."""

    family: str
    n: int
    clauses: tuple[Clause, ...]
    seed: int | None = None
    pi: Bpo | None = None

    @cached_property
    def guard_map(self) -> dict[tuple[int, int, int], int] | None:
        """Each triangle's guard literal; None unless a GGT clause is guarded."""
        return read_guards(self.n, self.clauses) if self.family == GGT else None

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


def ggt_clauses(n: int, gmap) -> tuple[Clause, ...]:
    """The GGT(n) clauses under the guard map `gmap`, each transitivity
    clause split on its guard, the copy carrying +g first; with no map
    (n < 4), the unguarded GT clauses."""
    if gmap is None:
        return gen_gt(n).clauses
    clauses = [alpha_clause(i, n) for i in range(n)]
    for rep, t in trans_table(n).items():  # in `cyclic_classes` order
        g = gmap[rep]
        clauses.append(t | {g})
        clauses.append(t | {-g})
    return tuple(clauses)


def gen_ggt(n: int, seed: int) -> FormulaInstance:
    """The guarded family under the guards `seed` draws.

    For n in {2, 3} there is no admissible guard, so the unguarded GT
    clauses are emitted; the seed is still recorded for reproducibility of
    the file headers.
    """
    if n < 2:
        raise SizeError(f"ggt needs n >= 2, got {n}")
    gmap = guards(n, seed) if n >= 4 else None
    return FormulaInstance(family=GGT, n=n, clauses=ggt_clauses(n, gmap), seed=seed)


def gt_pi_triangles(n: int, pi: Bpo) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """The min-first triangles of GT_pi's beta and gamma transitivity clauses."""
    minimals = list(bits(pi.minimal))
    above = pi.rows
    betas = [t for a, b, c in combinations(minimals, 3) for t in ((a, b, c), (a, c, b))]
    gammas = []
    for k in range(n):
        if pi.minimal >> k & 1:
            continue
        for j in minimals:
            if above[j] >> k & 1:
                for i in minimals:
                    if not above[i] >> k & 1:
                        gammas.append(min_first(i, j, k))
    return betas, gammas


def gen_gt_pi(n: int, pi: Bpo) -> FormulaInstance:
    """GT restricted to a bipartite partial order pi.

    Minimality clauses only for pi-minimal vertices, transitivity inside
    the minimal set, and the mixed transitivity clauses T[i,j,k] with
    i, j minimal, j below k, and i not below k, in triangle order.  For
    empty pi this is exactly gen_gt(n).
    """
    if n < 2:
        raise SizeError(f"gtpi needs n >= 2, got {n}")
    if pi.n != n:
        raise PairError(f"pi is over {pi.n} vertices, formula wants {n}")
    alphas = [alpha_clause(i, n) for i in bits(pi.minimal)]
    betas, gammas = gt_pi_triangles(n, pi)
    trans = [trans_clause(*tri, n) for tri in sorted(betas + gammas)]
    return FormulaInstance(family=GT_PI, n=n, clauses=tuple(alphas + trans), pi=pi)
