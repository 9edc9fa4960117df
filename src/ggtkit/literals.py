"""Ordered-pair variables and their DIMACS codec.

A variable x[i,j] (i != j, both in range(n)) states "i precedes j".  The
literals x[i,j] and -x[j,i] are identified: canonically, the pair with
i < j gets a positive DIMACS id and the reversed pair is its negation.
Clauses are duplicate-free frozensets of nonzero ints; a clause containing
a literal together with its negation is rejected as tautological.

`decode_lit` and `triangle_of` read the codec's one inverse: read-only
tables per n, built once from `encode_lit` and `trans_clause` alone.  The
forward tables are their mirrors: `lit_table` gives each vertex pair's
literal, and `trans_table` each min-first triangle's transitivity clause,
the very frozensets `triangle_table` holds, so a hot loop reads a clause
instead of building one.  `trans_clause`, the one constructor of a
transitivity clause, reads its literals from `lit_table`.  Each table is
built on first use for its n: a caller that never asks for a transitivity
table (say `build_pn(40)`, whose tables would hold 8 MB) never pays for one.

Text goes the other way through `LiteralTokens`, the one memo of literal
tokens that both parsers, `dimacs` and `proof_io`, read clauses through.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping

Clause = frozenset  # frozenset[int]


class PairError(ValueError):
    """Raised for an out-of-range or degenerate (i == j) vertex pair."""


class TautologyError(ValueError):
    """Raised when a clause would contain a literal and its negation."""


def num_vars(n: int) -> int:
    """Number of canonical variables over n vertices: C(n, 2)."""
    return n * (n - 1) // 2


def encode_lit(i: int, j: int, n: int) -> int:
    """Signed DIMACS literal for x[i,j].

    For i < j this is +v with v = i*n - i*(i+1)//2 + (j - i); for i > j it
    is -v(j, i).  Bijective onto +-{1..C(n,2)}.
    """
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise PairError(f"invalid vertex pair ({i},{j}) for n={n}")
    if i < j:
        return i * n - i * (i + 1) // 2 + (j - i)
    return -(j * n - j * (j + 1) // 2 + (i - j))


@cache
def pair_table(n: int) -> tuple[tuple[int, int] | None, ...]:
    """Each literal's vertex pair, indexed by literal: a negative one counts
    from the end, so -(C(n,2) + 1) aliases +C(n,2); range-check first."""
    pair: list[tuple[int, int] | None] = [None] * (2 * num_vars(n) + 1)
    for i, j in permutations(range(n), 2):
        pair[encode_lit(i, j, n)] = (i, j)
    return tuple(pair)


@cache
def lit_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Each vertex pair's literal: `lit_table(n)[i][j] == encode_lit(i, j, n)`,
    and 0 on the diagonal."""
    return tuple(tuple(encode_lit(i, j, n) if i != j else 0 for j in range(n)) for i in range(n))


def decode_lit(lit: int, n: int) -> tuple[int, int]:
    """Invert encode_lit: the (i, j) with encode_lit(i, j, n) == lit."""
    pair = pair_table(n)
    if not 0 < abs(lit) <= len(pair) // 2:
        raise PairError(f"literal {lit} out of range for n={n}")
    return pair[lit]


class LiteralTokens(dict):
    """Each literal token met so far and its value, converted once: one int
    per distinct token, shared by every clause that holds it.  A token that
    is no integer raises `int`'s ValueError and is not kept; a `0` token is
    kept as 0, which the caller rejects."""

    def __missing__(self, tok: str) -> int:
        lit = self[tok] = int(tok)
        return lit


def make_clause(lits: Iterable[int]) -> Clause:
    """Canonicalize a literal collection into a clause, rejecting tautologies."""
    c = frozenset(lits)
    if 0 in c:
        raise PairError("literal 0 is not allowed in a clause")
    for lit in c:
        if -lit in c:
            raise TautologyError(f"clause contains both {lit} and {-lit}")
    return c


def clause_key(clause: Iterable[int]) -> tuple[int, ...]:
    """Deterministic sort key / display order for a clause.

    Literals are ordered by variable, a positive literal before its
    negation: the order of the key (abs(l), l < 0).  Sorting descending
    first and then stably by `abs` gives that order with C-level keys only.
    """
    return tuple(sorted(sorted(clause, reverse=True), key=abs))


def trans_clause(i: int, j: int, k: int, n: int) -> Clause:
    """The transitivity clause T[i,j,k] = -x[i,j] | -x[j,k] | -x[k,i], read from `lit_table`."""
    if not (0 <= i < n and 0 <= j < n and 0 <= k < n) or i == j or j == k or k == i:
        raise PairError(f"degenerate or out-of-range transitivity triple ({i},{j},{k}) for n={n}")
    lit = lit_table(n)
    return frozenset((-lit[i][j], -lit[j][k], -lit[k][i]))


def alpha_clause(i: int, n: int) -> Clause:
    """The minimality clause for vertex i: some j precedes i."""
    return frozenset(encode_lit(j, i, n) for j in range(n) if j != i)


def min_first(i: int, j: int, k: int) -> tuple[int, int, int]:
    """The rotation of the triple (i, j, k) that starts at its smallest vertex.

    Rotations name the same transitivity clause, so this is the canonical
    name of a triangle's orientation.
    """
    if i < j and i < k:
        return (i, j, k)
    if j < k:
        return (j, k, i)
    return (k, i, j)


def bits(mask: int):
    """The positions of the set bits of `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cyclic_classes(n: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of transitivity-clause classes.

    Each unordered triple {i,j,k} yields two classes (the two orientations
    of the triangle); the representative rotates the smallest vertex first.
    The classes are the triples (i, x, y) with i < x, i < y and x != y,
    generated here in sorted order.
    """
    return [(i, x, y) for i in range(n) for x in range(i + 1, n) for y in range(i + 1, n) if x != y]


@cache
def triangle_table(n: int) -> Mapping[Clause, tuple[int, int, int]]:
    """Each transitivity clause over n vertices, mapped to its min-first triangle."""
    return MappingProxyType({trans_clause(*rep, n): rep for rep in cyclic_classes(n)})


@cache
def trans_table(n: int) -> Mapping[tuple[int, int, int], Clause]:
    """Each min-first triangle's transitivity clause: the inverse of
    `triangle_table`, sharing its frozensets."""
    return MappingProxyType({rep: clause for clause, rep in triangle_table(n).items()})


def triangle_of(clause: Clause, n: int) -> tuple[int, int, int] | None:
    """The min-first triangle (a, b, c) of a transitivity clause T[a,b,c]
    over n vertices; None for any other clause."""
    return triangle_table(n).get(clause)
