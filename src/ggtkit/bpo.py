"""Partial specifications of orders and bipartite partial orders.

A partial specification tau is any set of ordered pairs whose transitive
closure is acyclic.  Its associated bipartite partial order keeps only the
pairs (i, j) with i tau-minimal and i below j in the closure; the domain
and range of the result are disjoint and the minimal set is everything
outside the range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ggtkit.literals import Clause, encode_lit, order_pair


class CyclicOrderError(ValueError):
    """Raised when a pair set is not consistent with any partial order."""


class BpoError(ValueError):
    """Raised when a pair set is not a valid bipartite partial order."""


def transitive_closure(pairs: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in succ:
        seen: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closure.update((start, w) for w in seen)
    return frozenset(closure)


@dataclass(frozen=True)
class PartialSpec:
    """A pair set tau with its cached transitive closure; rejects cycles."""

    n: int
    pairs: frozenset[tuple[int, int]]
    closure: frozenset[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        for a, b in self.pairs:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise CyclicOrderError(f"pair ({a},{b}) invalid over [{self.n}]")
        closure = transitive_closure(self.pairs)
        if any(a == b for a, b in closure):
            raise CyclicOrderError("pair set has a cycle; not a partial specification")
        object.__setattr__(self, "closure", closure)

    def minimal_elements(self) -> frozenset[int]:
        ranged = {b for _, b in self.pairs}
        return frozenset(v for v in range(self.n) if v not in ranged)


@dataclass(frozen=True)
class Bpo:
    """A bipartite partial order: domain and range disjoint."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        dom = {a for a, _ in self.pairs}
        rng = {b for _, b in self.pairs}
        if dom & rng:
            raise BpoError(f"domain and range intersect: {sorted(dom & rng)}")
        for a, b in self.pairs:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise BpoError(f"pair ({a},{b}) invalid over [{self.n}]")

    @staticmethod
    def empty(n: int) -> "Bpo":
        return Bpo(n, frozenset())

    @staticmethod
    def of(n: int, pairs) -> "Bpo":
        return Bpo(n, frozenset((int(a), int(b)) for a, b in pairs))

    @property
    def minimals(self) -> frozenset[int]:
        rng = {b for _, b in self.pairs}
        return frozenset(v for v in range(self.n) if v not in rng)

    def precedes(self, i: int, j: int) -> bool:
        return (i, j) in self.pairs

    def below(self, k: int) -> frozenset[int]:
        """The minimal vertices directly below k."""
        return frozenset(a for a, b in self.pairs if b == k)

    def above(self, i: int) -> frozenset[int]:
        return frozenset(b for a, b in self.pairs if a == i)


def associated_bpo(tau: PartialSpec) -> Bpo:
    """The bipartite partial order of a specification: minimal sources only."""
    minimal = tau.minimal_elements()
    pairs = frozenset((a, b) for a, b in tau.closure if a in minimal)
    return Bpo(tau.n, pairs)


def bpo_clause(pi: Bpo) -> Clause:
    """The clause negating pi: one negative order literal per pair."""
    return frozenset(-encode_lit(i, j, pi.n) for i, j in pi.pairs)


def tau_of_literals(lits, n: int) -> frozenset[tuple[int, int]]:
    """Order pairs committed by a set of branch literals.

    A literal on a root-to-leaf branch is falsified there, so it asserts
    the pair of its negation.
    """
    return frozenset(order_pair(lit, n) for lit in lits)
