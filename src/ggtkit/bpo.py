"""Bipartite partial orders, held as bitmask rows.

An order over n vertices is one bitmask row per vertex: bit j of
`rows[i]` says i precedes j.  A partial specification tau is any such row
list whose transitive closure is acyclic.  Its associated bipartite
partial order keeps only the pairs (i, j) with i tau-minimal and i below
j in the closure; the domain and range of the result are disjoint and the
minimal set is everything outside the range.  Pairs appear only at the
I/O edge: `Bpo.of` reads them, after checking them, and `Bpo.pairs`
lists them.  Their text form `a:b,c:d` has one codec, `Bpo.parse` and
`Bpo.text`, which both `ggt gen --pi` and a gtpi file's header use.
Literals become rows in one place, `rows_of`: the solver reads its
trail's order through it and the pool construction a branch's order.
`minimal_rows` makes the `Bpo` of closed rows, and `Bpo.of`,
`associated_bpo` and the solver's trail get their orders from it, so no
order travels as a bare (minimal, rows) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ggtkit.literals import Clause, bits, lit_table, pair_table


class CyclicOrderError(ValueError):
    """Raised when a pair set is not consistent with any partial order."""


class BpoError(ValueError):
    """Raised when a pair set is not a valid bipartite partial order."""


@dataclass(frozen=True, slots=True)
class Bpo:
    """A bipartite partial order: domain and range disjoint.

    `minimal` is the mask of the minimal vertices, and `rows[i]` the mask
    of the vertices above minimal vertex i, 0 for any other vertex.
    Slotted: the solver keeps one per visited order as a cache key.
    """

    n: int
    minimal: int
    rows: tuple[int, ...]

    @staticmethod
    def empty(n: int) -> "Bpo":
        return Bpo(n, (1 << n) - 1, (0,) * n)

    @staticmethod
    def of(n: int, pairs) -> "Bpo":
        """The order of a pair set, rejected unless it is bipartite and
        every vertex lies in range(n)."""
        pairs = frozenset((int(a), int(b)) for a, b in pairs)
        dom = {a for a, _ in pairs}
        rng = {b for _, b in pairs}
        if dom & rng:
            raise BpoError(f"domain and range intersect: {sorted(dom & rng)}")
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise BpoError(f"pair ({a},{b}) invalid over [{n}]")
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        return minimal_rows(n, rows)

    @staticmethod
    def parse(n: int, text: str) -> "Bpo":
        """The order of the text form `a:b,c:d`, checked as `of` checks
        pairs; empty text is the empty order."""
        pairs = []
        for item in text.split(",") if text else ():
            try:
                a, b = map(int, item.split(":"))
            except ValueError:
                raise BpoError(f"malformed pair {item!r}; expected a:b") from None
            pairs.append((a, b))
        return Bpo.of(n, pairs)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The pairs (i, k) with minimal vertex i below k."""
        return frozenset((i, k) for i, row in enumerate(self.rows) for k in bits(row))

    @property
    def text(self) -> str:
        """The text form `parse` reads, pairs in sorted order."""
        return ",".join(f"{a}:{b}" for a, b in sorted(self.pairs))


def rows_of(n: int, lits) -> list[int]:
    """The rows the true literals `lits` assert over n vertices: bit j of
    row i is set for each x[i,j], read from `literals.pair_table`."""
    pair = pair_table(n)
    rows = [0] * n
    for lit in lits:
        i, j = pair[lit]
        rows[i] |= 1 << j
    return rows


def minimal_rows(n: int, rows) -> Bpo:
    """The order of closed rows over n vertices: the minimal-vertex mask, and
    the rows of the minimal vertices, 0 for any other vertex."""
    incoming = 0
    for row in rows:
        incoming |= row
    rows = list(rows)
    for v in bits(incoming):
        rows[v] = 0
    return Bpo(n, ~incoming & ((1 << n) - 1), tuple(rows))


def associated_bpo(n: int, rows) -> Bpo:
    """The bipartite partial order of a specification: minimal sources only.

    `rows[i]` is the mask of the vertices tau puts above i.  The rows are
    closed under composition, a vertex then above itself being a cycle.
    Only a vertex with pairs both into and out of it can be inside a path,
    so only those are composed through.
    """
    rows = list(rows)
    incoming = 0
    for row in rows:
        incoming |= row
    for k in bits(incoming):
        up, bit = rows[k], 1 << k
        if up:
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | up
            # a cycle shows at the last of its vertices composed through:
            # the others were composed through before, so k is above itself
            if rows[k] & bit:
                raise CyclicOrderError("pair set has a cycle; not a partial specification")
    return minimal_rows(n, rows)


def bpo_clause(pi: Bpo) -> Clause:
    """The clause negating pi: one negative order literal per pair."""
    lit = lit_table(pi.n)
    return frozenset(-lit[i][k] for i, row in enumerate(pi.rows) for k in bits(row))
