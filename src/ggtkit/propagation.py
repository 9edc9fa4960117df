"""Unit propagation and conflict replay.

`propagate` is the one watched-literal loop (Eén & Sörensson 2003), and
it has two callers: `Solver._propagate` runs it on the solver's trail,
and `unit_propagate` on a trail built from an assignment.  Both hold an
assignment the same way: a set of true literals, a trail of (literal,
reason) pairs in the order they became true, and watch lists keyed by
literal.  A clause of two or more literals watches its first two; it is
visited only when one of them is false, and the visit either finds the
other watch true, moves the false watch to a literal that is not false,
forces the other watch, or reports the clause falsified.  A call that
stops on a conflict compacts the watch list it was walking in place, so
every clause still sits in exactly the lists of its two watched literals.

`unit_propagate` and `replay_conflict` read the clauses through a
`ClauseIndex`, which keeps its watches across calls, with no undo between
them.  Each call queues every literal of its assignment, so every clause
watching a literal false under that assignment is visited, whatever pair
an earlier call left it watching.  Any pair of distinct literals of a
clause is therefore a valid start for any later call.

Whether a conflict exists, and the propagated assignment when none does,
are what a scan to fixpoint gives.  Which falsified clause is reported,
and the order of the implications, depend on the watches an index has
reached, and may differ from a scan's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ggtkit.literals import Clause
from ggtkit.proofs import RESOLVE, apply_rule


class InconsistentAssignment(ValueError):
    """unit_propagate was handed an assignment with both polarities."""


@dataclass
class PropagationResult:
    assignment: set[int]  # true literals, closed under propagation
    conflict: int | None  # index of a falsified clause, or None
    implications: list[tuple[int, int]] = field(default_factory=list)
    # (literal, forcing clause index) in propagation order


class ClauseIndex:
    """Append-only clause list with two watched literals per clause.

    `clauses[i]` is the i-th added clause as a list of its distinct
    literals, whose first two entries are the watched ones; propagation
    reorders the list as a watch moves.  `watches[lit]` lists the ids of
    the clauses watching `lit`.  A clause is its set: a repeated literal is stored
    once.  Clauses with fewer than two distinct literals are unit or
    falsified under every assignment; `short` lists them so each call
    starts there.
    """

    def __init__(self, clauses=()):
        self.clauses: list[list[int]] = []
        self.watches: defaultdict[int, list[int]] = defaultdict(list)
        self.short: list[int] = []
        for clause in clauses:
            self.add(clause)

    def add(self, clause) -> None:
        idx = len(self.clauses)
        lits = list(dict.fromkeys(clause))
        self.clauses.append(lits)
        if len(lits) < 2:
            self.short.append(idx)
        else:
            self.watches[lits[0]].append(idx)
            self.watches[lits[1]].append(idx)


def propagate(clauses, watches, truth, trail, qhead):
    """Propagate the trail from `qhead` to fixpoint.

    `clauses[i]` lists clause i's literals, its two watched ones first,
    and `watches[lit]` the ids of the clauses watching `lit` (a
    `defaultdict(list)`).  `truth` is the set of true literals and `trail`
    lists them as (literal, reason) pairs; those from `qhead` on are not
    propagated yet.  A forced literal joins both, its reason the index of
    the clause that forced it.  Returns a falsified clause's index (or
    None) and the new queue head.
    """
    while qhead < len(trail):
        falsified = -trail[qhead][0]
        qhead += 1
        watchlist = watches[falsified]
        # compact in place: the clauses still watching `falsified` keep
        # their order at the front, and the others are dropped at the end
        kept = 0
        visiting = iter(watchlist)
        for idx in visiting:
            lits = clauses[idx]
            other = lits[0]
            if other == falsified:
                other = lits[1]
                lits[0], lits[1] = other, falsified
            if other in truth:
                watchlist[kept] = idx
                kept += 1
                continue
            for k in range(2, len(lits)):
                lit = lits[k]
                if -lit not in truth:
                    lits[1], lits[k] = lit, falsified
                    watches[lit].append(idx)
                    break
            else:
                watchlist[kept] = idx
                kept += 1
                if -other in truth:
                    # the unvisited rest, read out before the list changes, moves up
                    watchlist[kept:] = visiting
                    return idx, qhead
                truth.add(other)
                trail.append((other, idx))
        del watchlist[kept:]
    return None, qhead


def unit_propagate(index: ClauseIndex, assignment) -> PropagationResult:
    """Propagate to fixpoint; report a falsified clause if any.

    `assignment` is an iterable of true literals.  The conflict is an
    index into `index.clauses`.  The implication record lists every forced
    literal with the clause that forced it, in the order they were forced,
    which is enough to replay an input derivation of the conflict (see
    replay_conflict).
    """
    store = index.clauses
    truth = set(assignment)
    for lit in truth:
        if -lit in truth:
            raise InconsistentAssignment(f"assignment has {lit} and {-lit}")
    trail = [(lit, None) for lit in truth]
    start = len(trail)
    for idx in index.short:  # the clauses no false literal will reach
        lits = store[idx]
        if not lits or -lits[0] in truth:
            return PropagationResult(truth, idx, trail[start:])
        if lits[0] not in truth:
            truth.add(lits[0])
            trail.append((lits[0], idx))
    conflict, _ = propagate(store, index.watches, truth, trail, 0)
    return PropagationResult(truth, conflict, trail[start:])


def replay_conflict(index: ClauseIndex, result: PropagationResult) -> tuple[Clause, list[tuple[int, int]]]:
    """Resolve the conflict clause against its reasons, last forced first.

    `index` is what `result` came from.  Returns the final clause (over
    literals false under the *initial* assignment) and the chain
    [(clause index, pivot literal), ...]; the chain is an input
    derivation: each step resolves the running clause with one formula
    clause.
    """
    if result.conflict is None:
        raise ValueError("no conflict to replay")
    clauses = index.clauses
    current = frozenset(clauses[result.conflict])
    chain: list[tuple[int, int]] = []
    for lit, idx in reversed(result.implications):
        if -lit in current:
            reason = frozenset(clauses[idx])
            current = apply_rule(RESOLVE, reason, current, lit)
            chain.append((idx, lit))
    return current, chain
