"""Unit propagation, conflict replay, and the brute-force semantic oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

from ggtkit.literals import Clause, num_vars
from ggtkit.proofs import RESOLVE, apply_rule


class InconsistentAssignment(ValueError):
    """unit_propagate was handed an assignment with both polarities."""


class OracleScaleError(ValueError):
    """The truth-table oracle only runs at desk scale (n <= 5)."""


@dataclass
class PropagationResult:
    assignment: set[int]  # true literals, closed under propagation
    conflict: int | None  # index of a falsified clause, or None
    implications: list[tuple[int, int]] = field(default_factory=list)
    # (literal, forcing clause index) in propagation order


class ClauseIndex:
    """Append-only clause list with an occurrence index.

    `occurs[lit]` lists the ids of the clauses containing `lit`, so
    propagation visits only clauses in which a literal has just become
    false.  Clauses with fewer than two literals are unit or falsified
    under every assignment; `short` lists them so each call starts there.
    """

    def __init__(self, clauses=()):
        self.clauses: list = []
        self.occurs: dict[int, list[int]] = {}
        self.short: list[int] = []
        for clause in clauses:
            self.add(clause)

    def add(self, clause) -> None:
        idx = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) < 2:
            self.short.append(idx)
        for lit in clause:
            self.occurs.setdefault(lit, []).append(idx)


def unit_propagate(clauses, assignment) -> PropagationResult:
    """Propagate to fixpoint; report a falsified clause if any.

    `clauses` is a ClauseIndex or an indexable of literal-sets (indexed
    afresh on each call); `assignment` an iterable of true literals.  The
    conflict is an index into `clauses` (into its `.clauses` list for a
    ClauseIndex).  The implication record lists
    every forced literal with the clause that forced it, in the order they
    were forced, which is enough to replay an input derivation of the
    conflict (see replay_conflict).
    """
    index = clauses if isinstance(clauses, ClauseIndex) else ClauseIndex(clauses)
    store, occurs = index.clauses, index.occurs
    truth = set(assignment)
    for lit in truth:
        if -lit in truth:
            raise InconsistentAssignment(f"assignment has {lit} and {-lit}")
    implications: list[tuple[int, int]] = []
    queue = list(truth)
    head = 0
    pending = index.short  # first the clauses no false literal will reach
    while True:
        for idx in pending:
            unassigned = None
            count = 0
            for lit in store[idx]:
                if lit in truth:
                    break
                if -lit not in truth:
                    unassigned = lit
                    count += 1
                    if count > 1:
                        break
            else:
                if count == 0:
                    return PropagationResult(truth, idx, implications)
                truth.add(unassigned)
                implications.append((unassigned, idx))
                queue.append(unassigned)
        if head == len(queue):
            return PropagationResult(truth, None, implications)
        pending = occurs.get(-queue[head], ())
        head += 1


def replay_conflict(clauses, result: PropagationResult) -> tuple[Clause, list[tuple[int, int]]]:
    """Resolve the conflict clause against its reasons, last forced first.

    Returns the final clause (over literals false under the *initial*
    assignment) and the chain [(clause index, pivot literal), ...]; the
    chain is an input derivation: each step resolves the running clause
    with one formula clause.
    """
    if result.conflict is None:
        raise ValueError("no conflict to replay")
    current = frozenset(clauses[result.conflict])
    chain: list[tuple[int, int]] = []
    for lit, idx in reversed(result.implications):
        if -lit in current:
            reason = frozenset(clauses[idx])
            current = apply_rule(RESOLVE, reason, current, lit)
            chain.append((idx, lit))
    return current, chain


def all_assignments(n: int):
    """Every total assignment over the canonical variables, as literal sets."""
    nv = num_vars(n)
    for bits in range(1 << nv):
        yield frozenset(
            (v if bits >> (v - 1) & 1 else -v) for v in range(1, nv + 1)
        )


def satisfies(assignment: frozenset[int], clause: Clause) -> bool:
    return any(lit in assignment for lit in clause)


def semantic_entails(clauses, c: Clause, n: int) -> bool:
    """Truth-table entailment test; refuses beyond n = 5 (2^10 assignments)."""
    if n > 5:
        raise OracleScaleError(f"semantic oracle limited to n <= 5, got {n}")
    for sigma in all_assignments(n):
        if all(satisfies(sigma, cl) for cl in clauses) and not satisfies(sigma, c):
            return False
    return True


def is_satisfiable(clauses, n: int) -> bool:
    if n > 5:
        raise OracleScaleError(f"semantic oracle limited to n <= 5, got {n}")
    return any(
        all(satisfies(sigma, cl) for cl in clauses) for sigma in all_assignments(n)
    )
