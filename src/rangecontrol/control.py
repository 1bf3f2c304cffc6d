"""Exact solvers for electoral-control decision problems.

Seven control families are modeled: adding/deleting candidates,
adding/deleting voters, partition of candidates (with and without a
runoff on both sides), and partition of voters.  Each family is decided
by exhaustive enumeration of the chair's possible actions, under the
unique-winner model: a constructive goal succeeds only when the
distinguished candidate is the singleton argmax of the terminal
election, a destructive goal succeeds exactly when they are not.

Enumeration canon (fixes witnesses and explored counts):

* candidate subsets are visited by (size, then index-lexicographic)
  order over the base election's declaration order;
* candidate partitions are visited by bitmask value, bit ``i`` placing
  candidate ``i`` into the first group;
* voter selections (take counts, removal counts, split vectors) are
  per-group count tuples visited in lexicographic order with the first
  group most significant.

The first success in this order is the canonical witness.  Solvers
evaluate actions one at a time, in a single thread, in this order.

A node budget caps how many actions may be evaluated.  Hitting the
budget with actions left yields ``decision=None`` ("budget exceeded"),
which is distinct from a proven "no".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .elections import (
    NRV,
    RV,
    SYSTEMS,
    BallotGroup,
    Election,
    InvalidElection,
    drop_voters,
    integer_rows,
    project,
    scale_election,
    take_voters,
    tally,
    weighted_sums,
)

__all__ = [
    "ADD_CANDIDATES",
    "DELETE_CANDIDATES",
    "ADD_VOTERS",
    "DELETE_VOTERS",
    "PARTITION_CANDIDATES",
    "RUNOFF_PARTITION_CANDIDATES",
    "PARTITION_VOTERS",
    "FAMILIES",
    "CONSTRUCTIVE",
    "DESTRUCTIVE",
    "TIES_PROMOTE",
    "TIES_ELIMINATE",
    "InvalidInstance",
    "ControlInstance",
    "ControlOutcome",
    "subelection_survivors",
    "solve",
    "solve_add_candidates",
    "solve_delete_candidates",
    "solve_add_voters",
    "solve_delete_voters",
    "solve_partition_candidates",
    "solve_runoff_partition_candidates",
    "solve_partition_voters",
    "replay_witness",
    "search_space",
    "scale_instance",
    "describe",
]

ADD_CANDIDATES = "add-candidates"
DELETE_CANDIDATES = "delete-candidates"
ADD_VOTERS = "add-voters"
DELETE_VOTERS = "delete-voters"
PARTITION_CANDIDATES = "partition-candidates"
RUNOFF_PARTITION_CANDIDATES = "runoff-partition-candidates"
PARTITION_VOTERS = "partition-voters"

FAMILIES = (
    ADD_CANDIDATES,
    DELETE_CANDIDATES,
    ADD_VOTERS,
    DELETE_VOTERS,
    PARTITION_CANDIDATES,
    RUNOFF_PARTITION_CANDIDATES,
    PARTITION_VOTERS,
)
_PARTITION_FAMILIES = (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES, PARTITION_VOTERS)
_BUDGETED_FAMILIES = (ADD_CANDIDATES, DELETE_CANDIDATES, ADD_VOTERS, DELETE_VOTERS)

CONSTRUCTIVE = "constructive"
DESTRUCTIVE = "destructive"

TIES_PROMOTE = "promote"
TIES_ELIMINATE = "eliminate"


class InvalidInstance(ValueError):
    """Raised when a control instance is malformed."""


@dataclass(frozen=True)
class ControlInstance:
    """One control decision problem over a base election.

    For ``add-candidates`` the base election is defined over the
    registered candidates plus the spoiler set (every ballot already
    scores the spoilers); ``spoilers`` flags which columns are merely
    addable.  ``pool`` holds the addable voters for ``add-voters`` and
    is canonicalized like election ballots.
    """

    base: Election
    family: str
    goal: str
    system: str
    distinguished: str
    tie_model: str | None = None
    limit: int | None = None
    spoilers: tuple[str, ...] = ()
    pool: tuple[BallotGroup, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidInstance(f"unknown control family {self.family!r}")
        if self.goal not in (CONSTRUCTIVE, DESTRUCTIVE):
            raise InvalidInstance(f"goal must be constructive or destructive, got {self.goal!r}")
        if self.system not in SYSTEMS:
            raise InvalidInstance(f"unknown system {self.system!r}")
        spoilers = tuple(self.spoilers)
        if spoilers and self.family != ADD_CANDIDATES:
            raise InvalidInstance("spoilers are only meaningful for add-candidates")
        unknown = set(spoilers) - set(self.base.candidates)
        if unknown:
            raise InvalidInstance(f"spoilers not in the base election: {sorted(unknown)}")
        # keep spoilers in declaration order, deduplicated
        spoilers = tuple(c for c in self.base.candidates if c in set(spoilers))
        object.__setattr__(self, "spoilers", spoilers)
        if self.distinguished not in self.base.candidates:
            raise InvalidInstance(f"distinguished candidate {self.distinguished!r} not registered")
        if self.distinguished in spoilers:
            raise InvalidInstance("distinguished candidate cannot be a spoiler")
        if self.family in _PARTITION_FAMILIES:
            if self.tie_model not in (TIES_PROMOTE, TIES_ELIMINATE):
                raise InvalidInstance(f"partition control needs a tie model, got {self.tie_model!r}")
            if self.limit is not None:
                raise InvalidInstance("partition control takes no limit")
        else:
            if self.tie_model is not None:
                raise InvalidInstance("tie model only applies to partition control")
            if not isinstance(self.limit, int) or self.limit < 1:
                raise InvalidInstance(f"{self.family} needs a positive limit, got {self.limit!r}")
        if self.family == ADD_VOTERS:
            try:
                # validates score ranges/widths and canonicalizes the pool
                pool_election = Election(self.base.k, self.base.candidates, tuple(self.pool))
            except InvalidElection as exc:
                raise InvalidInstance(f"bad voter pool: {exc}") from exc
            object.__setattr__(self, "pool", pool_election.ballots)
        elif self.pool:
            raise InvalidInstance("a voter pool is only meaningful for add-voters")

    @property
    def registered(self) -> tuple[str, ...]:
        """Candidates actually standing before any control action."""
        if not self.spoilers:
            return self.base.candidates
        out = set(self.spoilers)
        return tuple(c for c in self.base.candidates if c not in out)


@dataclass(frozen=True)
class ControlOutcome:
    """Decision plus canonical witness.

    ``decision`` is ``True``/``False`` for a proven answer and ``None``
    when the node budget ran out first.  ``explored`` counts actions in
    canonical order: first-success index + 1 on yes, the full action
    count on no, exactly the budget when exceeded.
    """

    decision: bool | None
    witness: tuple | None
    explored: int

    @property
    def budget_exceeded(self) -> bool:
        return self.decision is None


def subelection_survivors(election: Election, system: str, tie_model: str) -> frozenset[str]:
    """Who proceeds from a subelection: all winners (promote) or a lone winner (eliminate)."""
    if tie_model not in (TIES_PROMOTE, TIES_ELIMINATE):
        raise ValueError(f"unknown tie model {tie_model!r}")
    winners = tally(election, system).winners
    if tie_model == TIES_PROMOTE:
        return winners
    return winners if len(winners) == 1 else frozenset()


def _goal_met(goal: str, wanted, winners) -> bool:
    """Whether ``winners`` meets the goal; ``wanted`` is the distinguished
    candidate alone, in the same form (name set or index bitmask)."""
    return (winners == wanted) == (goal == CONSTRUCTIVE)


# ---------------------------------------------------------------------------
# exact integer winners, candidates as index bitmasks (bit i = candidate i)

def _top(totals: Sequence[int]) -> int:
    """Bitmask of the argmax positions of a nonempty ``totals``."""
    best = max(totals)
    if totals.count(best) == 1:
        return 1 << totals.index(best)
    return sum(1 << i for i, t in enumerate(totals) if t == best)


def _survivors(winners: int, tie_model: str) -> int:
    """All winners proceed (promote) or only a lone winner (eliminate)."""
    if tie_model == TIES_PROMOTE or not winners & (winners - 1):
        return winners
    return 0


def _subset_winners(base: Election, system: str) -> Callable[[int], int]:
    """Winner bitmask of the subelection of ``base`` over the candidates in a bitmask.

    Each candidate set is tallied once, on the base ballots' columns, and
    memoized for as long as the returned function lives (one solve call).
    """
    vectors = [g.scores for g in base.ballots]
    mults = [g.multiplicity for g in base.ballots]
    positions = range(len(base.candidates))
    cache: dict[int, int] = {}

    def winners(mask: int) -> int:
        found = cache.get(mask)
        if found is None:
            keep = [i for i in positions if mask >> i & 1]
            rows, _ = integer_rows([[v[i] for i in keep] for v in vectors], base.k, system)
            totals = weighted_sums(rows, mults, [0] * len(keep))
            best = max(totals, default=None)
            found = cache[mask] = sum(1 << c for c, t in zip(keep, totals) if t == best)
        return found

    return winners


def _mask_of(candidates: tuple[str, ...], members: Iterable[str]) -> int:
    return sum(1 << candidates.index(c) for c in members)


# ---------------------------------------------------------------------------
# enumeration primitives

def _subsets_by_size(domain: tuple[str, ...], max_size: int) -> Iterator[tuple[str, ...]]:
    for size in range(min(max_size, len(domain)) + 1):
        yield from itertools.combinations(domain, size)


def _count_subsets(domain_size: int, max_size: int) -> int:
    return sum(math.comb(domain_size, i) for i in range(min(max_size, domain_size) + 1))


def _capped_vectors(caps: Sequence[int], cap_sum: int) -> Iterator[tuple[int, ...]]:
    """All per-group count tuples with sum <= cap_sum, lexicographic order.

    An odometer with the first group most significant: each step bumps
    the last entry that can still grow and zeroes the entries after it.
    """
    vec = [0] * len(caps)
    room = cap_sum
    while True:
        yield tuple(vec)
        i = len(vec) - 1
        while i >= 0 and (not room or vec[i] == caps[i]):
            room += vec[i]
            vec[i] = 0
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        room -= 1


def _count_capped_vectors(caps: Sequence[int], cap_sum: int) -> int:
    counts = [1] + [0] * cap_sum  # counts[s] = #vectors so far with sum s
    for cap in caps:
        nxt = [0] * (cap_sum + 1)
        for s, c in enumerate(counts):
            if not c:
                continue
            for v in range(min(cap, cap_sum - s) + 1):
                nxt[s + v] += c
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# the generic canonical-order scanner

def _scan(actions: Iterable, evaluate: Callable, budget: int | None) -> ControlOutcome:
    explored = 0
    for action in actions:
        if budget is not None and explored >= budget:
            return ControlOutcome(None, None, explored)
        explored += 1
        if evaluate(action):
            return ControlOutcome(True, action, explored)
    return ControlOutcome(False, None, explored)


# ---------------------------------------------------------------------------
# per-family solvers

def _require(instance: ControlInstance, family: str) -> None:
    if instance.family != family:
        raise InvalidInstance(f"expected a {family} instance, got {instance.family}")


def solve_add_candidates(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by adding at most ``limit`` spoiler candidates."""
    _require(instance, ADD_CANDIDATES)
    base = instance.base
    registered = _mask_of(base.candidates, instance.registered)
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)
    limit = min(instance.limit, len(instance.spoilers))

    def evaluate(added: tuple[str, ...]) -> bool:
        return _goal_met(instance.goal, wanted, winners(registered | _mask_of(base.candidates, added)))

    return _scan(_subsets_by_size(instance.spoilers, limit), evaluate, budget)


def solve_delete_candidates(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by deleting at most ``limit`` candidates.

    The distinguished candidate is never deletable: the problem
    statement forbids it for destructive control, and deleting them can
    never help a constructive goal, so excluding them uniformly only
    prunes the search.
    """
    _require(instance, DELETE_CANDIDATES)
    base = instance.base
    deletable = tuple(c for c in base.candidates if c != instance.distinguished)
    limit = min(instance.limit, len(deletable))
    everyone = (1 << len(base.candidates)) - 1
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)

    def evaluate(deleted: tuple[str, ...]) -> bool:
        return _goal_met(instance.goal, wanted, winners(everyone ^ _mask_of(base.candidates, deleted)))

    return _scan(_subsets_by_size(deletable, limit), evaluate, budget)


def _voter_rows(
    instance: ControlInstance, groups: Sequence[BallotGroup]
) -> tuple[list[Sequence[int]], list[int]]:
    """The groups' counted rows on one integer scale, and their multiplicities."""
    rows, _ = integer_rows([g.scores for g in groups], instance.base.k, instance.system)
    return rows, [g.multiplicity for g in groups]


def solve_add_voters(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by registering at most ``limit`` voters from the pool.

    Partial multiplicities are allowed: an action takes ``j_i`` voters
    from pool group ``i``.
    """
    _require(instance, ADD_VOTERS)
    base = instance.base
    rows, mults = _voter_rows(instance, base.ballots + instance.pool)
    voters = len(base.ballots)
    base_totals = weighted_sums(rows[:voters], mults[:voters], [0] * len(base.candidates))
    pool_rows = rows[voters:]
    wanted = 1 << base.index(instance.distinguished)

    def evaluate(take: tuple[int, ...]) -> bool:
        return _goal_met(instance.goal, wanted, _top(weighted_sums(pool_rows, take, base_totals)))

    return _scan(_capped_vectors(mults[voters:], instance.limit), evaluate, budget)


def solve_delete_voters(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by removing at most ``limit`` voters."""
    _require(instance, DELETE_VOTERS)
    base = instance.base
    rows, caps = _voter_rows(instance, base.ballots)
    full = weighted_sums(rows, caps, [0] * len(base.candidates))
    removed = [tuple(-s for s in row) for row in rows]
    wanted = 1 << base.index(instance.distinguished)

    def evaluate(remove: tuple[int, ...]) -> bool:
        return _goal_met(instance.goal, wanted, _top(weighted_sums(removed, remove, full)))

    return _scan(_capped_vectors(caps, instance.limit), evaluate, budget)


def solve_partition_candidates(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by partition of candidates (one-sided subelection).

    The first group runs a subelection; its survivors join the second
    group for the final election over the full voter set.
    """
    _require(instance, PARTITION_CANDIDATES)
    base = instance.base
    everyone = (1 << len(base.candidates)) - 1
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)

    def evaluate(mask: int) -> bool:
        survivors = _survivors(winners(mask), instance.tie_model)
        return _goal_met(instance.goal, wanted, winners(survivors | everyone ^ mask))

    outcome = _scan(range(1 << len(base.candidates)), evaluate, budget)
    return _mask_witness(outcome, base.candidates)


def solve_runoff_partition_candidates(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by runoff partition of candidates (subelections on both sides)."""
    _require(instance, RUNOFF_PARTITION_CANDIDATES)
    base = instance.base
    everyone = (1 << len(base.candidates)) - 1
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)

    def evaluate(mask: int) -> bool:
        d1 = _survivors(winners(mask), instance.tie_model)
        d2 = _survivors(winners(everyone ^ mask), instance.tie_model)
        return _goal_met(instance.goal, wanted, winners(d1 | d2))

    outcome = _scan(range(1 << len(base.candidates)), evaluate, budget)
    return _mask_witness(outcome, base.candidates)


def _mask_witness(outcome: ControlOutcome, cands: tuple[str, ...]) -> ControlOutcome:
    if outcome.decision and outcome.witness is not None:
        mask = outcome.witness
        members = tuple(c for i, c in enumerate(cands) if mask >> i & 1)
        return ControlOutcome(outcome.decision, members, outcome.explored)
    return outcome


def solve_partition_voters(
    instance: ControlInstance, *, budget: int | None = None
) -> ControlOutcome:
    """Decide control by partition of voters.

    Actions are split vectors: entry ``j_i`` sends that many voters of
    group ``i`` into the first subelection, the rest into the second.
    By multiplicity linearity this covers every voter partition.  Both
    subelections use the full candidate set; the survivors' union faces
    the full voter set in the final round.
    """
    _require(instance, PARTITION_VOTERS)
    base = instance.base
    rows, mults = _voter_rows(instance, base.ballots)
    zeros = [0] * len(base.candidates)
    full = weighted_sums(rows, mults, zeros)
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)

    def evaluate(split: tuple[int, ...]) -> bool:
        first = weighted_sums(rows, split, zeros)
        second = [f - s for f, s in zip(full, first)]
        d1 = _survivors(_top(first), instance.tie_model)
        d2 = _survivors(_top(second), instance.tie_model)
        return _goal_met(instance.goal, wanted, winners(d1 | d2))

    actions = itertools.product(*(range(m + 1) for m in mults))
    return _scan(actions, evaluate, budget)


_SOLVERS = {
    ADD_CANDIDATES: solve_add_candidates,
    DELETE_CANDIDATES: solve_delete_candidates,
    ADD_VOTERS: solve_add_voters,
    DELETE_VOTERS: solve_delete_voters,
    PARTITION_CANDIDATES: solve_partition_candidates,
    RUNOFF_PARTITION_CANDIDATES: solve_runoff_partition_candidates,
    PARTITION_VOTERS: solve_partition_voters,
}


def solve(
    instance: ControlInstance, *, budget: int | None = None, workers: int = 1
) -> ControlOutcome:
    """Dispatch to the family-specific exhaustive solver.

    ``workers`` is accepted for compatibility and has no effect: every
    solve runs in one thread.  A negative ``budget`` is a ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return _SOLVERS[instance.family](instance, budget=budget)


def search_space(instance: ControlInstance) -> int:
    """Number of actions the exhaustive solver would enumerate."""
    if instance.family == ADD_CANDIDATES:
        return _count_subsets(len(instance.spoilers), instance.limit)
    if instance.family == DELETE_CANDIDATES:
        return _count_subsets(len(instance.base.candidates) - 1, instance.limit)
    if instance.family == ADD_VOTERS:
        return _count_capped_vectors([g.multiplicity for g in instance.pool], instance.limit)
    if instance.family == DELETE_VOTERS:
        return _count_capped_vectors([g.multiplicity for g in instance.base.ballots], instance.limit)
    if instance.family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES):
        return 1 << len(instance.base.candidates)
    return math.prod(g.multiplicity + 1 for g in instance.base.ballots)


def replay_witness(instance: ControlInstance, witness: tuple) -> bool:
    """Re-evaluate a witnessed action with plain project/tally calls.

    Independent of solver-internal caching and integer scaling; used to
    validate that yes-outcomes really achieve their goal.
    """
    base = instance.base
    system = instance.system
    family = instance.family
    if family == ADD_CANDIDATES:
        subset = set(instance.registered) | set(witness)
        winners = tally(project(base, subset), system).winners
    elif family == DELETE_CANDIDATES:
        if instance.distinguished in witness:
            raise InvalidInstance("the distinguished candidate is never deletable")
        subset = set(base.candidates) - set(witness)
        winners = tally(project(base, subset), system).winners
    elif family == ADD_VOTERS:
        groups = list(base.ballots)
        for take, g in zip(witness, instance.pool):
            if take:
                groups.append(BallotGroup(g.scores, take))
        winners = tally(Election(base.k, base.candidates, tuple(groups)), system).winners
    elif family == DELETE_VOTERS:
        winners = tally(drop_voters(base, list(witness)), system).winners
    elif family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES):
        first = set(witness)
        rest = set(base.candidates) - first
        d1 = subelection_survivors(project(base, first), system, instance.tie_model)
        if family == PARTITION_CANDIDATES:
            finalists = d1 | rest
        else:
            d2 = subelection_survivors(project(base, rest), system, instance.tie_model)
            finalists = d1 | d2
        winners = tally(project(base, finalists), system).winners
    else:  # partition-voters
        side1 = take_voters(base, list(witness))
        side2 = drop_voters(base, list(witness))
        d1 = subelection_survivors(side1, system, instance.tie_model)
        d2 = subelection_survivors(side2, system, instance.tie_model)
        winners = tally(project(base, d1 | d2), system).winners
    return _goal_met(instance.goal, frozenset((instance.distinguished,)), winners)


def scale_instance(instance: ControlInstance, a: int) -> ControlInstance:
    """Scale the base election (and pool ballots) by ``a``; decisions are invariant."""
    base = scale_election(instance.base, a)
    pool = tuple(
        BallotGroup(tuple(s * a for s in g.scores), g.multiplicity) for g in instance.pool
    )
    return ControlInstance(
        base=base,
        family=instance.family,
        goal=instance.goal,
        system=instance.system,
        distinguished=instance.distinguished,
        tie_model=instance.tie_model,
        limit=instance.limit,
        spoilers=instance.spoilers,
        pool=pool,
    )


def describe(instance: ControlInstance) -> str:
    """Stable one-line label, used in audit reports and CLI output."""
    parts = [instance.goal, instance.family]
    if instance.tie_model:
        parts.append(instance.tie_model)
    parts.append(f"w={instance.distinguished}")
    if instance.limit is not None:
        parts.append(f"limit={instance.limit}")
    parts.append(instance.system)
    return " ".join(parts)
