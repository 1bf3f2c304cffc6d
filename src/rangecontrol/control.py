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

The first success in this order is the canonical witness.  Each
family's search hands :func:`solve` a walk in this order, an evaluator
of one action and a witness decoder, and ``solve`` alone turns them into
an outcome, evaluating actions one at a time in a single thread.  A
"no" may be proven in another order first: its outcome depends on the
number of actions and the budget alone, so any walk that covers every
action without a success fixes it, and only a success needs the
canonical walk (partition of voters under ties-eliminate has such a
proof order).
A rival that scores at least the distinguished candidate's score on
every ballot an action can count dominates them (:func:`_dominators`):
in any election that holds both, over any of those ballots, the rival's
total is at least theirs, under ``rv`` and under ``nrv`` alike, since
``nrv`` maps each ballot's scores by one nondecreasing affine map and a
zero-span ballot counts 0 for everyone.  So the distinguished candidate
is never the lone winner of an election that holds a dominator.  The
searches decide such an election without tallying it, and ``solve``
answers a constructive instance "no" without a walk when every action
leaves a dominator standing: under a voter action whenever one exists,
when adding candidates if one is registered, and when deleting if they
outnumber the limit.
Candidate-set subelections are decided from the base ballots' columns,
never by projecting ballots.  Under ``nrv`` their totals drop the factor
``k`` and each ballot's offset ``-lo`` from the :func:`integer_rows`
totals; that scales and shifts every kept candidate's total alike, so
the winners are exactly those of a tally.
Voter scans update the integer totals as the entries of the count tuple
change, rather than re-tallying every action.  Every total is linear in
the count tuple, so with its leading entries fixed, interval bounds on
each candidate-pair margin over the free entries can prove that no
completion succeeds; such a subtree is skipped and its size counted, so
``explored`` and the witness are those of the plain scan.  A partition
of voters decides like its mirror, the split vector ``mults - vec``, so
a subtree whose every split vector comes after its mirror holds no first
success and is skipped by the same rule.

A node budget is a position in canonical order: the scan stops with
``decision=None`` ("budget exceeded", distinct from a proven "no")
before the first action past it, whether that action would be evaluated
or lies in a skipped subtree.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from .elections import (
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
    "replay_witness",
    "search_space",
    "search_space_floor",
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
_VOTER_FAMILIES = (ADD_VOTERS, DELETE_VOTERS, PARTITION_VOTERS)

CONSTRUCTIVE = "constructive"
DESTRUCTIVE = "destructive"

TIES_PROMOTE = "promote"
TIES_ELIMINATE = "eliminate"
_TIE_MODELS = (TIES_PROMOTE, TIES_ELIMINATE)


class InvalidInstance(ValueError):
    """Raised when a control instance is malformed; ``field`` names the field at
    fault, or is None for a rule of two fields and for a rejected witness."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


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
        # the one statement of every instance rule, in the order the file parser
        # has always reported them, so a file breaking two still names the same one
        candidates = self.base.candidates
        if self.family not in FAMILIES:
            raise InvalidInstance(f"unknown action {self.family!r}", "family")
        if self.goal not in (CONSTRUCTIVE, DESTRUCTIVE):
            raise InvalidInstance(f"unknown goal {self.goal!r}", "goal")
        if self.system not in SYSTEMS:
            raise InvalidInstance(f"unknown system {self.system!r}", "system")
        if self.distinguished not in candidates:
            raise InvalidInstance(f"unknown candidate {self.distinguished!r}", "distinguished")
        if self.tie_model is not None and self.tie_model not in _TIE_MODELS:
            raise InvalidInstance(f"unknown tie model {self.tie_model!r}", "tie_model")
        if self.limit is not None and not isinstance(self.limit, int):
            raise InvalidInstance(f"limit must be an integer, got {self.limit!r}", "limit")
        unknown = [c for c in self.spoilers if c not in candidates]
        if unknown:
            raise InvalidInstance(f"unknown spoiler candidates {unknown}", "spoilers")
        if self.pool and self.family != ADD_VOTERS:
            raise InvalidInstance("pool: is only valid for add-voters", "pool")
        if self.spoilers and self.family != ADD_CANDIDATES:
            raise InvalidInstance("spoilers are only meaningful for add-candidates", "spoilers")
        spoilers = set(self.spoilers)
        if self.distinguished in spoilers:
            raise InvalidInstance("distinguished candidate cannot be a spoiler")
        # keep spoilers in declaration order, deduplicated
        object.__setattr__(self, "spoilers", tuple(c for c in candidates if c in spoilers))
        if self.family in _PARTITION_FAMILIES:
            if self.tie_model is None:
                raise InvalidInstance("partition control needs a tie model, got None", "tie_model")
            if self.limit is not None:
                raise InvalidInstance("partition control takes no limit", "limit")
        else:
            if self.tie_model is not None:
                raise InvalidInstance("tie model only applies to partition control", "tie_model")
            if self.limit is None or self.limit < 1:
                raise InvalidInstance(
                    f"{self.family} needs a positive limit, got {self.limit!r}", "limit")
        if self.family == ADD_VOTERS:
            try:
                # validates score ranges/widths and canonicalizes the pool
                pool_election = Election(self.base.k, candidates, tuple(self.pool))
            except InvalidElection as exc:
                raise InvalidInstance(f"bad voter pool: {exc}", "pool") from exc
            object.__setattr__(self, "pool", pool_election.ballots)

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
    when the node budget ran out first.  ``explored`` is a position in
    canonical order, counting the actions of skipped subtrees as well as
    the evaluated ones: first-success index + 1 on yes, the full action
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
    if tie_model not in _TIE_MODELS:
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


def _lone_top(totals: Sequence[int]) -> int:
    """The bit of a lone argmax of ``totals``, else 0: who survives ties-eliminate."""
    best = max(totals)
    return 1 << totals.index(best) if totals.count(best) == 1 else 0


def _survivors(winners: int, tie_model: str) -> int:
    """All winners proceed (promote) or only a lone winner (eliminate)."""
    if tie_model == TIES_PROMOTE or not winners & (winners - 1):
        return winners
    return 0


def _subset_winners(base: Election, system: str) -> Callable[[int], int]:
    """Winner bitmask of the subelection of ``base`` over the candidates in a bitmask.

    No mask projects ballots or builds rows: each is decided on the base
    ballots' candidate columns, afresh on every call: a subset solve never
    repeats a mask, and the partition solvers memoize their own calls.
    Under ``rv`` a candidate's total does not depend on who else stands,
    so the full totals are summed once.
    Under ``nrv`` a group's ``lo`` and ``hi`` over the mask are the first
    and last of its score values whose candidate bitmask meets the mask;
    the group weighs ``mult * (L // span)``, ``L`` being the lcm of the
    nonzero spans, or 0 for a zero span.  A kept candidate's total is then
    its :func:`integer_rows` total without the factor ``k`` and without
    ``-lo`` in each row: that scales every kept total by the same ``k`` and
    shifts it by the same ``sum(weight * lo)``, so the argmax is exact.
    """
    groups = base.ballots
    mults = [g.multiplicity for g in groups]
    positions = range(len(base.candidates))
    columns = [[g.scores[c] for g in groups] for c in positions]

    if system == RV:
        full = [sum(map(operator.mul, mults, column)) for column in columns]

        def totals(keep: list[int], mask: int) -> list[int]:
            return [full[c] for c in keep]
    else:
        # per group, (score, bitmask of the candidates given it) by ascending
        # score, and the same pairs by descending score
        levels = []
        for g in groups:
            bits: dict[int, int] = {}
            for c, s in enumerate(g.scores):
                bits[s] = bits.get(s, 0) | 1 << c
            up = sorted(bits.items())
            levels.append((up, up[::-1]))

        def totals(keep: list[int], mask: int) -> list[int]:
            spans = []
            for up, down in levels:
                for lo, b in up:
                    if b & mask:
                        break
                for hi, b in down:
                    if b & mask:
                        break
                spans.append(hi - lo)
            scale = math.lcm(*filter(None, spans))
            weights = [m * (scale // span) if span else 0 for m, span in zip(mults, spans)]
            return [sum(map(operator.mul, weights, columns[c])) for c in keep]

    def winners(mask: int) -> int:
        keep = [c for c in positions if mask >> c & 1]
        sums = totals(keep, mask) if keep else []
        best = max(sums, default=None)
        return sum(1 << c for c, t in zip(keep, sums) if t == best)

    return winners


def _dominators(instance: ControlInstance) -> int:
    """Bitmask of the rivals whose score is at least the distinguished candidate's
    on every ballot group an action can count: the base groups, and the pool
    when adding voters.  Each rival's column is compared in one C-level pass."""
    candidates = instance.base.candidates
    scores = [g.scores for g in instance.base.ballots + instance.pool]
    columns = list(zip(*scores)) or [()] * len(candidates)  # no ballots: every total is 0
    w = candidates.index(instance.distinguished)
    mine = columns[w]
    return sum(1 << c for c, column in enumerate(columns)
               if c != w and all(map(operator.ge, column, mine)))


def _mask_of(candidates: tuple[str, ...], members: Iterable[str]) -> int:
    return sum(1 << candidates.index(c) for c in members)


# ---------------------------------------------------------------------------
# enumeration primitives

def _subsets_by_size(domain: tuple[str, ...], max_size: int) -> Iterator[tuple[str, ...]]:
    for size in range(min(max_size, len(domain)) + 1):
        yield from itertools.combinations(domain, size)


def _count_subsets(domain_size: int, max_size: int) -> int:
    return sum(math.comb(domain_size, i) for i in range(min(max_size, domain_size) + 1))


def _capped_counts(caps: Sequence[int], cap_sum: int) -> Iterator[tuple[int, list[int]]]:
    """The odometer's subtree sizes: one ``(lo, row)`` per level, from ``len(caps)`` down to 0.

    The subtree at level ``d`` fixes entries ``0..d-1`` and leaves the rest
    free under the room ``r`` that the fixed entries leave of ``cap_sum``;
    ``row[min(r - lo, len(row) - 1)]`` counts its tuples.  A row covers the
    rooms that its level can be reached with, ``r >= lo``, and ends where
    ``r`` reaches the free entries' own cap sum, past which every tuple
    fits.  Each row is a prefix-sum window over the one below it, whose
    prefix sums are stored only over that row's own rooms.
    """
    before = sum(caps)  # cap sum of the entries fixed above the level
    lo, hi, row = 0, 0, [1]  # level len(caps): the empty tuple
    yield lo, row
    for cap in reversed(caps):
        before -= cap
        below_lo, below_hi, below = lo, hi, row
        hi = min(cap_sum, below_hi + cap)
        lo = min(max(0, cap_sum - before), hi)
        first = max(0, lo - cap)
        # the window's terms are below's entries up to below_hi, then below[-1]
        top = min(hi, below_hi)
        run = [0, *itertools.accumulate(below[s - below_lo] for s in range(first, top + 1))]

        def prefix(s: int) -> int:  # the sum of the terms for rooms first..s-1
            return run[min(s, top + 1) - first] + max(0, s - top - 1) * below[-1]

        row = [prefix(r + 1) - prefix(max(first, r - cap)) for r in range(lo, hi + 1)]
        yield lo, row


def _count_capped_vectors(caps: Sequence[int], cap_sum: int) -> int:
    """How many count tuples the odometer walks: the size of its level-0 subtree."""
    for _, row in _capped_counts(caps, cap_sum):
        pass
    return row[-1]


def _odometer(
    caps: Sequence[int],
    cap_sum: int,
    moves: Sequence[Sequence[int]],
    start: Sequence[int],
    dead: Callable[[int, list[int], list[int], int], bool],
) -> Iterator[tuple[int, tuple | None]]:
    """``_scan`` steps over the per-group count tuples with sum <= cap_sum, in
    lexicographic order: ``(1, (vec, totals))`` for a tuple and its totals
    ``start + sum(count_i * moves[i])`` as a fresh list, ``(size, None)`` for
    a subtree that ``dead`` proves holds no success.

    An odometer with the first group most significant: each step bumps the
    last entry that can still grow, adding its move to the totals, and zeroes
    the entries after it, subtracting ``c * move`` for each one that held ``c``.

    A tuple whose entries from ``d`` on are zero is the first of the subtree
    that fixes entries ``0..d-1``.  Each such subtree is put to
    ``dead(d, vec, totals, room)``, largest first, ``vec`` being that first
    tuple (only ``vec[:d]`` is fixed; it is the odometer's own list, to
    read, not keep) and ``room`` what the fixed entries leave of
    ``cap_sum``; a subtree it proves dead is yielded with its number of
    tuples as its size, and walked no further.
    """
    levels = len(caps)
    sizes = list(_capped_counts(caps, cap_sum))[::-1]
    vec = [0] * levels
    totals = list(start)
    room = cap_sum
    free = 0  # entries from `free` on are zero: vec starts a subtree at each level >= free
    while True:
        while free < levels:
            lo, row = sizes[free]
            size = row[min(room - lo, len(row) - 1)]
            if size > 1 and dead(free, vec, totals, room):
                break
            free += 1
        if free < levels:
            yield size, None
        else:
            yield 1, (tuple(vec), totals)
        i = free - 1
        while i >= 0 and (not room or vec[i] == caps[i]):
            held, vec[i] = vec[i], 0
            if held:
                room += held
                unwound = map(operator.mul, moves[i], itertools.repeat(held))
                totals = list(map(operator.sub, totals, unwound))
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        room -= 1
        totals = list(map(operator.add, totals, moves[i]))
        free = i + 1


def _suffix_falls(caps: Sequence[int], deltas: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """How far ``sum(v_l * deltas[l][j] for l >= d)`` can fall below 0, per level ``d``,
    with each ``v_l`` in ``[0, caps[l]]``."""
    falls = [[0] * width]
    for cap, row in zip(reversed(caps), reversed(deltas)):
        falls.append([f + cap * min(0, x) for f, x in zip(falls[-1], row)])
    return falls[::-1]


# ---------------------------------------------------------------------------
# the generic canonical-order scanner

def _scan(steps: Iterable[tuple[int, object]], evaluate: Callable, budget: int | None) -> ControlOutcome:
    """The first success in canonical order.

    ``steps`` yields ``(1, action)`` for an action to evaluate and
    ``(size, None)`` for a subtree of ``size`` actions proven to hold no
    success, which counts toward ``explored`` unevaluated.  The budget is
    a position in that order: a step that would pass it ends the scan.
    """
    explored = 0
    for size, action in steps:
        if budget is not None and explored + size > budget:
            return ControlOutcome(None, None, budget)
        explored += size
        if action is not None and evaluate(action):
            return ControlOutcome(True, action, explored)
    return ControlOutcome(False, None, explored)


def _each(actions: Iterable) -> Iterator[tuple[int, object]]:
    """Scan steps that evaluate every action."""
    return zip(itertools.repeat(1), actions)


def _no_outcome(size: int, budget: int | None) -> ControlOutcome:
    """The outcome of a "no" over ``size`` actions: the canonical scan covers
    them all, unless ``budget`` ends it first."""
    if budget is not None and size > budget:
        return ControlOutcome(None, None, budget)
    return ControlOutcome(False, None, size)


def _prove_no(steps: Iterable[tuple[int, object]], evaluate: Callable, cap: int | None) -> int | None:
    """How many actions ``steps`` covers when none of them succeeds, else None.

    The steps are ``_scan``'s, in any order.  ``cap`` bounds the steps
    taken, evaluated or skipped: past it the proof gives up with None.
    """
    covered = 0
    for taken, (size, action) in enumerate(steps):
        if taken == cap or action is not None and evaluate(action):
            return None
        covered += size
    return covered


# ---------------------------------------------------------------------------
# per-family searches, which solve drives

# (walk, evaluate, witness, proof order), as :func:`solve` reads them
_Search = tuple[Callable[..., Iterable[tuple[int, object]]], Callable[[object], bool],
                Callable[[object], tuple], list[int] | None]
_vector = operator.itemgetter(0)  # the count tuple of an odometer step


def _candidate_domain(instance: ControlInstance) -> tuple[str, ...]:
    """The candidates an add/delete-candidates action may choose from.

    These are the spoilers when adding.  When deleting, everyone but the
    distinguished candidate is deletable: the problem statement forbids
    deleting them for destructive control, and deleting them can never
    help a constructive goal, so excluding them uniformly only prunes
    the search.
    """
    if instance.family == ADD_CANDIDATES:
        return instance.spoilers
    return tuple(c for c in instance.base.candidates if c != instance.distinguished)


def _voter_caps(instance: ControlInstance) -> list[int]:
    """Per-group caps of a voter action: pool multiplicities when adding, else base ones."""
    groups = instance.pool if instance.family == ADD_VOTERS else instance.base.ballots
    return [g.multiplicity for g in groups]


def _search_candidate_subsets(instance: ControlInstance, dominators: int) -> _Search:
    """Control by adding spoilers or deleting candidates, at most ``limit`` of them.

    Spoilers start unregistered and every deletable candidate starts
    registered, so toggling the chosen candidates covers both actions.
    A kept set that holds a dominator is decided without a tally.
    """
    base = instance.base
    registered = _mask_of(base.candidates, instance.registered)
    wanted = 1 << base.index(instance.distinguished)
    winners = _subset_winners(base, instance.system)
    beaten = instance.goal == DESTRUCTIVE  # the verdict when a dominator stands
    domain = _candidate_domain(instance)

    def evaluate(chosen: tuple[str, ...]) -> bool:
        kept = registered ^ _mask_of(base.candidates, chosen)
        if kept & dominators:
            return beaten
        return _goal_met(instance.goal, wanted, winners(kept))

    return lambda: _each(_subsets_by_size(domain, instance.limit)), evaluate, tuple, None


def _voter_rows(
    instance: ControlInstance, groups: Sequence[BallotGroup]
) -> tuple[list[Sequence[int]], list[int]]:
    """The groups' counted rows on one integer scale, and their multiplicities."""
    rows, _ = integer_rows([g.scores for g in groups], instance.base.k, instance.system)
    return rows, [g.multiplicity for g in groups]


def _search_voter_counts(instance: ControlInstance, dominators: int) -> _Search:
    """Control by registering pool voters or removing voters, at most ``limit`` in all.

    Partial multiplicities are allowed: an action takes or removes
    ``j_i`` voters of group ``i``.  Each move adds a pool row to the
    base totals, or subtracts a base row from them.  A subtree of the
    scan is skipped once the moves left to it cannot change the verdict.
    """
    base = instance.base
    rows, mults = _voter_rows(instance, base.ballots + instance.pool)
    voters = len(base.ballots)
    totals = weighted_sums(rows[:voters], mults[:voters], [0] * len(base.candidates))
    if instance.family == ADD_VOTERS:
        moves = rows[voters:]
    else:
        moves = [tuple(-s for s in row) for row in rows[:voters]]
    w = base.index(instance.distinguished)
    wanted = 1 << w
    caps = _voter_caps(instance)
    rivals = [c for c in range(len(base.candidates)) if c != w]
    # a subtree is dead when some rival's lead over w never falls below 0
    # (constructive) or w's lead over every rival never falls to 0 (destructive)
    sign = 1 if instance.goal == DESTRUCTIVE else -1
    lead_moves = [[sign * (move[w] - move[c]) for c in rivals] for move in moves]
    falls = _suffix_falls(caps, lead_moves, len(rivals))
    # the falls per unit of room: each level's most negative lead move at or after it
    unit_falls = [[0] * len(rivals)]
    for cap, row in zip(reversed(caps), reversed(lead_moves)):
        unit_falls.append(list(map(min, unit_falls[-1], row)) if cap else unit_falls[-1])
    unit_falls.reverse()

    def dead(level: int, vec: list[int], totals: list[int], room: int) -> bool:
        lows = (
            sign * (totals[w] - totals[c]) + max(fall, room * unit)
            for c, fall, unit in zip(rivals, falls[level], unit_falls[level])
        )
        if instance.goal == CONSTRUCTIVE:
            return any(low >= 0 for low in lows)
        return all(low > 0 for low in lows)

    def evaluate(action: tuple) -> bool:
        return _goal_met(instance.goal, wanted, _top(action[1]))

    return lambda: _odometer(caps, instance.limit, moves, totals, dead), evaluate, _vector, None


def _search_candidate_partitions(instance: ControlInstance, dominators: int) -> _Search:
    """Control by partition or runoff partition of candidates.

    The first group runs a subelection.  Its survivors face the second
    group in the final election over the full voter set; with a runoff,
    the second group first runs a subelection of its own.

    A dominator on the distinguished candidate's own side decides the
    action untallied: it either knocks them out there or, tied with them,
    goes on with them (as every member of a group without a runoff does).
    So does their own side's subelection when they do not survive it,
    before the other side is tallied, and a final round that holds a
    dominator.
    """
    base = instance.base
    everyone = (1 << len(base.candidates)) - 1
    wanted = 1 << base.index(instance.distinguished)
    winners = functools.cache(_subset_winners(base, instance.system))
    runoff = instance.family == RUNOFF_PARTITION_CANDIDATES
    beaten = instance.goal == DESTRUCTIVE  # the verdict when a dominator stands

    def evaluate(mask: int) -> bool:
        in_first = mask & wanted
        own, other = (mask, everyone ^ mask) if in_first else (everyone ^ mask, mask)
        if own & dominators:
            return beaten
        if in_first or runoff:  # w's side runs a subelection
            own = _survivors(winners(own), instance.tie_model)
            if not own & wanted:
                return beaten
        if runoff or not in_first:  # the other side runs one
            other = _survivors(winners(other), instance.tie_model)
        finalists = own | other
        if finalists & dominators:
            return beaten
        return _goal_met(instance.goal, wanted, winners(finalists))

    def first_group(mask: int) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(base.candidates) if mask >> i & 1)

    return lambda: _each(range(everyone + 1)), evaluate, first_group, None


def _search_voter_partitions(instance: ControlInstance, dominators: int) -> _Search:
    """Control by partition of voters.

    Actions are split vectors: entry ``j_i`` sends that many voters of
    group ``i`` into the first subelection, the rest into the second.
    By multiplicity linearity this covers every voter partition.  Both
    subelections use the full candidate set; the survivors' union faces
    the full voter set in the final round.

    ``walk(order)`` scans the full box of split vectors with the groups in
    ``order``, the first most significant; ``walk()`` is the canonical
    walk.  Its steps carry the split vector in that order and the first
    side's totals, which are all ``evaluate`` reads.  Under ties-eliminate
    the proof order puts the groups by ``mult * (max(row) - min(row))``,
    largest first: the groups that move the margins most are fixed first,
    so the bounds close whole subtrees early.  Under ties-promote those
    proofs measured slower than the canonical walk, so it has no proof
    order.

    Swapping the sides leaves the finalists alone, so a split vector and
    its complement ``mults - vec`` decide alike, and whichever of the two
    comes later in the walk's order can succeed only if the earlier one
    did.  A subtree is therefore skipped as soon as its fixed entries'
    first one with ``2 * v != m`` has ``2 * v > m`` (each of its vectors
    comes after its complement), and otherwise once every pair of
    survivor sets its sides can reach fails (see :func:`_margin_lines`).
    """
    base = instance.base
    rows, mults = _voter_rows(instance, base.ballots)
    full = weighted_sums(rows, mults, [0] * len(base.candidates))
    wanted = 1 << base.index(instance.distinguished)
    winners = functools.cache(_subset_winners(base, instance.system))
    goal, promote = instance.goal, instance.tie_model == TIES_PROMOTE
    survivors = _top if promote else _lone_top

    def evaluate(action: tuple) -> bool:
        first = action[1]
        second = list(map(operator.sub, full, first))
        return _goal_met(goal, wanted, winners(survivors(first) | survivors(second)))

    def walk(order: Sequence[int] = range(len(rows))) -> Iterator[tuple[int, tuple | None]]:
        caps = [mults[i] for i in order]
        moves = [rows[i] for i in order]
        lines = _margin_lines(moves, caps, len(full))

        def dead(level: int, vec: list[int], first: list[int], room: int) -> bool:
            for i in range(level):
                if 2 * vec[i] != caps[i]:
                    if 2 * vec[i] > caps[i]:
                        return True  # the mirror half: every complement came first
                    break
            lead_rows, lead_columns, top_rows, top_columns = lines[level]
            lead1 = _lone_leader(first, lead_rows)
            if not lead1 and promote:
                return False  # a side without a sure lone winner may promote any tie
            second = list(map(operator.sub, full, first))
            lead2 = _lone_leader(second, lead_columns)
            if lead1 and lead2:
                finalists = [lead1 | lead2]
            elif promote:
                return False
            elif not lead1 and not lead2 and goal == DESTRUCTIVE:
                return False  # both sides may tie, leaving no finalist and so no winner
            else:
                # ties-eliminate: a side's survivors are its sure leader, else nobody or a possible lone top
                d1 = (lead1,) if lead1 else (0, *_possible_lone_tops(first, top_columns))
                d2 = (lead2,) if lead2 else (0, *_possible_lone_tops(second, top_rows))
                finalists = [a | b for a in d1 for b in d2]
            return not any(_goal_met(goal, wanted, winners(mask)) for mask in finalists)

        # cap_sum = sum(mults) admits every split vector: the full box, lexicographically
        return _odometer(caps, sum(mults), moves, [0] * len(full), dead)

    spread = [m * (max(row) - min(row)) for m, row in zip(mults, rows)]
    order = sorted(range(len(rows)), key=spread.__getitem__, reverse=True)
    proof = None if promote or order == sorted(order) else order
    return walk, evaluate, _vector, proof


def _margin_lines(rows: Sequence[Sequence[int]], mults: Sequence[int], n: int) -> list[tuple]:
    """Per level of the partition-voters scan, the rows and columns of its margin table.

    ``falls[a * n + c]`` is how far the first side's ``t_a - t_c`` can fall
    over a subtree at the level, so how far the second side's ``t_c - t_a``
    can: the second side reads columns where the first reads rows, and the
    reverse.  A level holds ``(lead_rows, lead_columns, top_rows,
    top_columns)``, lines of two copies of the table with diagonals ``+big``
    (for :func:`_lone_leader`) and ``-big`` (for :func:`_possible_lone_tops`).
    """
    pairs = [(a, c) for a in range(n) for c in range(n)]
    falls = _suffix_falls(mults, [[row[a] - row[c] for a, c in pairs] for row in rows], n * n)
    # Rows are nonnegative, so every total lies in [0, S] and every fall in [-S, 0],
    # S = sum(mult * max(row)).  With big > 2S a diagonal term is never the min of a
    # leader test nor the max of a top test, and alone (n = 1) it passes both, as an
    # empty `all` does.  (Both compare strictly, so any big > 0 would decide alike.)
    big = 1 + 2 * sum(m * max(row) for m, row in zip(mults, rows))

    def lines(table: list[int], diagonal: int) -> tuple[list[list[int]], list[list[int]]]:
        table[:: n + 1] = [diagonal] * n
        return [table[a * n:a * n + n] for a in range(n)], [table[a::n] for a in range(n)]

    return [(*lines(table, big), *lines(table, -big)) for table in falls]


def _lone_leader(totals: list[int], lines: list[list[int]]) -> int:
    """The bit of the candidate that tops one side alone throughout a subtree, else 0,
    ``lines[a][c]`` being how far ``t_a - t_c`` can fall from ``totals`` (at its first action)."""
    best = max(totals)
    a = totals.index(best)
    return 1 << a if min(map(operator.sub, lines[a], totals)) + best > 0 else 0


def _possible_lone_tops(totals: list[int], lines: list[list[int]]) -> list[int]:
    """Bits of the candidates that may still top one side alone somewhere in a subtree,
    ``lines[b][c]`` being how far ``t_c - t_b`` can fall from ``totals``."""
    return [1 << b for b, (t, line) in enumerate(zip(totals, lines))
            if t > max(map(operator.add, totals, line))]


# one search per action shape; each reads its family from the instance
_SEARCHES = {
    ADD_CANDIDATES: _search_candidate_subsets,
    DELETE_CANDIDATES: _search_candidate_subsets,
    ADD_VOTERS: _search_voter_counts,
    DELETE_VOTERS: _search_voter_counts,
    PARTITION_CANDIDATES: _search_candidate_partitions,
    RUNOFF_PARTITION_CANDIDATES: _search_candidate_partitions,
    PARTITION_VOTERS: _search_voter_partitions,
}


def _dominator_always_stands(instance: ControlInstance, dominators: int) -> bool:
    """Whether every action leaves a dominator in the terminal election: under a
    voter action whenever one exists, when adding candidates if one is
    registered, and when deleting if they outnumber the limit."""
    if instance.family == ADD_CANDIDATES:
        return bool(dominators & _mask_of(instance.base.candidates, instance.registered))
    if instance.family == DELETE_CANDIDATES:
        return dominators.bit_count() > instance.limit
    return instance.family in _VOTER_FAMILIES and dominators != 0


def solve(
    instance: ControlInstance, *, budget: int | None = None, workers: int = 1
) -> ControlOutcome:
    """Decide ``instance`` by the exhaustive search of its family.

    Each family gives a canonical walk, an evaluator, a witness decoder
    and, for partition of voters under ties-eliminate, a proof order.
    ``solve`` alone turns them into the outcome, in this order: it checks
    the budget (a negative one is a ValueError); it answers a constructive
    instance "no" without a walk when every action leaves a dominator
    standing; it seeks a "no" in the proof order; it scans in canonical
    order; and it decodes the first success.  The outcome is the canonical
    scan's either way (see the module docstring).  ``workers`` is accepted
    for compatibility and has no effect: every solve runs in one thread.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    dominators = _dominators(instance)
    if instance.goal == CONSTRUCTIVE and _dominator_always_stands(instance, dominators):
        return _no_outcome(search_space(instance), budget)
    walk, evaluate, witness, order = _SEARCHES[instance.family](instance, dominators)
    if order is not None:
        covered = _prove_no(walk(order), evaluate, budget)
        if covered is not None:
            return _no_outcome(covered, budget)
    outcome = _scan(walk(), evaluate, budget)
    if not outcome.decision:
        return outcome
    return ControlOutcome(True, witness(outcome.witness), outcome.explored)


def search_space(instance: ControlInstance) -> int:
    """Number of actions the exhaustive solver would enumerate."""
    if instance.family in (ADD_CANDIDATES, DELETE_CANDIDATES):
        return _count_subsets(len(_candidate_domain(instance)), instance.limit)
    if instance.family in (ADD_VOTERS, DELETE_VOTERS):
        return _count_capped_vectors(_voter_caps(instance), instance.limit)
    if instance.family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES):
        return 1 << len(instance.base.candidates)
    return math.prod(g.multiplicity + 1 for g in instance.base.ballots)


def search_space_floor(instance: ControlInstance) -> int | None:
    """A lower bound on :func:`search_space` for add/delete-voters, in O(groups) steps.

    With ``u = min(groups, limit)``, every count tuple whose first ``u``
    entries are each at most ``limit // u`` and whose other entries are 0
    stays within the limit, so their number bounds the exact count, which
    takes O(groups x limit) steps.  ``None`` for the other families, whose
    exact count is already that cheap.
    """
    if instance.family not in (ADD_VOTERS, DELETE_VOTERS):
        return None
    caps = _voter_caps(instance)
    used = min(len(caps), instance.limit)
    share = instance.limit // max(used, 1)
    return math.prod(min(cap, share) + 1 for cap in caps[:used])


def replay_witness(instance: ControlInstance, witness: tuple) -> bool:
    """Re-evaluate a witnessed action with plain project/tally calls.

    Independent of the solvers' ``_subset_winners``, their pruning, the
    dominance short-cuts and the caches; it still tallies through
    :func:`integer_rows`, the rows the voter-vector searches use too.
    Used to validate that yes-outcomes really achieve their goal.  A
    witness outside the instance's action space is an :class:`InvalidInstance`.
    """
    _check_action(instance, witness)
    base = instance.base
    system = instance.system
    family = instance.family
    if family == ADD_CANDIDATES:
        subset = set(instance.registered) | set(witness)
        winners = tally(project(base, subset), system).winners
    elif family == DELETE_CANDIDATES:
        subset = set(base.candidates) - set(witness)
        winners = tally(project(base, subset), system).winners
    elif family == ADD_VOTERS:
        taken = tuple(BallotGroup(g.scores, take) for take, g in zip(witness, instance.pool) if take)
        winners = tally(Election(base.k, base.candidates, base.ballots + taken), system).winners
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


def _check_action(instance: ControlInstance, witness: tuple) -> None:
    """Raise InvalidInstance unless ``witness`` is one of the instance's actions:
    a count in ``[0, cap]`` per voter group, or distinct candidates of its
    domain, adding up to at most the limit."""
    family = instance.family
    if family in _VOTER_FAMILIES:
        caps = _voter_caps(instance)
        if len(witness) != len(caps) or not all(0 <= j <= cap for j, cap in zip(witness, caps)):
            raise InvalidInstance(f"a {family} action takes {len(caps)} counts, each in [0, cap]")
        size = sum(witness)
    else:
        domain = instance.base.candidates if family in _PARTITION_FAMILIES else _candidate_domain(instance)
        if len(set(witness)) != len(witness) or not set(witness) <= set(domain):
            raise InvalidInstance(f"a {family} action chooses distinct candidates of {list(domain)}")
        size = len(witness)
    if instance.limit is not None and size > instance.limit:
        raise InvalidInstance(f"a {family} action has a limit of {instance.limit}, got {size}")


def scale_instance(instance: ControlInstance, a: int) -> ControlInstance:
    """Scale the base election (and pool ballots) by ``a``; decisions are invariant."""
    pool = scale_election(Election(instance.base.k, instance.base.candidates, instance.pool), a).ballots
    return replace(instance, base=scale_election(instance.base, a), pool=pool)


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
