"""Independent brute-force oracles used to validate the package.

Everything here recomputes results from first principles (plain loops,
expanded voter lists, full subset enumeration) without touching the
package's solver internals, so a bug in the fast paths cannot hide
behind itself.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

from rangecontrol.control import (
    ADD_CANDIDATES,
    ADD_VOTERS,
    CONSTRUCTIVE,
    DELETE_CANDIDATES,
    DELETE_VOTERS,
    PARTITION_CANDIDATES,
    PARTITION_VOTERS,
    RUNOFF_PARTITION_CANDIDATES,
    ControlInstance,
    _odometer,
)
from rangecontrol.elections import BallotGroup, Election
from rangecontrol.gadgets import HittingSetInstance
from rangecontrol.harness import exhaustive_hs_instances, exhaustive_x3c_instances
from rangecontrol.oracles import OracleResult


def brute_tally(election: Election, system: str) -> dict[str, Fraction]:
    """Direct summation of each ballot group's normalized row, times its multiplicity."""
    totals = {c: Fraction(0) for c in election.candidates}
    for group in election.ballots:
        scores = list(group.scores)
        if not scores:
            continue
        if system == "nrv":
            hi, lo = max(scores), min(scores)
            if hi == lo:
                continue
            row = [Fraction(election.k * (s - lo), hi - lo) for s in scores]
        else:
            row = [Fraction(s) for s in scores]
        for c, v in zip(election.candidates, row):
            totals[c] += group.multiplicity * v
    return totals


def brute_winners(election: Election, system: str) -> frozenset[str]:
    totals = brute_tally(election, system)
    if not totals:
        return frozenset()
    best = max(totals.values())
    return frozenset(c for c, v in totals.items() if v == best)


def brute_unique_winner(election: Election, system: str) -> str | None:
    winners = brute_winners(election, system)
    return next(iter(winners)) if len(winners) == 1 else None


def _survivors(election: Election, system: str, tie_model: str) -> frozenset[str]:
    winners = brute_winners(election, system)
    if tie_model == "promote":
        return winners
    return winners if len(winners) == 1 else frozenset()


def _sub(election: Election, keep: set[str]) -> Election:
    idx = [i for i, c in enumerate(election.candidates) if c in keep]
    cands = tuple(election.candidates[i] for i in idx)
    rows = [
        (g.multiplicity, tuple(g.scores[i] for i in idx)) for g in election.ballots
    ]
    return Election.from_rows(election.k, cands, rows)


def _expand_voters(election: Election) -> list[tuple[int, ...]]:
    out = []
    for g in election.ballots:
        out.extend([g.scores] * g.multiplicity)
    return out


def _with_voters(election: Election, voters: list[tuple[int, ...]]) -> Election:
    return Election.from_rows(election.k, election.candidates, [(1, v) for v in voters])


def _with_groups(election: Election, groups: list[tuple[int, tuple[int, ...]]]) -> Election:
    """The election of ``(multiplicity, scores)`` groups; empty groups are dropped."""
    return Election.from_rows(election.k, election.candidates, [(m, v) for m, v in groups if m])


def _goal(instance: ControlInstance, winner: str | None) -> bool:
    if instance.goal == CONSTRUCTIVE:
        return winner == instance.distinguished
    return winner != instance.distinguished


def plant_dominator(instance: ControlInstance, rival: str) -> ControlInstance:
    """``instance`` with ``rival``'s score raised to the distinguished candidate's on
    every base and pool ballot that scored it lower, so that ``rival`` weakly
    dominates them on every ballot an action can count."""
    base = instance.base
    r, w = base.index(rival), base.index(instance.distinguished)

    def raised(groups):
        return tuple(BallotGroup(tuple(max(s, g.scores[w]) if c == r else s
                                       for c, s in enumerate(g.scores)), g.multiplicity)
                     for g in groups)

    return replace(instance, base=Election(base.k, base.candidates, raised(base.ballots)),
                   pool=raised(instance.pool))


def brute_control(instance: ControlInstance) -> bool:
    """Decide a control instance by enumeration over individual voters
    and raw candidate subsets; no sharing with the package solvers."""
    base = instance.base
    system = instance.system
    if instance.family == ADD_CANDIDATES:
        registered = set(instance.registered)
        spoilers = list(instance.spoilers)
        for size in range(min(instance.limit, len(spoilers)) + 1):
            for combo in itertools.combinations(spoilers, size):
                winner = brute_unique_winner(_sub(base, registered | set(combo)), system)
                if _goal(instance, winner):
                    return True
        return False
    if instance.family == DELETE_CANDIDATES:
        others = [c for c in base.candidates if c != instance.distinguished]
        for size in range(min(instance.limit, len(others)) + 1):
            for combo in itertools.combinations(others, size):
                keep = set(base.candidates) - set(combo)
                winner = brute_unique_winner(_sub(base, keep), system)
                if _goal(instance, winner):
                    return True
        return False
    if instance.family == ADD_VOTERS:
        pool = []
        for g in instance.pool:
            pool.extend([g.scores] * g.multiplicity)
        voters = _expand_voters(base)
        for size in range(min(instance.limit, len(pool)) + 1):
            for combo in itertools.combinations(range(len(pool)), size):
                chosen = voters + [pool[i] for i in combo]
                winner = brute_unique_winner(_with_voters(base, chosen), system)
                if _goal(instance, winner):
                    return True
        return False
    if instance.family == DELETE_VOTERS:
        voters = _expand_voters(base)
        for size in range(min(instance.limit, len(voters)) + 1):
            for combo in itertools.combinations(range(len(voters)), size):
                chosen = [v for i, v in enumerate(voters) if i not in set(combo)]
                winner = brute_unique_winner(_with_voters(base, chosen), system)
                if _goal(instance, winner):
                    return True
        return False
    if instance.family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES):
        cands = base.candidates
        for mask in range(1 << len(cands)):
            first = {c for i, c in enumerate(cands) if mask >> i & 1}
            rest = set(cands) - first
            d1 = _survivors(_sub(base, first), system, instance.tie_model)
            if instance.family == PARTITION_CANDIDATES:
                finalists = set(d1) | rest
            else:
                d2 = _survivors(_sub(base, rest), system, instance.tie_model)
                finalists = set(d1) | set(d2)
            winner = brute_unique_winner(_sub(base, finalists), system)
            if _goal(instance, winner):
                return True
        return False
    # partition of voters: every subset of the expanded voter list
    voters = _expand_voters(base)
    for mask in range(1 << len(voters)):
        side1 = [v for i, v in enumerate(voters) if mask >> i & 1]
        side2 = [v for i, v in enumerate(voters) if not mask >> i & 1]
        d1 = _survivors(_with_voters(base, side1), system, instance.tie_model)
        d2 = _survivors(_with_voters(base, side2), system, instance.tie_model)
        winner = brute_unique_winner(_sub(base, set(d1) | set(d2)), system)
        if _goal(instance, winner):
            return True
    return False


def _voter_action_met(instance: ControlInstance, counts: tuple[int, ...]) -> bool:
    """Whether one voter action (take, remove or split counts per group) meets the goal,
    judged by :func:`brute_tally` on the voters it leaves (kept as groups when removing
    or splitting, so that multiplicities may be huge)."""
    base = instance.base
    system = instance.system
    if instance.family == ADD_VOTERS:
        voters = _expand_voters(base)
        for take, g in zip(counts, instance.pool):
            voters.extend([g.scores] * take)
        return _goal(instance, brute_unique_winner(_with_voters(base, voters), system))
    first = [(n, g.scores) for n, g in zip(counts, base.ballots)]
    kept = [(g.multiplicity - n, g.scores) for n, g in zip(counts, base.ballots)]
    if instance.family == DELETE_VOTERS:
        return _goal(instance, brute_unique_winner(_with_groups(base, kept), system))
    d1 = _survivors(_with_groups(base, first), system, instance.tie_model)
    d2 = _survivors(_with_groups(base, kept), system, instance.tie_model)
    return _goal(instance, brute_unique_winner(_sub(base, set(d1) | set(d2)), system))


def _box(caps):
    """Every count tuple with ``0 <= counts[i] <= caps[i]``, in ``itertools.product``
    order; ``product`` itself would first copy each range, which caps near 10^12 forbid."""
    counts = [0] * len(caps)
    while True:
        yield tuple(counts)
        i = len(caps) - 1
        while i >= 0 and counts[i] == caps[i]:
            counts[i] = 0
            i -= 1
        if i < 0:
            return
        counts[i] += 1


def reference_scan(instance: ControlInstance, budget: int | None = None):
    """``(decision, witness, explored)`` of a voter-family solve by a plain walk.

    Every count tuple is judged, in canonical order (``itertools.product``
    order, skipping tuples over the limit), with nothing pruned; the budget
    stops the walk before an action once ``budget`` actions were judged.
    """
    if instance.family == ADD_VOTERS:
        caps, cap_sum = [g.multiplicity for g in instance.pool], instance.limit
    elif instance.family == DELETE_VOTERS:
        caps, cap_sum = [g.multiplicity for g in instance.base.ballots], instance.limit
    else:
        assert instance.family == PARTITION_VOTERS
        caps = [g.multiplicity for g in instance.base.ballots]
        cap_sum = sum(caps)
    explored = 0
    for counts in _box(caps):
        if sum(counts) > cap_sum:
            continue
        if budget is not None and explored >= budget:
            return None, None, explored
        explored += 1
        if _voter_action_met(instance, counts):
            return True, counts, explored
    return False, None, explored


def never_dead(*_) -> bool:
    """An odometer ``dead`` predicate that prunes nothing."""
    return False


def _capped_vectors(caps, cap_sum):
    """The odometer's count tuples alone (zero-width moves, nothing pruned)."""
    return (vec for _, (vec, _) in _odometer(caps, cap_sum, [()] * len(caps), (), never_dead))


def reference_lone_leader(totals: list[int], falls: list[int]) -> int:
    """The bit of the candidate that tops a side alone throughout a subtree, else 0,
    by its per-pair definition: a unique top ``a`` whose every margin
    ``t_a - t_c`` stays positive after falling ``falls[a * n + c]``."""
    n = len(totals)
    best = max(totals)
    tops = [a for a in range(n) if totals[a] == best]
    if len(tops) != 1:
        return 0
    a = tops[0]
    if all(totals[a] - totals[c] + falls[a * n + c] > 0 for c in range(n) if c != a):
        return 1 << a
    return 0


def reference_possible_lone_tops(totals: list[int], falls: list[int]) -> list[int]:
    """Bits of the candidates ``b`` whose every margin ``t_b - t_c`` can still be
    positive, ``t_c - t_b`` being able to fall by ``falls[c * n + b]``."""
    n = len(totals)
    return [
        1 << b for b in range(n)
        if all(totals[b] - totals[c] - falls[c * n + b] > 0 for c in range(n) if c != b)
    ]


def hitting_set_exhaustive(hs: HittingSetInstance) -> OracleResult:
    """Plain subset enumeration; cross-check for the branch-and-bound oracle."""
    order = {e: i for i, e in enumerate(hs.universe)}
    masks = [sum({1 << order[e] for e in s}) for s in hs.sets]
    for size in range(hs.n + 1):
        for combo in itertools.combinations(range(hs.n), size):
            chosen = 0
            for i in combo:
                chosen |= 1 << i
            if all(sm & chosen for sm in masks):
                witness = tuple(hs.universe[i] for i in combo)
                return OracleResult(size <= hs.k, witness if size <= hs.k else (), size)
    raise AssertionError("unreachable: the full universe hits every set")


def brute_hitting_set(universe, sets, k) -> bool:
    elems = list(universe)
    for size in range(min(k, len(elems)) + 1):
        for combo in itertools.combinations(elems, size):
            chosen = set(combo)
            if all(chosen & set(s) for s in sets):
                return True
    return False


def brute_x3c(elements, sets) -> bool:
    k = len(elements) // 3
    for combo in itertools.combinations(range(len(sets)), k):
        seen: set[str] = set()
        total = 0
        for i in combo:
            seen.update(sets[i])
            total += len(sets[i])
        if total == len(seen) == len(elements):
            return True
    return False


def family_masks(elements, sets) -> tuple[int, ...]:
    """Each set as a bitmask over ``elements`` (bit i is ``elements[i]``)."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(sum(1 << index[e] for e in s) for s in sets)


def _permuted_families(masks: tuple[int, ...], n: int):
    """The sorted family each of the n! element permutations makes of ``masks``."""
    for perm in itertools.permutations(range(n)):
        permuted = []
        for mask in masks:
            pm = 0
            for i in range(n):
                if mask >> i & 1:
                    pm |= 1 << perm[i]
            permuted.append(pm)
        yield tuple(sorted(permuted))


def canonical_family(masks: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The least sorted family over all n! element permutations of ``masks``."""
    return min(_permuted_families(masks, n))


def _is_canonical(elements, sets) -> bool:
    """Whether the family is its own canonical form; stops at the first smaller one."""
    masks = family_masks(elements, sets)
    own = tuple(sorted(masks))
    return all(own <= p for p in _permuted_families(masks, len(elements)))


def reference_hs_instances(n_range, m_range, k_range):
    """The isomorph-free hitting-set sweep by definition: the raw sweep,
    keeping each family that is the least member of its orbit."""
    for inst in exhaustive_hs_instances(n_range, m_range, k_range, isomorphism_free=False):
        if _is_canonical(inst.universe, inst.sets):
            yield inst


def reference_x3c_instances(k_range, set_range):
    """The isomorph-free exact-cover sweep by definition (see reference_hs_instances)."""
    for inst in exhaustive_x3c_instances(k_range, set_range, isomorphism_free=False):
        if _is_canonical(inst.elements, inst.sets):
            yield inst
