"""Independent exact solvers for the source NP problems.

These are the ground truth when auditing reductions: a gadget's control
answer is compared against the answer computed here directly on the
source instance.  Witnesses are canonical (lexicographically first at
minimum size) so audit reports are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gadgets import HittingSetInstance, X3CInstance, satisfies_size_restriction

__all__ = [
    "OracleResult",
    "solve_hitting_set",
    "solve_x3c",
    "validate_restricted_hs",
]


@dataclass(frozen=True)
class OracleResult:
    """Decision plus canonical witness; ``optimum`` is the minimum
    solution size regardless of the budget (hitting set only)."""

    decision: bool
    witness: tuple = ()
    optimum: int | None = None


def solve_hitting_set(hs: HittingSetInstance) -> OracleResult:
    """Decide whether a hitting set of size <= k exists.

    Iterative-deepening branch and bound over elements in universe
    order: at each size bound the search includes elements with
    ascending indices, pruning branches where some unhit set has no
    remaining candidate elements or where a greedy count of pairwise
    disjoint unhit sets exceeds the remaining budget.  The first set
    found is the lexicographically first minimum-size hitting set.
    """
    order = {e: i for i, e in enumerate(hs.universe)}
    masks = [_mask(s, order) for s in hs.sets]
    n = hs.n

    def lower_bound(unhit: list[int]) -> int:
        # greedy count of pairwise disjoint unhit sets
        used = 0
        count = 0
        for sm in unhit:
            if not sm & used:
                count += 1
                used |= sm
        return count

    def dfs(start: int, unhit: list[int], chosen: list[int], budget: int) -> tuple[int, ...] | None:
        if not unhit:
            return tuple(chosen)
        if budget == 0 or lower_bound(unhit) > budget:
            return None
        remaining = ((1 << n) - 1) >> start << start
        for sm in unhit:
            if not sm & remaining:
                return None
        for i in range(start, n):
            bit = 1 << i
            if not any(sm & bit for sm in unhit):
                continue
            chosen.append(i)
            found = dfs(i + 1, [sm for sm in unhit if not sm & bit], chosen, budget - 1)
            if found is not None:
                return found
            chosen.pop()
        return None

    best: tuple[int, ...] | None = None
    for size in range(n + 1):
        best = dfs(0, masks, [], size)
        if best is not None:
            break
    assert best is not None  # B itself always hits every (nonempty) set
    witness = tuple(hs.universe[i] for i in best)
    return OracleResult(len(best) <= hs.k, witness if len(best) <= hs.k else (), len(best))


def solve_x3c(x3c: X3CInstance) -> OracleResult:
    """Decide exact cover by 3-sets.

    Enumerates k-subsets of the family in lexicographic index order and
    accepts the first pairwise-disjoint selection whose union is the
    whole universe.
    """
    order = {e: i for i, e in enumerate(x3c.elements)}
    masks = [_mask(s, order) for s in x3c.sets]
    full = (1 << len(x3c.elements)) - 1
    k = x3c.k
    for combo in itertools.combinations(range(len(masks)), k):
        union = 0
        for i in combo:
            if union & masks[i]:
                union = -1
                break
            union |= masks[i]
        if union == full:
            return OracleResult(True, tuple(x3c.sets[i] for i in combo))
    return OracleResult(False)


validate_restricted_hs = satisfies_size_restriction


def _mask(members, order) -> int:
    m = 0
    for e in members:
        m |= 1 << order[e]
    return m
