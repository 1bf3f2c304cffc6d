"""Independent exact solvers for the source NP problems.

These are the ground truth when auditing reductions: a gadget's control
answer is compared against the answer computed here directly on the
source instance.  Witnesses are canonical (lexicographically first at
minimum size) so audit reports are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .gadgets import HittingSetInstance, X3CInstance

__all__ = [
    "OracleResult",
    "solve_hitting_set",
    "solve_x3c",
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
    best: tuple[int, ...] | None = None
    for size in range(n + 1):
        best = _hitting_set_dfs(n, masks, size)
        if best is not None:
            break
    assert best is not None  # B itself always hits every (nonempty) set
    witness = tuple(hs.universe[i] for i in best)
    return OracleResult(len(best) <= hs.k, witness if len(best) <= hs.k else (), len(best))


def _disjoint_count(unhit: list[int]) -> int:
    """A greedy count of pairwise disjoint unhit sets: a lower bound on the sets left to pick."""
    used = 0
    count = 0
    for sm in unhit:
        if not sm & used:
            count += 1
            used |= sm
    return count


def _hitting_set_dfs(n: int, masks: list[int], budget: int) -> tuple | None:
    """The first hitting set of ``masks`` of at most ``budget`` elements, depth first
    over ascending indices.  ``frames`` holds one (unhit sets, untried indices) pair
    per node of the branch ``chosen``, so depth grows the heap, not the call stack."""
    chosen: list[int] = []
    frames: list[tuple[list[int], Iterator[int]]] = []
    unhit, start = masks, 0
    while True:
        if not unhit:
            return tuple(chosen)
        left = budget - len(chosen)
        # an unhit set with no element at ``start`` or above can no longer be hit
        viable = left and _disjoint_count(unhit) <= left and all(sm >> start for sm in unhit)
        frames.append((unhit, iter(range(start, n) if viable else ())))
        while True:  # the next branch: the deepest node's next index that hits some unhit set
            parent, untried = frames[-1]
            i = next((j for j in untried if any(sm >> j & 1 for sm in parent)), None)
            if i is not None:
                break
            frames.pop()
            if not frames:
                return None
            chosen.pop()
        chosen.append(i)
        unhit, start = [sm for sm in parent if not sm >> i & 1], i + 1


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


def _mask(members, order) -> int:
    m = 0
    for e in members:
        m |= 1 << order[e]
    return m
