"""Constructors that compile NP-problem instances into control elections.

Each builder embeds a hitting-set, restricted-hitting-set, or
exact-cover instance (or a candidate-deletion problem) into a normalized
range election so that some control objective succeeds exactly when the
source instance is a yes-instance.  Alongside the election, a builder
emits the control instances to decide and a list of closed-form score
assertions; the audit harness evaluates both against independent
oracles.

Builders construct exactly what the target design prescribes and never
silently repair a suspect construction: when a stated score formula and
the strict re-normalization semantics disagree, the assertion is still
attached so the audit can record which value materializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .control import (
    ADD_CANDIDATES,
    CONSTRUCTIVE,
    DELETE_CANDIDATES,
    DESTRUCTIVE,
    PARTITION_CANDIDATES,
    PARTITION_VOTERS,
    RUNOFF_PARTITION_CANDIDATES,
    TIES_ELIMINATE,
    TIES_PROMOTE,
    ControlInstance,
)
from .elections import NRV, Election, tally

__all__ = [
    "GadgetError",
    "HittingSetInstance",
    "X3CInstance",
    "ScoreIdentity",
    "GadgetOutput",
    "satisfies_size_restriction",
    "gadget_hs_candidates",
    "gadget_hs_delete_constructive",
    "gadget_rhs_voter_partition_tp",
    "gadget_x3c_voter_partition_te",
    "gadget_deletion_to_candidate_partition",
    "gadget_hs_destructive_candidate_partition",
    "delete_constructive_subelection_identities",
    "destructive_partition_subelection_identities",
    "x3c_cover_side",
    "tp_explicit_partition",
]


class GadgetError(ValueError):
    """Raised when a source instance violates a gadget precondition."""


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe ``B`` (n elements), family ``S`` of m nonempty subsets, budget ``k``.

    Question: does some ``B' <= B`` with ``|B'| <= k`` intersect every
    set of the family?  Sets are canonicalized to universe order;
    duplicate sets in the family are allowed.
    """

    universe: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]
    k: int

    def __post_init__(self) -> None:
        universe = tuple(self.universe)
        if not universe:
            raise GadgetError("hitting set universe must be nonempty")
        if len(set(universe)) != len(universe):
            raise GadgetError("universe elements must be distinct")
        order = {e: i for i, e in enumerate(universe)}
        canon = []
        for s in self.sets:
            members = sorted(set(s), key=lambda e: order.get(e, -1))
            if not members:
                raise GadgetError("every set in the family must be nonempty")
            unknown = [e for e in members if e not in order]
            if unknown:
                raise GadgetError(f"set elements outside the universe: {unknown}")
            canon.append(tuple(members))
        if not canon:
            raise GadgetError("the set family must be nonempty")
        if not isinstance(self.k, int) or not 1 <= self.k <= len(universe):
            raise GadgetError(f"budget k must satisfy 1 <= k <= {len(universe)}, got {self.k!r}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "sets", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.universe)

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: a 3k-element universe and a family of triples.

    Question: do ``k`` pairwise-disjoint family members union to the
    whole universe?  Every element must occur in at least one triple and
    ``k <= |S|`` (gadget preconditions, validated here).
    """

    elements: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if not elements or len(elements) % 3:
            raise GadgetError("universe size must be a positive multiple of 3")
        if len(set(elements)) != len(elements):
            raise GadgetError("universe elements must be distinct")
        order = {e: i for i, e in enumerate(elements)}
        canon = []
        covered: set[str] = set()
        for s in self.sets:
            members = sorted(set(s), key=lambda e: order.get(e, -1))
            if len(members) != 3:
                raise GadgetError(f"every set must contain exactly 3 distinct elements, got {tuple(s)}")
            unknown = [e for e in members if e not in order]
            if unknown:
                raise GadgetError(f"set elements outside the universe: {unknown}")
            covered.update(members)
            canon.append(tuple(members))
        k = len(elements) // 3
        if len(canon) < k:
            raise GadgetError(f"need at least k={k} sets, got {len(canon)}")
        missing = [e for e in elements if e not in covered]
        if missing:
            raise GadgetError(f"elements not covered by any set: {missing}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "sets", tuple(canon))

    @property
    def k(self) -> int:
        return len(self.elements) // 3


@dataclass(frozen=True)
class ScoreIdentity:
    """Closed-form assertion about one subelection total.

    ``candidates=None`` means the full candidate set; ``voter_counts``
    (when given) restricts the voter multiset by per-group take counts.
    The checked value is ``total(candidate) - sum(totals of subtract)
    - max(totals over subtract_max_of)`` compared against ``expected``
    with ``relation``.
    """

    label: str
    candidate: str
    expected: Fraction
    relation: str = "=="  # "==", "<=", ">="
    candidates: tuple[str, ...] | None = None
    voter_counts: tuple[int, ...] | None = None
    subtract: tuple[str, ...] = ()
    subtract_max_of: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.relation not in ("==", "<=", ">="):
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "expected", Fraction(self.expected))


@dataclass(frozen=True)
class GadgetOutput:
    """Election + control instances + score assertions for one source instance."""

    system: str
    election: Election
    instances: tuple[ControlInstance, ...]
    identities: tuple[ScoreIdentity, ...]
    claim: str


def satisfies_size_restriction(hs: HittingSetInstance) -> bool:
    """Restricted-hitting-set side condition: m(k+1) + 3 <= n - k."""
    return hs.m * (hs.k + 1) + 3 <= hs.n - hs.k


def _fresh(base: str, taken: Iterable[str]) -> str:
    used = set(taken)
    if base not in used:
        return base
    i = 2
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def _group_index(election: Election, scores: Mapping[str, int]) -> int:
    """Locate the canonical ballot group matching a score mapping."""
    vec = tuple(scores.get(c, 0) for c in election.candidates)
    for i, g in enumerate(election.ballots):
        if g.scores == vec:
            return i
    raise GadgetError(f"no ballot group with scores {vec}")


# ---------------------------------------------------------------------------
# adding / deleting candidates

def gadget_hs_candidates(hs: HittingSetInstance) -> GadgetOutput:
    """2-range NRV election over B + {c, w} for candidate add/delete control.

    Requires m >= 2: with a single set the two-candidate margin
    2m(k+1) - 4k - 2 turns negative and w wins even without a hitting
    set, breaking the no-direction.  Requires k < n so c leads the full
    election.
    """
    n, m, k = hs.n, hs.m, hs.k
    if m < 2:
        raise GadgetError("this construction needs at least two sets (m >= 2)")
    if k >= n:
        raise GadgetError("this construction needs k < n")
    c = _fresh("c", hs.universe)
    w = _fresh("w", hs.universe + (c,))
    cands = hs.universe + (c, w)
    groups: list[tuple[dict[str, int], int]] = [
        ({c: 2}, 2 * m * (k + 1) + 4 * n),
        ({w: 2}, 3 * m * (k + 1) + 2 * k + 1),
    ]
    for b in hs.universe:
        groups.append(({b: 2, w: 1}, 4))
    for s in hs.sets:
        groups.append(({**{b: 2 for b in s}, c: 1}, 2 * (k + 1)))
    election = Election.from_maps(2, cands, groups)
    instances = (
        ControlInstance(
            base=election, family=ADD_CANDIDATES, goal=CONSTRUCTIVE, system=NRV,
            distinguished=w, spoilers=hs.universe, limit=k,
        ),
        ControlInstance(
            base=election, family=ADD_CANDIDATES, goal=DESTRUCTIVE, system=NRV,
            distinguished=c, spoilers=hs.universe, limit=k,
        ),
        ControlInstance(
            base=election, family=DELETE_CANDIDATES, goal=DESTRUCTIVE, system=NRV,
            distinguished=c, limit=n - k,
        ),
    )
    pair = (c, w)
    identities = [
        ScoreIdentity("c in ({c,w},V)", c, Fraction(8 * m * (k + 1) + 8 * n), candidates=pair),
        ScoreIdentity("w in ({c,w},V)", w, Fraction(6 * m * (k + 1) + 8 * n + 4 * k + 2), candidates=pair),
        ScoreIdentity("c in (C,V)", c, Fraction(6 * m * (k + 1) + 8 * n)),
        ScoreIdentity("w in (C,V)", w, Fraction(6 * m * (k + 1) + 4 * n + 4 * k + 2)),
    ]
    bound = Fraction(4 * m * (k + 1) + 8)
    for b in hs.universe:
        identities.append(ScoreIdentity(f"{b} in (C,V)", b, bound, relation="<="))
    claim = (
        "adding at most k spoilers makes w the unique winner (and unseats c) "
        "iff the family has a hitting set of size <= k; deleting at most n-k "
        "candidates unseats c under the same condition"
    )
    return GadgetOutput(NRV, election, instances, tuple(identities), claim)


def gadget_hs_delete_constructive(hs: HittingSetInstance) -> GadgetOutput:
    """2-range NRV election over B + {w} for constructive candidate deletion.

    Audit-critical: the stated subelection totals (for a size-k hitting
    set B', each b in B' at 12mk + 4n - 2k + 4 and w two points above)
    do not survive strict per-subelection re-normalization in hand
    recomputation, so the equivalence claim must be settled empirically.
    """
    n, m, k = hs.n, hs.m, hs.k
    if k >= n:
        raise GadgetError("the deletion limit n - k must be positive (k < n)")
    w = _fresh("w", hs.universe)
    cands = hs.universe + (w,)
    groups: list[tuple[dict[str, int], int]] = [
        ({b: 2 for b in hs.universe}, n + k),
        ({w: 2}, 3 + 2 * m * k),
    ]
    for s in hs.sets:
        inside = set(s)
        groups.append(({**{b: 2 for b in s}, **{b: 1 for b in hs.universe if b not in inside}}, 4 * k + 1))
    for s in hs.sets:
        inside = set(s)
        groups.append(
            ({**{b: 2 for b in hs.universe if b not in inside}, w: 2, **{b: 1 for b in s}}, 4 * k + 1)
        )
    for b in hs.universe:
        groups.append(({b: 2, w: 1}, 2 * n - k))
    election = Election.from_maps(2, cands, groups)
    instances = (
        ControlInstance(
            base=election, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE, system=NRV,
            distinguished=w, limit=n - k,
        ),
    )
    claim = (
        "deleting at most n-k candidates makes w the unique winner iff the "
        "family has a hitting set of size <= k (audit-critical)"
    )
    return GadgetOutput(NRV, election, instances, (), claim)


def delete_constructive_subelection_identities(
    hs: HittingSetInstance, hitting_set: Sequence[str]
) -> tuple[ScoreIdentity, ...]:
    """Stated totals in ({w} + B', V) for a hitting set B' of size exactly k.

    Evaluated by the audit as soft assertions; failures are recorded,
    not raised.
    """
    n, m, k = hs.n, hs.m, hs.k
    members = tuple(hitting_set)
    if len(members) != k:
        raise GadgetError(f"these totals are stated for |B'| = k = {k}, got {len(members)}")
    w = _fresh("w", hs.universe)
    subset = members + (w,)
    out = [
        ScoreIdentity(
            f"{b} in ({{w}}+B',V)", b,
            Fraction(12 * m * k + 4 * n - 2 * k + 4), candidates=subset,
        )
        for b in members
    ]
    out.append(
        ScoreIdentity(
            "w in ({w}+B',V)", w,
            Fraction(12 * m * k + 4 * n - 2 * k + 6), candidates=subset,
        )
    )
    return tuple(out)


# ---------------------------------------------------------------------------
# destructive partition of voters, ties-promote (restricted hitting set)

def gadget_rhs_voter_partition_tp(hs: HittingSetInstance) -> GadgetOutput:
    """2-range NRV election over B + {w, c} for destructive voter partition (TP).

    Valid only for restricted instances (m(k+1) + 3 <= n - k), which
    guarantees c leads any two rivals combined by at least 2 points.
    The per-set support group scores every member of the set at 2 with
    1 for c, matching the stated score table; the equivalence direction
    is checked one-way by replaying the explicit partition.
    """
    n, m, k = hs.n, hs.m, hs.k
    if not satisfies_size_restriction(hs):
        raise GadgetError(
            f"size restriction violated: m(k+1)+3 = {m * (k + 1) + 3} > n-k = {n - k}"
        )
    c = _fresh("c", hs.universe)
    w = _fresh("w", hs.universe + (c,))
    cands = hs.universe + (w, c)
    groups: list[tuple[dict[str, int], int]] = [
        ({c: 2}, 2 * m * (k + 1) + 4 * n),
        ({w: 2}, 3 * m * (k + 1) + 2 * k),
    ]
    for b in hs.universe:
        groups.append(({b: 2, w: 1}, 4))
    for s in hs.sets:
        groups.append(({**{b: 2 for b in s}, c: 1}, 2 * (k + 1)))
    for b in hs.universe:
        groups.append(({b: 2}, 1))
    election = Election.from_maps(2, cands, groups)
    instances = (
        ControlInstance(
            base=election, family=PARTITION_VOTERS, goal=DESTRUCTIVE, system=NRV,
            distinguished=c, tie_model=TIES_PROMOTE,
        ),
    )
    identities = [
        ScoreIdentity("c in (C,V)", c, Fraction(6 * m * (k + 1) + 8 * n)),
        ScoreIdentity("w in (C,V)", w, Fraction(6 * m * (k + 1) + 4 * k + 4 * n)),
    ]
    bound = Fraction(4 * m * (k + 1) + 10)
    for b in hs.universe:
        identities.append(ScoreIdentity(f"{b} in (C,V)", b, bound, relation="<="))
    identities.append(
        ScoreIdentity(
            "margin c-w-max(b) in (C,V)", c, Fraction(2), relation=">=",
            subtract=(w,), subtract_max_of=hs.universe,
        )
    )
    claim = (
        "some voter partition denies c unique victory iff the restricted "
        "family has a hitting set of size <= k (yes-direction replayed "
        "explicitly; no-direction rests on the margin identity)"
    )
    return GadgetOutput(NRV, election, instances, tuple(identities), claim)


def tp_explicit_partition(gadget: GadgetOutput, hitting_set: Sequence[str]) -> tuple[int, ...]:
    """Split vector for the known-good partition: one single-support voter
    per hitting-set element plus one w-only voter into the first side."""
    election = gadget.election
    counts = [0] * len(election.ballots)
    w = election.candidates[-2]  # declared ..., w, c
    counts[_group_index(election, {w: 2})] += 1
    for b in hitting_set:
        counts[_group_index(election, {b: 2})] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# destructive partition of voters, ties-eliminate (exact cover by 3-sets)

def gadget_x3c_voter_partition_te(x3c: X3CInstance) -> GadgetOutput:
    """4-range NRV election over B + {c, w} for destructive voter partition (TE).

    The scores in the construction span 0..4, so the election is built
    at range 4.  The cover-side totals (c at 4k-2, every other
    candidate at 4k-4) and the final-round total for c are attached as
    soft assertions: strict re-normalization shifts both in known ways
    and the audit records which values materialize.
    """
    b_elems = x3c.elements
    n = len(x3c.sets)
    k = x3c.k
    c = _fresh("c", b_elems)
    w = _fresh("w", b_elems + (c,))
    cands = b_elems + (c, w)
    groups: list[tuple[dict[str, int], int]] = []
    for s in x3c.sets:
        inside = set(s)
        groups.append(({**{b: 4 for b in b_elems if b not in inside}, c: 2}, 1))
    groups.append(({**{b: 4 for b in b_elems}, c: 2}, 2 * n))
    if k - 1 > 0:
        groups.append(({w: 4, c: 2}, k - 1))
    for b in b_elems:
        groups.append(({b: 4, **{x: 1 for x in b_elems if x != b}, c: 1}, 1))
    groups.append(({w: 4}, 2 * k + 3 * n + 1))
    election = Election.from_maps(4, cands, groups)
    instances = (
        ControlInstance(
            base=election, family=PARTITION_VOTERS, goal=DESTRUCTIVE, system=NRV,
            distinguished=w, tie_model=TIES_ELIMINATE,
        ),
    )
    claim = (
        "some voter partition (ties eliminate) denies w unique victory iff "
        "k pairwise-disjoint sets cover the universe"
    )
    return GadgetOutput(NRV, election, instances, (), claim)


def x3c_cover_side(
    gadget: GadgetOutput, x3c: X3CInstance, cover: Sequence[Sequence[str]]
) -> tuple[tuple[int, ...], tuple[ScoreIdentity, ...]]:
    """Cover-side split vector plus the stated subelection totals.

    The first side holds one voter per cover set and all k-1 balance
    voters.  Totals are soft assertions (stated: c at 4k-2, every b and
    w at 4k-4).
    """
    election = gadget.election
    k = x3c.k
    c, w = election.candidates[-2:]  # declared ..., c, w
    counts = [0] * len(election.ballots)
    b_all = set(x3c.elements)
    for s in cover:
        inside = set(s)
        scores = {**{b: 4 for b in b_all if b not in inside}, c: 2}
        counts[_group_index(election, scores)] += 1
    if k - 1 > 0:
        counts[_group_index(election, {w: 4, c: 2})] += k - 1
    vec = tuple(counts)
    identities = [
        ScoreIdentity("c in (C,V1)", c, Fraction(4 * k - 2), voter_counts=vec),
        ScoreIdentity("w in (C,V1)", w, Fraction(4 * k - 4), voter_counts=vec),
    ]
    for b in x3c.elements:
        identities.append(ScoreIdentity(f"{b} in (C,V1)", b, Fraction(4 * k - 4), voter_counts=vec))
    return vec, tuple(identities)


# ---------------------------------------------------------------------------
# constructive partition of candidates (from candidate deletion)

def gadget_deletion_to_candidate_partition(
    source: Election, w: str, limit: int
) -> GadgetOutput:
    """2r-range NRV election embedding a constructive deletion problem.

    Two auxiliary candidates are appended (ids freshened against the
    source).  Original ballots are scaled by 2 and extended with zeros
    for the auxiliaries.  Candidate-count formulas use m = |C| and the
    deletion limit; the (m-limit-1)n support group is clamped at zero
    multiplicity when the limit reaches m-1.
    """
    if w not in source.candidates:
        raise GadgetError(f"distinguished candidate {w!r} not in the source election")
    if not isinstance(limit, int) or limit < 1:
        raise GadgetError(f"the deletion limit must be a positive integer, got {limit!r}")
    r = source.k
    m = len(source.candidates)
    n = source.total_voters
    a_id = _fresh("a", source.candidates)
    b_id = _fresh("b", source.candidates + (a_id,))
    cands = source.candidates + (a_id, b_id)
    others = tuple(c for c in source.candidates if c != w)

    g7 = 3 * n + 3 * n * m + (m - limit - 1) * n + 2
    if g7 < 1:
        raise GadgetError("deletion limit too large for this construction")
    groups: list[tuple[dict[str, int], int]] = []
    for g in source.ballots:
        scaled = {c: 2 * s for c, s in zip(source.candidates, g.scores)}
        groups.append((scaled, g.multiplicity))
    for c in source.candidates:
        groups.append(({c: 2 * r, a_id: r}, 2 * n))
    for c in others:
        groups.append(({c: 2 * r}, 3 * n * m))
    groups.append(({w: 2 * r, a_id: r}, 2 * n * m))
    groups.append(({w: 2 * r}, n * m))
    g5 = max(0, (m - limit - 1)) * n
    if g5:
        groups.append(({c: 2 * r for c in source.candidates}, g5))
    groups.append(({a_id: 2 * r}, 2 * n + 1))
    groups.append(({b_id: 2 * r}, g7))
    groups = [(scores, mult) for scores, mult in groups if mult > 0]
    election = Election.from_maps(2 * r, cands, groups)
    instances = tuple(
        ControlInstance(
            base=election, family=family, goal=CONSTRUCTIVE, system=NRV,
            distinguished=w, tie_model=ties,
        )
        for family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES)
        for ties in (TIES_PROMOTE, TIES_ELIMINATE)
    )
    source_scores = tally(source, NRV).totals
    identities = [
        ScoreIdentity(
            "a in (C',V')", a_id,
            Fraction(4 * n * m * r + 4 * n * r + 2 * r),
        ),
        ScoreIdentity(
            "b in (C',V')", b_id,
            Fraction(6 * n * r + 6 * n * m * r + 2 * (m - limit - 1) * n * r + 4 * r),
        ),
        ScoreIdentity(
            "b wins (C',V')", b_id, Fraction(2), relation=">=",
            subtract_max_of=source.candidates + (a_id,),
        ),
    ]
    for c in source.candidates:
        identities.append(
            ScoreIdentity(
                f"{c} in (C',V')", c,
                Fraction(4 * n * r + 6 * n * m * r + 2 * (m - limit - 1) * n * r)
                + 2 * source_scores[c],
            )
        )
    claim = (
        "w can win the extended election by (runoff) partition of candidates "
        "iff w can win the source election by deleting at most the limit"
    )
    return GadgetOutput(NRV, election, instances, tuple(identities), claim)


# ---------------------------------------------------------------------------
# destructive partition of candidates (hitting set)

def gadget_hs_destructive_candidate_partition(hs: HittingSetInstance) -> GadgetOutput:
    """2-range NRV election over B + {w} for destructive candidate partition.

    Requires k < n: at k = n the distinguished candidate loses the full
    election outright and the question is trivially yes.
    """
    n, m, k = hs.n, hs.m, hs.k
    if k >= n:
        raise GadgetError("this construction needs k < n")
    w = _fresh("w", hs.universe)
    cands = hs.universe + (w,)
    groups: list[tuple[dict[str, int], int]] = []
    for s in hs.sets:
        groups.append(({**{b: 2 for b in s}, w: 1}, 4 * (k + 1)))
    for s in hs.sets:
        inside = set(s)
        outside = {b: 2 for b in hs.universe if b not in inside}
        # when S = B this ballot scores everyone 0 and NRV discards it
        groups.append((outside, 4 * (k + 1)))
    for b in hs.universe:
        groups.append(({b: 2, **{x: 1 for x in hs.universe if x != b}}, 4))
    groups.append(({w: 2}, 2 * (k + 1) * m + 4 * n - 2 * k + 1))
    election = Election.from_maps(2, cands, groups)
    instances = tuple(
        ControlInstance(
            base=election, family=family, goal=DESTRUCTIVE, system=NRV,
            distinguished=w, tie_model=ties,
        )
        for family in (PARTITION_CANDIDATES, RUNOFF_PARTITION_CANDIDATES)
        for ties in (TIES_PROMOTE, TIES_ELIMINATE)
    )
    identities = [
        ScoreIdentity("w in (C,V)", w, Fraction(8 * (k + 1) * m + 8 * n - 4 * k + 2)),
    ]
    inner = Fraction(8 * (k + 1) * m + 4 * n + 4)
    for b in hs.universe:
        identities.append(ScoreIdentity(f"{b} in (C,V)", b, inner))
    claim = (
        "some (runoff) candidate partition denies w unique victory iff the "
        "family has a hitting set of size <= k"
    )
    return GadgetOutput(NRV, election, instances, tuple(identities), claim)


def destructive_partition_subelection_identities(
    hs: HittingSetInstance, hitting_set: Sequence[str]
) -> tuple[ScoreIdentity, ...]:
    """Stated totals in ({w} + D, V) for a hitting set D of size l <= k.

    Only the hitting-set members' totals are stated for this
    subelection; w's total there shifts with re-normalization whenever
    D sits inside some family set.
    """
    n, m, k = hs.n, hs.m, hs.k
    members = tuple(hitting_set)
    l = len(members)
    w = _fresh("w", hs.universe)
    subset = members + (w,)
    return tuple(
        ScoreIdentity(
            f"{b} in ({{w}}+D,V)", b,
            Fraction(8 * m * (k + 1) + 8 * n - 4 * l + 4), candidates=subset,
        )
        for b in members
    )
