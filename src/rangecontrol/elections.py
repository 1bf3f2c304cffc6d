"""Range-voting elections with exact tallies.

A ballot assigns every candidate an integer score in ``[0, k]``, cast by
a positive integer count of voters: :func:`ballot_error` states that rule,
:class:`Election` applies it, and ``fileio`` calls it only to put a line
number on a rejected row.  Two aggregation systems are supported:

* ``rv`` -- plain range voting; totals are multiplicity-weighted raw sums.
* ``nrv`` -- normalized range voting; before summation each ballot is
  rescaled affinely so that its minimum score becomes 0 and its maximum
  becomes ``k``.  Ballots scoring every candidate equally express no
  preference and are discarded.

Tallies are exact and never use floating point, because downstream
search problems decide winners on margins as small as 2 points among
totals in the thousands.  :func:`integer_rows` puts every counted
ballot on one integer scale ``L`` (1 under ``rv``; under ``nrv`` the lcm
of the ballots' score spans), so totals are integer sums and winners
follow from integer comparison.  :func:`tally` returns each total as the
exact ``Fraction(v, L)``.  The ``nrv`` scale rule (``L``, and the factor
``k * (L // span)`` applied to ``s - lo``) is stated once, in
:func:`integer_rows`; ``control._subset_winners`` decides candidate-set
subelections with the same weights less the factor ``k`` and the offset
``-lo``, which shift or scale every total alike.  The Fraction reference
for a normalized ballot is ``tests/helpers.normalized_row``.

Values are immutable after construction and safe to share across threads;
every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "RV",
    "NRV",
    "SYSTEMS",
    "MAX_ROW_BITS",
    "InvalidElection",
    "ballot_error",
    "BallotGroup",
    "Election",
    "Tally",
    "integer_rows",
    "weighted_sums",
    "tally",
    "project",
    "scale_election",
    "from_approval",
    "take_voters",
    "drop_voters",
]

RV = "rv"
NRV = "nrv"
SYSTEMS = (RV, NRV)

# the most bits of exact rows :func:`integer_rows` builds (scale bit length x scores): 128 MiB
MAX_ROW_BITS = 2**30


class InvalidElection(ValueError):
    """Raised when election data violates a structural invariant."""


def ballot_error(scores: Sequence[int], count: int, k: int, width: int) -> str | None:
    """Why ``count`` voters casting ``scores`` break the ballot rule, or ``None``.
    The rule: a positive integer count, and an integer score in ``[0, k]`` per candidate."""
    if not isinstance(count, int):
        return f"voter count must be an integer, got {count!r}"
    if count < 1:
        return f"voter count must be positive, got {count}"
    if len(scores) != width:
        return f"expected {width} scores, got {len(scores)}"
    for s in scores:
        if not isinstance(s, int):
            return f"score must be an integer, got {s!r}"
        if not 0 <= s <= k:
            return f"score {s} outside [0, {k}]"
    return None


@dataclass(frozen=True)
class BallotGroup:
    """A block of ``multiplicity`` identical voters.

    ``scores`` is aligned with the owning election's candidate order.  A
    plain value: :class:`Election` checks it.
    """

    scores: tuple[int, ...]
    multiplicity: int = 1


@dataclass(frozen=True)
class Election:
    """An immutable ``k``-range election.

    Candidate order is the declaration order and fixes ballot column
    order everywhere (files, witnesses, enumeration).  Ballot groups are
    canonicalized on construction: identical score vectors merge by
    summing multiplicities, and groups are stored sorted by score vector
    so that structurally equal elections compare equal.
    """

    k: int
    candidates: tuple[str, ...]
    ballots: tuple[BallotGroup, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidElection(f"score range k must be a positive integer, got {self.k!r}")
        candidates = tuple(self.candidates)
        seen: set[str] = set()
        for cid in candidates:
            if not isinstance(cid, str) or not cid or any(ch.isspace() for ch in cid):
                raise InvalidElection(f"candidate id must be a nonempty token without whitespace: {cid!r}")
            if cid in seen:
                raise InvalidElection(f"duplicate candidate id {cid!r}")
            seen.add(cid)
        merged: dict[tuple[int, ...], int] = {}
        for group in self.ballots:
            if not isinstance(group, BallotGroup):
                group = BallotGroup(*group)
            error = ballot_error(group.scores, group.multiplicity, self.k, len(candidates))
            if error is not None:
                raise InvalidElection(error)
            scores = tuple(group.scores)
            merged[scores] = merged.get(scores, 0) + group.multiplicity
        groups = tuple(BallotGroup(vec, mult) for vec, mult in sorted(merged.items()))
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "ballots", groups)

    @property
    def total_voters(self) -> int:
        return sum(g.multiplicity for g in self.ballots)

    def index(self, candidate: str) -> int:
        try:
            return self.candidates.index(candidate)
        except ValueError:
            raise InvalidElection(f"unknown candidate {candidate!r}") from None

    @classmethod
    def from_rows(
        cls, k: int, candidates: Sequence[str], rows: Iterable[tuple[int, Sequence[int]]]
    ) -> "Election":
        """Build from ``(multiplicity, score-vector)`` rows."""
        return cls(k, tuple(candidates), tuple(BallotGroup(tuple(s), mult) for mult, s in rows))

    @classmethod
    def from_maps(
        cls,
        k: int,
        candidates: Sequence[str],
        groups: Iterable[tuple[Mapping[str, int], int]],
    ) -> "Election":
        """Build from ``(candidate->score mapping, multiplicity)`` pairs.

        Candidates missing from a mapping score 0; unknown keys are an error.
        """
        cands = tuple(candidates)
        known = set(cands)
        rows = []
        for mapping, mult in groups:
            extra = set(mapping) - known
            if extra:
                raise InvalidElection(f"scores for unknown candidates {sorted(extra)}")
            rows.append((mult, tuple(mapping.get(c, 0) for c in cands)))
        return cls.from_rows(k, cands, rows)


@dataclass(frozen=True, eq=True)
class Tally:
    """Exact per-candidate totals plus the argmax winner set."""

    totals: dict[str, Fraction]
    winners: frozenset[str] = frozenset()
    unique_winner: str | None = None


def integer_rows(
    vectors: Sequence[Sequence[int]], k: int, system: str
) -> tuple[list[Sequence[int]], int]:
    """Counted score vectors on one integer scale: ``(rows, L)``.

    Each row is ``L`` times the ballot as counted.  Under ``rv``, ``L`` is 1
    and the rows are the raw scores.  Under ``nrv``, ``L`` is the lcm of
    the ballots' score spans and score ``s`` becomes
    ``k*(s - lo)*(L/span)``, ``L`` times its normalized entry ``k*(s - lo)/span``;
    a ballot with a zero span is not counted and becomes a zero row.
    A ``ValueError`` refuses an ``L`` whose rows would pass ``MAX_ROW_BITS``.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if system == RV:
        return list(vectors), 1
    bounds = [(min(v), max(v)) if v else (0, 0) for v in vectors]
    scale = math.lcm(*(hi - lo for lo, hi in bounds if hi != lo))
    if scale.bit_length() * sum(map(len, vectors)) > MAX_ROW_BITS:
        raise ValueError(f"the nrv scale has {scale.bit_length()} bits: exact rows for "
                         f"{sum(map(len, vectors))} scores would exceed {MAX_ROW_BITS} bits")
    rows: list[Sequence[int]] = []
    for v, (lo, hi) in zip(vectors, bounds):
        if hi == lo:
            rows.append((0,) * len(v))
        else:
            factor = k * (scale // (hi - lo))
            rows.append(tuple(factor * (s - lo) for s in v))
    return rows, scale


def weighted_sums(
    rows: Iterable[Sequence[int]], weights: Iterable[int], start: Sequence[int]
) -> list[int]:
    """``start`` plus ``weight * row`` for every row, entrywise; zero weights are skipped."""
    totals = list(start)
    for weight, row in zip(weights, rows):
        if weight:
            totals = [t + weight * s for t, s in zip(totals, row)]
    return totals


def tally(election: Election, system: str) -> Tally:
    """Compute exact totals and the winner set under ``rv`` or ``nrv``."""
    groups = election.ballots
    rows, scale = integer_rows([g.scores for g in groups], election.k, system)
    sums = weighted_sums(rows, [g.multiplicity for g in groups], [0] * len(election.candidates))
    if not sums:
        return Tally({}, frozenset(), None)
    best = max(sums)
    winners = frozenset(c for c, v in zip(election.candidates, sums) if v == best)
    unique = next(iter(winners)) if len(winners) == 1 else None
    totals = {c: Fraction(v, scale) for c, v in zip(election.candidates, sums)}
    return Tally(totals, winners, unique)


def project(election: Election, subset: Iterable[str]) -> Election:
    """Restrict the election to ``subset``, keeping raw integer scores.

    Raw scores are retained on purpose: under NRV, re-normalization over
    the candidates actually present happens at tally time, so projecting
    and then tallying reflects how a subelection would really be scored.
    """
    wanted = set(subset)
    unknown = wanted - set(election.candidates)
    if unknown:
        raise InvalidElection(f"cannot project onto unknown candidates {sorted(unknown)}")
    keep = [i for i, c in enumerate(election.candidates) if c in wanted]
    cands = tuple(election.candidates[i] for i in keep)
    groups = tuple(BallotGroup(tuple(g.scores[i] for i in keep), g.multiplicity) for g in election.ballots)
    return Election(election.k, cands, groups)


def scale_election(election: Election, a: int) -> Election:
    """Multiply the range and every score by ``a`` (argmax-preserving)."""
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"scale factor must be a positive integer, got {a!r}")
    groups = tuple(BallotGroup(tuple(s * a for s in g.scores), g.multiplicity) for g in election.ballots)
    return Election(election.k * a, election.candidates, groups)


def from_approval(
    candidates: Sequence[str], groups: Iterable[tuple[Sequence[int], int]]
) -> Election:
    """Embed approval ballots (0/1 vectors with multiplicities) as a 1-range election."""
    return Election.from_rows(1, candidates, ((mult, scores) for scores, mult in groups))


def take_voters(election: Election, counts: Sequence[int]) -> Election:
    """Keep ``counts[i]`` voters from ballot group ``i`` (0 drops the group)."""
    if len(counts) != len(election.ballots):
        raise ValueError(
            f"expected {len(election.ballots)} per-group counts, got {len(counts)}"
        )
    groups = []
    for group, take in zip(election.ballots, counts):
        if take < 0 or take > group.multiplicity:
            raise ValueError(f"count {take} outside [0, {group.multiplicity}]")
        if take:
            groups.append(BallotGroup(group.scores, take))
    return Election(election.k, election.candidates, tuple(groups))


def drop_voters(election: Election, counts: Sequence[int]) -> Election:
    """Complement of :func:`take_voters`: remove ``counts[i]`` voters per group."""
    if len(counts) != len(election.ballots):
        raise ValueError(
            f"expected {len(election.ballots)} per-group counts, got {len(counts)}"
        )
    return take_voters(
        election, [g.multiplicity - c for g, c in zip(election.ballots, counts)]
    )
