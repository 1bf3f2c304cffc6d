"""Text formats for elections, control instances, and NP-problem instances.

Election files are line based; ``#`` starts a comment anywhere:

    range: 2
    system: nrv            # optional, defaults to rv
    candidates: a b c
    ballots:
    5 | 2 0 1
    6 | 0 2 0

An optional control-instance section follows the ballots:

    action: add-candidates
    goal: constructive
    ties: promote          # partition families only
    distinguished: a
    limit: 1
    spoilers: d            # add-candidates only; columns listed in candidates:
    pool:                  # add-voters only
    2 | 1 0 0

Hitting-set and exact-cover instance files:

    elements: b1 b2
    set: b1
    set: b1 b2
    k: 1                   # absent for exact-cover files

Serialization is canonical (ballots sorted by score vector, identical
vectors merged), so ``parse(serialize(e)) == e`` and serializing a
parsed file canonicalizes it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

from .control import (
    ADD_VOTERS,
    CONSTRUCTIVE,
    DESTRUCTIVE,
    FAMILIES,
    TIES_ELIMINATE,
    TIES_PROMOTE,
    ControlInstance,
    InvalidInstance,
)
from .elections import RV, SYSTEMS, BallotGroup, Election, InvalidElection
from .gadgets import GadgetError, HittingSetInstance, X3CInstance

__all__ = [
    "ParseError",
    "ParsedElection",
    "parse_election",
    "serialize_election",
    "parse_problem",
    "parse_hs_instance",
    "parse_x3c_instance",
    "serialize_hs_instance",
    "serialize_x3c_instance",
]


class ParseError(ValueError):
    """A malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ParsedElection:
    election: Election
    instance: ControlInstance | None = None
    system: str | None = None


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def parse_election(text: str) -> ParsedElection:
    """Parse an election file, with an optional control-instance section."""
    k: int | None = None
    system: str | None = None
    candidates: list[str] | None = None
    ballot_rows: list[tuple[int, int, tuple[int, ...]]] = []  # (line, mult, scores)
    pool_rows: list[tuple[int, int, tuple[int, ...]]] = []
    fields: dict[str, tuple[int, str]] = {}
    sink: list[tuple[int, int, tuple[int, ...]]] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if sep and " " not in key and "|" not in key:
            value = value.strip()
            if key == "range":
                if k is not None:
                    raise ParseError("duplicate range: line", lineno)
                k = _parse_int(value, "range", lineno)
            elif key == "system":
                if system is not None:
                    raise ParseError("duplicate system: line", lineno)
                if value not in SYSTEMS:
                    raise ParseError(f"unknown system {value!r}", lineno)
                system = value
            elif key == "candidates":
                if candidates is not None:
                    raise ParseError("duplicate candidates: line", lineno)
                candidates = value.split()
            elif key == "ballots":
                if value:
                    raise ParseError("ballots: takes no inline value", lineno)
                sink = ballot_rows
            elif key == "pool":
                if value:
                    raise ParseError("pool: takes no inline value", lineno)
                sink = pool_rows
            elif key in ("action", "goal", "ties", "distinguished", "limit", "spoilers"):
                if key in fields:
                    raise ParseError(f"duplicate {key}: line", lineno)
                fields[key] = (lineno, value)
                sink = None
            else:
                raise ParseError(f"unknown header {key!r}", lineno)
            continue
        if sink is None:
            raise ParseError(f"unexpected line {line!r} (not inside ballots:/pool:)", lineno)
        sink.append(_parse_ballot_line(line, lineno))

    if k is None:
        raise ParseError("missing required header range:")
    if candidates is None:
        raise ParseError("missing required header candidates:")
    seen: set[str] = set()
    for cid in candidates:
        if cid in seen:
            raise ParseError(f"duplicate candidate id {cid!r}")
        seen.add(cid)

    try:
        election = Election(k, tuple(candidates), _ballot_groups(k, candidates, ballot_rows))
    except InvalidElection as exc:
        raise ParseError(str(exc)) from exc
    instance = _build_instance(election, system, fields, pool_rows)
    return ParsedElection(election, instance, system)


def _parse_int(value: str, what: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        digits = value[1:] if value[:1] in ("+", "-") else value
        if digits.isdecimal() and hasattr(sys, "get_int_max_str_digits"):
            # int() refused it for its length: name the limit, not the digits
            raise ParseError(
                f"{what} must be an integer of at most {sys.get_int_max_str_digits()} "
                f"digits, got {len(digits)} digits", lineno,
            ) from None
        raise ParseError(f"{what} must be an integer, got {value!r}", lineno) from None


def _parse_ballot_line(line: str, lineno: int) -> tuple[int, int, tuple[int, ...]]:
    mult_part, sep, score_part = line.partition("|")
    if not sep:
        raise ParseError("ballot line must look like '<count> | <scores>'", lineno)
    mult = _parse_int(mult_part.strip(), "voter count", lineno)
    if mult < 1:
        raise ParseError(f"voter count must be positive, got {mult}", lineno)
    scores = tuple(_parse_int(tok, "score", lineno) for tok in score_part.split())
    return lineno, mult, scores


def _ballot_groups(
    k: int, candidates: Sequence[str], rows: list[tuple[int, int, tuple[int, ...]]]
) -> tuple[BallotGroup, ...]:
    """Ballot or pool rows as groups, each checked for width and score range."""
    groups = []
    for lineno, mult, scores in rows:
        if len(scores) != len(candidates):
            raise ParseError(
                f"expected {len(candidates)} scores, got {len(scores)}", lineno
            )
        for s in scores:
            if not 0 <= s <= k:
                raise ParseError(f"score {s} outside [0, {k}]", lineno)
        groups.append(BallotGroup(scores, mult))
    return tuple(groups)


def _build_instance(
    election: Election,
    system: str | None,
    fields: dict[str, tuple[int, str]],
    pool_rows: list,
) -> ControlInstance | None:
    if "action" not in fields:
        leftovers = set(fields) | ({"pool"} if pool_rows else set())
        if leftovers:
            raise ParseError(
                f"instance fields {sorted(leftovers)} need an action: header"
            )
        return None
    lineno, family = fields.pop("action")
    if family not in FAMILIES:
        raise ParseError(f"unknown action {family!r}", lineno)
    goal_field = fields.pop("goal", None)
    if goal_field is None:
        raise ParseError("instance needs a goal: header")
    if goal_field[1] not in (CONSTRUCTIVE, DESTRUCTIVE):
        raise ParseError(f"unknown goal {goal_field[1]!r}", goal_field[0])
    dist_field = fields.pop("distinguished", None)
    if dist_field is None:
        raise ParseError("instance needs a distinguished: header")
    if dist_field[1] not in election.candidates:
        raise ParseError(f"unknown candidate {dist_field[1]!r}", dist_field[0])
    ties_field = fields.pop("ties", None)
    tie_model = None
    if ties_field is not None:
        if ties_field[1] not in (TIES_PROMOTE, TIES_ELIMINATE):
            raise ParseError(f"unknown tie model {ties_field[1]!r}", ties_field[0])
        tie_model = ties_field[1]
    limit_field = fields.pop("limit", None)
    limit = _parse_int(limit_field[1], "limit", limit_field[0]) if limit_field else None
    spoiler_field = fields.pop("spoilers", None)
    spoilers: tuple[str, ...] = ()
    if spoiler_field is not None:
        spoilers = tuple(spoiler_field[1].split())
        unknown = [cid for cid in spoilers if cid not in election.candidates]
        if unknown:
            raise ParseError(f"unknown spoiler candidates {unknown}", spoiler_field[0])
    if pool_rows and family != ADD_VOTERS:
        raise ParseError("pool: is only valid for add-voters", pool_rows[0][0])
    pool = _ballot_groups(election.k, election.candidates, pool_rows)
    try:
        return ControlInstance(
            base=election,
            family=family,
            goal=goal_field[1],
            system=system or RV,
            distinguished=dist_field[1],
            tie_model=tie_model,
            limit=limit,
            spoilers=spoilers,
            pool=pool,
        )
    except InvalidInstance as exc:
        raise ParseError(str(exc)) from exc


def serialize_election(
    election: Election,
    instance: ControlInstance | None = None,
    system: str | None = None,
) -> str:
    """Canonical text for an election (and optionally its instance section)."""
    lines = [f"range: {election.k}"]
    written_system = instance.system if instance is not None else system
    if written_system is not None:
        lines.append(f"system: {written_system}")
    lines.append(f"candidates: {' '.join(election.candidates)}")
    lines.append("ballots:")
    for g in election.ballots:
        lines.append(f"{g.multiplicity} | {' '.join(str(s) for s in g.scores)}")
    if instance is not None:
        lines.append(f"action: {instance.family}")
        lines.append(f"goal: {instance.goal}")
        if instance.tie_model is not None:
            lines.append(f"ties: {instance.tie_model}")
        lines.append(f"distinguished: {instance.distinguished}")
        if instance.limit is not None:
            lines.append(f"limit: {instance.limit}")
        if instance.spoilers:
            lines.append(f"spoilers: {' '.join(instance.spoilers)}")
        if instance.pool:
            lines.append("pool:")
            for g in instance.pool:
                lines.append(f"{g.multiplicity} | {' '.join(str(s) for s in g.scores)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# NP-problem instance files

def _parse_problem_file(text: str) -> tuple[list[str], list[tuple[int, list[str]]], tuple[int, int] | None]:
    elements: list[str] | None = None
    sets: list[tuple[int, list[str]]] = []
    k: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}", lineno)
        value = value.strip()
        if key == "elements":
            if elements is not None:
                raise ParseError("duplicate elements: line", lineno)
            elements = value.split()
        elif key == "set":
            members = value.split()
            if not members:
                raise ParseError("a set must list at least one element", lineno)
            sets.append((lineno, members))
        elif key == "k":
            if k is not None:
                raise ParseError("duplicate k: line", lineno)
            k = (lineno, _parse_int(value, "k", lineno))
        else:
            raise ParseError(f"unknown header {key!r}", lineno)
    if elements is None:
        raise ParseError("missing required header elements:")
    if not sets:
        raise ParseError("at least one set: line is required")
    return elements, sets, k


def _dedupe_set(lineno: int, members: list[str], elements: list[str]) -> tuple[str, ...]:
    known = set(elements)
    for e in members:
        if e not in known:
            raise ParseError(f"element {e!r} not in the declared universe", lineno)
    unique = list(dict.fromkeys(members))
    if len(unique) != len(members):
        warnings.warn(
            f"line {lineno}: duplicate elements within a set collapsed", stacklevel=4
        )
    return tuple(unique)


def _problem(
    elements: list[str], sets: list[tuple[int, list[str]]], k: tuple[int, int] | None
) -> HittingSetInstance | X3CInstance:
    """A hitting-set instance when the file gave ``k``, else an exact-cover instance."""
    canon = []
    for lineno, members in sets:
        members_canon = _dedupe_set(lineno, members, elements)
        if k is None and len(members_canon) != 3:
            raise ParseError(
                f"exact-cover sets need exactly 3 elements, got {len(members_canon)}", lineno
            )
        canon.append(members_canon)
    try:
        if k is None:
            return X3CInstance(tuple(elements), tuple(canon))
        return HittingSetInstance(tuple(elements), tuple(canon), k[1])
    except GadgetError as exc:
        raise ParseError(str(exc)) from exc


def parse_problem(text: str) -> HittingSetInstance | X3CInstance:
    """Parse a problem file: hitting set with a ``k:`` header, exact cover without one."""
    return _problem(*_parse_problem_file(text))


def parse_hs_instance(text: str) -> HittingSetInstance:
    """Parse a hitting-set file (elements/set/k headers)."""
    elements, sets, k = _parse_problem_file(text)
    if k is None:
        raise ParseError("missing required header k:")
    return _problem(elements, sets, k)


def parse_x3c_instance(text: str) -> X3CInstance:
    """Parse an exact-cover file (elements/set headers, 3-element sets)."""
    elements, sets, k = _parse_problem_file(text)
    if k is not None:
        raise ParseError("exact-cover files take no k: header", k[0])
    return _problem(elements, sets, k)


def serialize_hs_instance(hs: HittingSetInstance) -> str:
    lines = [f"elements: {' '.join(hs.universe)}"]
    lines.extend(f"set: {' '.join(s)}" for s in hs.sets)
    lines.append(f"k: {hs.k}")
    return "\n".join(lines) + "\n"


def serialize_x3c_instance(x3c: X3CInstance) -> str:
    lines = [f"elements: {' '.join(x3c.elements)}"]
    lines.extend(f"set: {' '.join(s)}" for s in x3c.sets)
    return "\n".join(lines) + "\n"
