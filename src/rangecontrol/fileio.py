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

``ControlInstance`` states every instance rule; the parser only names
the line of the header or pool row that a rejection is about.

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
from typing import TYPE_CHECKING

from .control import ControlInstance, InvalidInstance
from .elections import RV, SYSTEMS, BallotGroup, Election, InvalidElection, ballot_error

if TYPE_CHECKING:
    from .gadgets import HittingSetInstance, X3CInstance

__all__ = [
    "ParseError",
    "ParsedElection",
    "parse_election",
    "serialize_election",
    "parse_problem",
    "parse_hs_instance",
    "parse_x3c_instance",
]


class ParseError(ValueError):
    """A malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + _clipped(message))


def _clipped(message: str) -> str:
    """``message`` with the middle of a long echoed input value cut out.

    Messages are short unless they echo a long value, so one of at most
    180 characters is shown whole.
    """
    if len(message) <= 180:
        return message
    return f"{message[:60]}...[{len(message) - 120} characters cut]...{message[-60:]}"


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
    ballot_rows: list[tuple[int, BallotGroup]] = []  # (line, group)
    pool_rows: list[tuple[int, BallotGroup]] = []
    fields: dict[str, tuple[int, str]] = {}
    sink: list[tuple[int, BallotGroup]] | None = None

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

    try:
        election = Election(k, tuple(candidates), tuple(g for _, g in ballot_rows))
    except InvalidElection as exc:
        raise _at_row(exc, k, len(candidates), ballot_rows) from exc
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


def _parse_ballot_line(line: str, lineno: int) -> tuple[int, BallotGroup]:
    mult_part, sep, score_part = line.partition("|")
    if not sep:
        raise ParseError("ballot line must look like '<count> | <scores>'", lineno)
    mult = _parse_int(mult_part.strip(), "voter count", lineno)
    scores = tuple(_parse_int(tok, "score", lineno) for tok in score_part.split())
    return lineno, BallotGroup(scores, mult)


def _at_row(
    exc: ValueError, k: int, width: int, rows: list[tuple[int, BallotGroup]], line: int | None = None
) -> ParseError:
    """``exc`` as a ParseError, at the line of the first row breaking the ballot
    rule when that row's :func:`ballot_error` is what ``exc`` reports, else at ``line``."""
    for lineno, group in rows:
        error = ballot_error(group.scores, group.multiplicity, k, width)
        if error is not None:
            return ParseError(error, lineno) if str(exc).endswith(error) else ParseError(str(exc), line)
    return ParseError(str(exc), line)


def _build_instance(
    election: Election,
    system: str | None,
    fields: dict[str, tuple[int, str]],
    pool_rows: list[tuple[int, BallotGroup]],
) -> ControlInstance | None:
    if "action" not in fields:
        leftovers = set(fields) | ({"pool"} if pool_rows else set())
        if leftovers:
            raise ParseError(
                f"instance fields {sorted(leftovers)} need an action: header"
            )
        return None
    value = {key: text for key, (_, text) in fields.items()}
    limit = value.get("limit")
    try:
        limit = None if limit is None else int(limit)
    except ValueError:
        pass  # left as text, for ControlInstance to reject in its rule order
    try:
        return ControlInstance(
            base=election,
            family=value["action"],
            goal=value.get("goal"),
            system=system or RV,
            distinguished=value.get("distinguished"),
            tie_model=value.get("ties"),
            limit=limit,
            spoilers=tuple(value.get("spoilers", "").split()),
            pool=tuple(g for _, g in pool_rows),
        )
    except InvalidInstance as exc:
        if exc.field == "pool":
            raise _at_row(exc, election.k, len(election.candidates), pool_rows, pool_rows[0][0]) from exc
        header = {"family": "action", "tie_model": "ties"}.get(exc.field, exc.field)
        if header not in fields:  # passed on as None
            if header in ("goal", "distinguished"):
                raise ParseError(f"instance needs a {header}: header") from exc
            raise ParseError(str(exc)) from exc
        lineno, text = fields[header]
        if header == "limit":
            _parse_int(text, "limit", lineno)  # a non-integer: say why int() refused it
        raise ParseError(str(exc), lineno) from exc


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

_Line = tuple[int, list[str]]  # a line number and the names listed on that line


def _parse_problem_file(text: str) -> tuple[_Line, list[_Line], tuple[int, int] | None]:
    elements: _Line | None = None
    sets: list[_Line] = []
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
            elements = (lineno, value.split())
        elif key == "set":
            sets.append((lineno, value.split()))
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


def _problem(
    elements: _Line, sets: list[_Line], k: tuple[int, int] | None
) -> HittingSetInstance | X3CInstance:
    """A hitting-set instance when the file gave ``k``, else an exact-cover instance."""
    # gadgets holds the set rules; a cold `control` does not load it
    from .gadgets import GadgetError, HittingSetInstance, X3CInstance, set_error, universe_error

    universe, family = elements[1], [m for _, m in sets]
    try:
        instance = X3CInstance(universe, family) if k is None else HittingSetInstance(universe, family, k[1])
    except GadgetError as exc:  # put at the first line breaking its rule when that is ``exc``
        known, size = set(universe), (3 if k is None else None)
        breaches = [(elements[0], universe_error(universe))]
        breaches += [(lineno, set_error(m, known, size)) for lineno, m in sets]
        lineno, error = next((b for b in breaches if b[1] is not None), (None, None))
        raise ParseError(str(exc), lineno if error == str(exc) else None) from exc
    for lineno, m in sets:
        if len(set(m)) < len(m):
            warnings.warn(f"line {lineno}: duplicate elements within a set collapsed", stacklevel=3)
    return instance


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

