"""Instance generation, gadget-vs-oracle audits, and deterministic reports.

An audit sweeps a family of source instances (exhaustively within
bounds, or seeded-randomly), builds the gadget for each, decides the
emitted control instances with the exhaustive solvers, asks the
independent oracle the source question, evaluates every attached score
assertion, and records agreements and counterexamples.

Two kinds of failure are kept apart on purpose: the gadget's claim
(solver answer vs oracle answer, or a one-direction replay) and the
stated intermediate score formulas.  A gadget can pass equivalence
while a stated total deviates; both facts are reported independently --
the agreement flag and counterexample list track the claim, the
identity-failure list tracks the formulas.

Reports are pure functions of (spec, seed): records are computed in
stripes, up to one per CPU, by this process and forked workers that pickle
their rows back (a stripe that raises sends its position, run again here),
assembled in enumeration order and serialized with a canonical text and a
JSONL rendering, so identical inputs produce byte-identical output whatever
the number of CPUs.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import operator
import os
import random
import threading
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from . import control as ctl
from . import fileio
from .control import ControlInstance, describe, solve
from .elections import NRV, RV, BallotGroup, Election, project, take_voters, tally
from .gadgets import (
    GadgetError,
    GadgetOutput,
    HittingSetInstance,
    ScoreIdentity,
    X3CInstance,
    delete_constructive_subelection_identities,
    destructive_partition_subelection_identities,
    # the gadget_* builders are looked up by name in build_gadget
    gadget_deletion_to_candidate_partition,
    gadget_hs_candidates,
    gadget_hs_delete_constructive,
    gadget_hs_destructive_candidate_partition,
    gadget_rhs_voter_partition_tp,
    gadget_x3c_voter_partition_te,
    tp_explicit_partition,
    x3c_cover_side,
)
from .oracles import solve_hitting_set, solve_x3c

__all__ = [
    "GADGET_NAMES",
    "DEFAULT_CHECKS",
    "AuditSpec",
    "IdentityResult",
    "InstanceRecord",
    "AuditReport",
    "gen_random_hs",
    "gen_random_x3c",
    "gen_random_election",
    "gen_random_control_instance",
    "exhaustive_hs_instances",
    "exhaustive_x3c_instances",
    "check_score_identities",
    "evaluate_identity",
    "audit_gadget",
    "build_gadget",
    "read_source",
    "replay_instance",
    "encode_hs",
    "decode_hs",
    "encode_x3c",
    "decode_x3c",
    "encode_deletion_source",
    "decode_deletion_source",
    "render_text",
    "render_jsonl",
]

DEFAULT_CHECKS = {
    "hs-candidates": ("equivalence", "identities"),
    "hs-delete-constructive": ("equivalence", "identities"),
    "rhs-voter-partition-tp": ("identities", "one-direction"),
    "x3c-voter-partition-te": ("equivalence", "identities", "final-round"),
    "deletion-to-candidate-partition": ("equivalence", "identities"),
    "hs-destructive-candidate-partition": ("equivalence", "identities"),
}
GADGET_NAMES = tuple(DEFAULT_CHECKS)


@dataclass(frozen=True)
class AuditSpec:
    """What to audit and over which instance family.

    Exhaustive mode sweeps (n, m, k) / (k, set-count) bounds in
    ascending order; random mode draws ``trials`` instances from the
    same bounds with a deterministic per-trial seed.  The
    deletion-to-candidate-partition gadget is audited on random sources
    only: range-2 elections of 2-4 candidates and at most 4 ballot groups
    of at most 3 voters, a distinguished candidate, and a deletion limit
    of 1 or 2, below the candidate count.  ``checks`` is not a setting:
    it is the gadget's own ``DEFAULT_CHECKS`` entry.
    """

    gadget: str
    mode: str = "exhaustive"  # or "random"
    n: tuple[int, int] = (1, 3)
    m: tuple[int, int] = (1, 2)
    k: tuple[int, int] = (1, 1)
    sets: tuple[int, int] = (1, 2)
    trials: int = 0
    seed: int = 0
    budget: int | None = None
    checks: tuple[str, ...] = field(init=False)
    isomorphism_free: bool = True

    def __post_init__(self) -> None:
        if self.gadget not in GADGET_NAMES:
            raise ValueError(f"unknown gadget {self.gadget!r}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown audit mode {self.mode!r}")
        object.__setattr__(self, "checks", DEFAULT_CHECKS[self.gadget])
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, got {self.trials}")


@dataclass(frozen=True)
class IdentityResult:
    label: str
    relation: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    encoding: str
    oracle: str
    oracle_witness: str
    solver: tuple[tuple[str, str], ...]
    identities: tuple[IdentityResult, ...]
    notes: tuple[str, ...]
    status: str  # "agree" | "disagree" | "budget-exceeded"
    explored: int


@dataclass(frozen=True)
class AuditReport:
    """An audit's records; its summary is read off them."""

    spec: AuditSpec
    records: tuple[InstanceRecord, ...]

    @property
    def counterexamples(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records if r.status == "disagree")

    @property
    def budget_exceeded(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records if r.status == "budget-exceeded")

    @property
    def identity_failures(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records if not all(i.passed for i in r.identities))

    @property
    def agreement(self) -> bool:
        return not self.counterexamples


# ---------------------------------------------------------------------------
# deterministic random generators

def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def gen_random_hs(n: int, m: int, k: int, seed: int) -> HittingSetInstance:
    """Uniformly sampled family of m nonempty subsets of an n-universe."""
    rng = _rng("hs", seed)
    universe = tuple(f"b{i + 1}" for i in range(n))
    sets = []
    for _ in range(m):
        mask = rng.randrange(1, 1 << n)
        sets.append(tuple(universe[i] for i in range(n) if mask >> i & 1))
    return HittingSetInstance(universe, tuple(sets), k)


def gen_random_x3c(
    k: int, set_count: int, seed: int, planted: bool | None = None
) -> X3CInstance:
    """Random exact-cover instance over 3k elements.

    With ``planted=None`` a seeded coin decides whether an exact cover
    is planted, so both answers occur; unplanted instances may still
    contain a cover by accident.
    """
    rng = _rng("x3c", seed)
    elements = tuple(f"b{i + 1}" for i in range(3 * k))
    if planted is None:
        planted = rng.random() < 0.5
    if planted:
        perm = list(elements)
        rng.shuffle(perm)
        sets = [tuple(perm[3 * i: 3 * i + 3]) for i in range(k)]
        while len(sets) < set_count:
            sets.append(tuple(rng.sample(elements, 3)))
        rng.shuffle(sets)
        # fewer than k sets are cut from the planted cover, and X3CInstance refuses them
        return X3CInstance(elements, tuple(sets[:set_count]))
    for _ in range(1000):
        sets = [tuple(rng.sample(elements, 3)) for _ in range(set_count)]
        if set(itertools.chain.from_iterable(sets)) == set(elements):
            break
    return X3CInstance(elements, tuple(sets))  # refuses the last draw if none covered


def gen_random_election(
    seed: int,
    max_candidates: int = 5,
    max_groups: int = 6,
    max_k: int = 4,
    max_multiplicity: int = 4,
    k: int | None = None,
) -> Election:
    """Small random election; deterministic per seed."""
    rng = _rng("election", seed)
    n_cands = rng.randint(1, max_candidates)
    cands = tuple(f"c{i + 1}" for i in range(n_cands))
    rng_k = k if k is not None else rng.randint(1, max_k)
    rows = []
    for _ in range(rng.randint(0, max_groups)):
        scores = tuple(rng.randint(0, rng_k) for _ in cands)
        rows.append((rng.randint(1, max_multiplicity), scores))
    return Election.from_rows(rng_k, cands, rows)


def gen_random_control_instance(seed: int, max_actions: int = 30000) -> ControlInstance:
    """Random control instance with a bounded exhaustive search space."""
    for attempt in range(200):
        rng = _rng("instance", seed, attempt)
        family = rng.choice(ctl.FAMILIES)
        compact = family == ctl.PARTITION_VOTERS
        base = gen_random_election(
            rng.randrange(1 << 30),
            max_candidates=3 if compact else 4,
            max_groups=3 if compact else 4,
            max_k=3,
            max_multiplicity=2 if compact else 3,
        )
        if not base.ballots and family in (ctl.DELETE_VOTERS, ctl.PARTITION_VOTERS):
            continue
        goal = rng.choice((ctl.CONSTRUCTIVE, ctl.DESTRUCTIVE))
        system = rng.choice((RV, NRV))
        cands = base.candidates
        distinguished = rng.choice(cands)
        kwargs = {}
        if family in ctl._PARTITION_FAMILIES:
            kwargs["tie_model"] = rng.choice(ctl._TIE_MODELS)
        else:
            kwargs["limit"] = rng.randint(1, 2)
        if family == ctl.ADD_CANDIDATES:
            others = [c for c in cands if c != distinguished]
            rng.shuffle(others)
            kwargs["spoilers"] = tuple(sorted(others[: rng.randint(0, len(others))]))
        if family == ctl.ADD_VOTERS:
            pool = []
            for _ in range(rng.randint(0, 2)):
                scores = tuple(rng.randint(0, base.k) for _ in cands)
                pool.append(BallotGroup(scores, rng.randint(1, 2)))
            kwargs["pool"] = tuple(pool)
        try:
            instance = ControlInstance(
                base=base, family=family, goal=goal, system=system,
                distinguished=distinguished, **kwargs,
            )
        except ctl.InvalidInstance:
            continue
        if ctl.search_space(instance) <= max_actions:
            return instance
    raise ValueError(f"could not build a bounded random instance for seed {seed}")


# ---------------------------------------------------------------------------
# exhaustive instance enumeration (ordered by n, m, k, then family)

def _least_of_orbit(n: int) -> Callable[[tuple[int, ...]], bool]:
    """For one pass that asks about each sorted family of nonempty masks once:
    is it the least of its orbit under the n! element permutations?

    ``bit_images[i]`` lists ``1 << perm[i]`` over the permutations in
    ``itertools.permutations`` order, in 2-byte entries (n <= 16): O(n * n!)
    per table, and no per-mask cache. A mask's images are the element-wise OR
    of its bits' lists, so the orbit comes from C-level ``map``/``zip`` passes.
    The first member met walks the orbit and maps the rest to its least member;
    each is answered later by one ``dict.pop``, so the memo holds only
    unvisited ones and empties once a pass has met every member.

    Only the exact-cover sweep filters with this.  Hitting-set families have
    few sets, so ``_least_hs_families`` works from set orders instead; at
    k=2 with 5 sets that would walk C(37, 6) = 2,324,784 column multisets
    and 5! set orders, against this table's 6! element orders.
    """
    bit_images = [
        array.array("H", map((1).__lshift__,
                             map(operator.itemgetter(i), itertools.permutations(range(n)))))
        for i in range(n)
    ]
    least: dict[tuple[int, ...], tuple[int, ...]] = {}

    def images(mask: int) -> Iterable[int]:
        bits = [bit_images[i] for i in range(n) if mask >> i & 1]
        image = bits[0]
        for column in bits[1:]:
            image = map(operator.or_, image, column)
        return image

    def is_least(family: tuple[int, ...]) -> bool:
        rep = least.pop(family, None)
        if rep is None:
            orbit = set(map(tuple, map(sorted, zip(*map(images, family)))))
            rep = min(orbit)
            orbit.discard(family)
            least.update(dict.fromkeys(orbit, rep))
        return family == rep

    return is_least


def _least_hs_families(n: int, m: int) -> list[tuple[int, ...]]:
    """The least sorted family of each orbit of m nonempty masks over n
    elements under element permutations, ascending.

    An element's column holds its m membership bits.  A class is a multiset
    of n columns up to relabelling the sets, met here only at its least
    column multiset under the m! relabellings.  For one set order, placing
    the elements at bits 0, 1, ... in descending column order (the first set
    on the top bit) gives the least (mask(S_1), ..., mask(S_m)): the first
    set takes the lowest bits, the next the lowest within each block, and so
    on.  Sorting a tuple never makes it larger, so the least sorted family is
    the minimum over the set orders of the sorted placed masks.
    """
    full = (1 << m) - 1
    relabellings = [
        [sum(1 << perm[b] for b in range(m) if column >> b & 1) for column in range(1 << m)]
        for perm in itertools.permutations(range(m))
    ][1:]
    # a column's bits one n-bit field apart: summing the placed columns
    # shifted by their positions packs all m masks into one int
    spread = [sum(1 << b * n for b in range(m) if column >> b & 1) for column in range(1 << m)]
    fields = range(0, m * n, n)
    low = (1 << n) - 1
    descending = range(n - 1, -1, -1)
    least = []
    for columns in itertools.combinations_with_replacement(range(1 << m), n):
        if functools.reduce(operator.or_, columns) != full:
            continue  # a set is empty
        own = list(columns)
        orders = [own]
        for relabel in relabellings:
            image = sorted(map(relabel.__getitem__, columns))
            if image < own:
                break
            orders.append(image)
        else:
            # each order's columns ascending, placed from the top bit down
            packed = (sum(map(operator.lshift, map(spread.__getitem__, order), descending))
                      for order in orders)
            least.append(tuple(min(sorted([p >> f & low for f in fields]) for p in packed)))
    least.sort()
    return least


def exhaustive_hs_instances(
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    k_range: tuple[int, int],
    isomorphism_free: bool = True,
) -> Iterator[HittingSetInstance]:
    """All hitting-set instances within bounds, ascending by (n, m, k, family).

    ``isomorphism_free`` yields the least member of each orbit under element
    permutations, in ascending order, generated per (n, m) from the m! set
    orders of each class (``_least_hs_families``)."""
    for n in range(max(1, n_range[0]), n_range[1] + 1):
        universe = tuple(f"b{i + 1}" for i in range(n))
        nonempty = range(1, 1 << n)
        for m in range(max(1, m_range[0]), m_range[1] + 1):
            if isomorphism_free:
                families = _least_hs_families(n, m)
            else:
                families = itertools.combinations_with_replacement(nonempty, m)
            for family in families:
                sets = tuple(
                    tuple(universe[i] for i in range(n) if mask >> i & 1) for mask in family
                )
                for k in range(max(1, k_range[0]), min(k_range[1], n) + 1):
                    yield HittingSetInstance(universe, sets, k)


def exhaustive_x3c_instances(
    k_range: tuple[int, int],
    set_range: tuple[int, int],
    isomorphism_free: bool = True,
) -> Iterator[X3CInstance]:
    """All exact-cover instances within bounds, ascending by (k, |S|, family).

    ``isomorphism_free`` yields the least member (by sorted masks) of each orbit
    under element permutations, in ascending order, at one orbit walk per class
    through one table per k of the (3k)! permutations' bit images.  That
    table is 3k columns of (3k)! 2-byte entries, 6.5 MB at k=3 and 11.5 GB
    at k=4, so a larger k raises ValueError before any table is built."""
    if isomorphism_free and k_range[1] > 3:
        raise ValueError(
            f"isomorph-free exact-cover sweeps take k <= 3, got k <= {k_range[1]}: "
            "the (3k)! orbit table would not fit in memory"
        )
    for k in range(max(1, k_range[0]), k_range[1] + 1):
        elements = tuple(f"b{i + 1}" for i in range(3 * k))
        triples = list(itertools.combinations(range(3 * k), 3))
        masks = {t: (1 << t[0]) | (1 << t[1]) | (1 << t[2]) for t in triples}
        full = (1 << (3 * k)) - 1
        # each set count's pass meets every member of each orbit it starts,
        # so the memo empties between passes
        is_least = _least_of_orbit(3 * k) if isomorphism_free else None
        for count in range(max(k, set_range[0]), set_range[1] + 1):
            for family in itertools.combinations_with_replacement(triples, count):
                union = 0
                for t in family:
                    union |= masks[t]
                if union != full:
                    continue
                # triple order is not mask order: key the orbit by sorted masks
                if is_least is not None and not is_least(tuple(sorted(masks[t] for t in family))):
                    continue
                sets = tuple(tuple(elements[i] for i in t) for t in family)
                yield X3CInstance(elements, sets)


# ---------------------------------------------------------------------------
# identity evaluation

# subelection totals by (voter_counts, candidates), for identities over one election
_Tallies = dict[tuple, dict[str, Fraction]]


def evaluate_identity(
    election: Election,
    system: str,
    identity: ScoreIdentity,
    tallies: _Tallies | None = None,
) -> IdentityResult:
    """Evaluate one score assertion by exact tally of the named subelection.

    ``tallies`` memoizes the totals by ``(voter_counts, candidates)``;
    share one only among identities over the same election and system.
    """
    if tallies is None:
        tallies = {}
    key = (identity.voter_counts, identity.candidates)
    totals = tallies.get(key)
    if totals is None:
        sub = election
        if identity.voter_counts is not None:
            sub = take_voters(sub, identity.voter_counts)
        if identity.candidates is not None:
            sub = project(sub, identity.candidates)
        totals = tallies[key] = tally(sub, system).totals
    value = totals[identity.candidate]
    for other in identity.subtract:
        value -= totals[other]
    if identity.subtract_max_of:
        value -= max(totals[c] for c in identity.subtract_max_of)
    if identity.relation == "==":
        passed = value == identity.expected
    elif identity.relation == "<=":
        passed = value <= identity.expected
    else:
        passed = value >= identity.expected
    return IdentityResult(
        identity.label, identity.relation, str(identity.expected), str(value), passed
    )


def check_score_identities(
    gadget: GadgetOutput, tallies: _Tallies | None = None
) -> tuple[IdentityResult, ...]:
    """Evaluate every attached assertion on the constructed election, each
    distinct subelection tallied once (``tallies`` as in :func:`evaluate_identity`)."""
    if tallies is None:
        tallies = {}
    return tuple(
        evaluate_identity(gadget.election, NRV, ident, tallies)
        for ident in gadget.identities
    )


# ---------------------------------------------------------------------------
# instance encodings (single line, replayable)

def encode_hs(hs: HittingSetInstance) -> str:
    sets = ";".join(",".join(s) for s in hs.sets)
    return f"hs k={hs.k} B={','.join(hs.universe)} S={sets}"


def decode_hs(text: str) -> HittingSetInstance:
    k, universe, sets = _decode_fields(text, "hs", k=int, B=_names, S=_name_sets)
    return HittingSetInstance(universe, sets, k)


def encode_x3c(x3c: X3CInstance) -> str:
    sets = ";".join(",".join(s) for s in x3c.sets)
    return f"x3c B={','.join(x3c.elements)} S={sets}"


def decode_x3c(text: str) -> X3CInstance:
    return X3CInstance(*_decode_fields(text, "x3c", B=_names, S=_name_sets))


def encode_deletion_source(instance: ControlInstance) -> str:
    source = instance.base
    ballots = ";".join(
        f"{g.multiplicity}|{'.'.join(str(s) for s in g.scores)}" for g in source.ballots
    )
    return (
        f"del-src k={source.k} cands={','.join(source.candidates)} "
        f"ballots={ballots} w={instance.distinguished} limit={instance.limit}"
    )


def decode_deletion_source(text: str) -> ControlInstance:
    k, cands, rows, w, limit = _decode_fields(
        text, "del-src", k=int, cands=_names, ballots=_ballot_rows, w=str, limit=int
    )
    return _deletion_source(Election.from_rows(k, cands, rows), w, limit)


def _deletion_source(election: Election, w: str, limit: int) -> ControlInstance:
    """The deletion gadget's audited source: constructive NRV deletion of at most ``limit``."""
    return ControlInstance(
        base=election, family=ctl.DELETE_CANDIDATES, goal=ctl.CONSTRUCTIVE,
        system=NRV, distinguished=w, limit=limit,
    )


def _names(value: str) -> tuple[str, ...]:
    return tuple(value.split(",")) if value else ()


def _name_sets(value: str) -> tuple[tuple[str, ...], ...]:
    return tuple(map(_names, value.split(";")))


def _ballot_rows(value: str) -> list[tuple[int, tuple[int, ...]]]:
    rows = []
    for part in value.split(";") if value else ():
        mult, scores = part.split("|")
        rows.append((int(mult), tuple(int(s) for s in scores.split(".")) if scores else ()))
    return rows


def _decode_fields(text: str, tag: str, **parsers: Callable[[str], object]) -> list:
    """The parsed values of the fields named by ``parsers``, in order, from ``tag key=value ...``."""
    parts = text.split()
    if not parts or parts[0] != tag:
        raise ValueError(f"expected a {tag!r} encoding, got {text!r}")
    out = dict(part.partition("=")[::2] for part in parts[1:])
    missing = [key for key in parsers if key not in out]
    if missing:
        raise ValueError(f"{tag!r} encoding lacks the field {missing[0]!r}: {text!r}")
    values = []
    for key, parse in parsers.items():
        try:
            values.append(parse(out[key]))
        except ValueError:
            raise ValueError(f"{tag!r} encoding has a malformed field {key!r}: {text!r}") from None
    return values


# ---------------------------------------------------------------------------
# the audit path: (encoding, source, gadget) -> InstanceRecord

_X3C = "x3c-voter-partition-te"
_DELETION = "deletion-to-candidate-partition"


def build_gadget(gadget_name: str, source) -> GadgetOutput:
    """The named gadget on ``source``: an HS/X3C instance or a deletion ``ControlInstance``.

    The builder is looked up as a module global at call time, so a rebound
    ``gadget_*`` name is seen by every build.
    """
    return globals()["gadget_" + gadget_name.replace("-", "_")](source)


def read_source(gadget_name: str, text: str):
    """The source ``build_gadget`` takes for the named gadget, read from an instance file."""
    if gadget_name == _DELETION:
        return fileio.parse_election(text).instance
    if gadget_name == _X3C:
        return fileio.parse_x3c_instance(text)
    return fileio.parse_hs_instance(text)


def _build_or_none(gadget_name: str, source) -> GadgetOutput | None:
    """The gadget, or None when ``source`` violates one of its preconditions."""
    try:
        return build_gadget(gadget_name, source)
    except GadgetError:
        return None


def _encode(gadget_name: str, source) -> str:
    if gadget_name == _DELETION:
        return encode_deletion_source(source)
    if gadget_name == _X3C:
        return encode_x3c(source)
    return encode_hs(source)


def _decode(gadget_name: str, encoding: str):
    if gadget_name == _DELETION:
        return decode_deletion_source(encoding)
    if gadget_name == _X3C:
        return decode_x3c(encoding)
    return decode_hs(encoding)


def _answer(decision: bool | None) -> str:
    if decision is None:
        return "budget-exceeded"
    return "yes" if decision else "no"


def _reference(gadget_name: str, source, budget: int | None) -> tuple[bool | None, tuple, int]:
    """The source question's answer as (decision, witness, explored).

    The HS/X3C oracles decide hitting-set and exact-cover sources; the
    deletion source is decided by the exhaustive solver under ``budget``.
    """
    if gadget_name == _DELETION:
        outcome = solve(source, budget=budget)
        return outcome.decision, outcome.witness, outcome.explored
    oracle = solve_x3c(source) if gadget_name == _X3C else solve_hitting_set(source)
    return oracle.decision, oracle.witness, 0


def _pad_hitting_set(hs: HittingSetInstance, witness: Sequence[str], size: int) -> tuple[str, ...]:
    chosen = list(witness)
    have = set(chosen)
    for e in hs.universe:
        if len(chosen) >= size:
            break
        if e not in have:
            chosen.append(e)
    return tuple(chosen)


def _witness_identities(
    gadget_name: str, source, gadget: GadgetOutput, witness: tuple
) -> tuple[ScoreIdentity, ...]:
    """Stated subelection totals that a yes answer's witness pins down."""
    if gadget_name == "hs-delete-constructive":
        return delete_constructive_subelection_identities(
            source, _pad_hitting_set(source, witness, source.k)
        )
    if gadget_name == "hs-destructive-candidate-partition":
        return destructive_partition_subelection_identities(source, witness)
    if gadget_name == _X3C:
        return x3c_cover_side(gadget, source, witness)[1]
    return ()


def _final_round_note(x3c: X3CInstance, gadget: GadgetOutput) -> str:
    n = len(x3c.sets)
    k = x3c.k
    c_id, w_id = gadget.election.candidates[-2:]  # declared ..., c, w
    final = tally(project(gadget.election, (c_id, w_id)), NRV)
    c_total = final.totals[c_id]
    stated = Fraction(12 * n + 14 * k - 2)
    recomputed = Fraction(12 * n + 12 * k)
    if c_total == stated == recomputed:
        which = "both"
    elif c_total == stated:
        which = "stated"
    elif c_total == recomputed:
        which = "recomputed"
    else:
        which = "neither"
    return (
        f"final-round c total {c_total}; stated 12n+14k-2={stated}; "
        f"recomputed 12n+12k={recomputed}; matches={which}"
    )


def _record_fields(encoding: str, source, gadget: GadgetOutput, spec: AuditSpec) -> tuple:
    """Audit one built gadget against the answer to its source question: the
    ``InstanceRecord`` fields after ``index``."""
    name, checks = spec.gadget, spec.checks
    decision, witness, explored = _reference(name, source, spec.budget)
    budget_hit = decision is None
    disagree = False
    solver: list[tuple[str, str]] = []
    if "equivalence" in checks and not budget_hit:
        for instance in gadget.instances:
            outcome = solve(instance, budget=spec.budget)
            explored += outcome.explored
            solver.append((describe(instance), _answer(outcome.decision)))
            if outcome.decision is None:
                budget_hit = True
            elif outcome.decision != decision:
                disagree = True
    tallies: _Tallies = {}  # one tally per distinct subelection of this record
    identities = list(check_score_identities(gadget, tallies))
    if decision:
        for ident in _witness_identities(name, source, gadget, witness):
            identities.append(evaluate_identity(gadget.election, NRV, ident, tallies))
    notes: list[str] = []
    if "one-direction" in checks:
        if decision:
            counts = tp_explicit_partition(gadget, witness)
            ok = ctl.replay_witness(gadget.instances[0], counts)
            notes.append(
                "one-direction: explicit partition "
                + ("denies c unique victory" if ok else "FAILED to deny c unique victory")
            )
            disagree = disagree or not ok
        else:
            notes.append("one-direction: vacuous (no hitting set within budget)")
    if "final-round" in checks:
        notes.append(_final_round_note(source, gadget))
    if name == _DELETION:
        notes.append(f"source deletion answer: {_answer(decision)}")
    if not decision:
        witness_text = ""
    elif name == _X3C:
        witness_text = " | ".join(",".join(s) for s in witness)
    else:
        witness_text = " ".join(witness)
    if budget_hit:
        status = "budget-exceeded"
    elif disagree:
        status = "disagree"
    else:
        status = "agree"
    return (
        encoding, _answer(decision), witness_text, tuple(solver), tuple(identities),
        tuple(notes), status, explored,
    )


def replay_instance(gadget_name: str, encoding: str, budget: int | None = None) -> InstanceRecord:
    """Re-run one audited instance from its report encoding."""
    spec = AuditSpec(gadget=gadget_name, budget=budget)
    source = _decode(gadget_name, encoding)
    gadget = build_gadget(gadget_name, source)
    return InstanceRecord(0, *_record_fields(encoding, source, gadget, spec))


# ---------------------------------------------------------------------------
# audit driver: records computed in stripes of source positions, merged by position

def _stream(spec: AuditSpec) -> Iterator:
    """What sits at each source position of the audit, in order: a random
    audit's trial numbers, or an exhaustive audit's swept sources before
    gadget filtering."""
    name = spec.gadget
    if spec.mode == "random":
        return iter(range(spec.trials))
    if name == _DELETION:
        raise ValueError("the deletion gadget audit samples random source elections")
    if name == _X3C:
        return exhaustive_x3c_instances(spec.k, spec.sets, spec.isomorphism_free)
    return exhaustive_hs_instances(spec.n, spec.m, spec.k, spec.isomorphism_free)


def _record_at(spec: AuditSpec, item) -> tuple | None:
    """The ``InstanceRecord`` fields after ``index`` for one item of ``_stream(spec)``,
    or None where its source fails a gadget precondition; only its gadget is built."""
    if spec.mode == "random":
        source, gadget = _draw(spec, item)
    else:
        source, gadget = item, _build_or_none(spec.gadget, item)
    if gadget is not None:
        return _record_fields(_encode(spec.gadget, source), source, gadget, spec)


def _draw(spec: AuditSpec, trial: int) -> tuple[object, GadgetOutput]:
    """One random trial's source and gadget.  A draw is redrawn, seeded by
    (trial, attempt), until it is valid and its gadget builds.  An x3c trial's
    first draw is seeded by the trial alone, which keeps the random x3c audits
    pinned elsewhere: the record indices ``test_k3_audit_disagrees_on_every_no_record``
    asserts and perfbench's audit-x3c hashes.  It is redrawn when
    ``gen_random_x3c`` cannot cover an unplanted draw."""
    name = spec.gadget
    for attempt in range(500):
        if name == _X3C and not attempt:
            rng = _rng("audit", spec.seed, trial)
        else:
            rng = _rng("audit", spec.seed, trial, attempt)
        try:  # a ValueError marks an invalid draw: an empty range or a bad instance
            if name == _X3C:
                k = rng.randint(*spec.k)
                count = rng.randint(max(k, spec.sets[0]), max(k, spec.sets[1]))
                source = gen_random_x3c(k, count, rng.randrange(1 << 30))
            elif name == _DELETION:
                most = rng.randint(2, 4)
                election = gen_random_election(
                    rng.randrange(1 << 30), max_candidates=most, max_groups=4, k=2,
                    max_multiplicity=3,
                )
                source = _deletion_source(
                    election, rng.choice(election.candidates),
                    rng.randint(1, min(2, len(election.candidates) - 1)),
                )
            else:
                n = rng.randint(*spec.n)
                m = rng.randint(*spec.m)
                k = rng.randint(spec.k[0], min(spec.k[1], n))
                source = gen_random_hs(n, m, k, rng.randrange(1 << 30))
        except ValueError:
            continue
        gadget = _build_or_none(name, source)
        if gadget is not None:
            return source, gadget
    raise ValueError(f"could not sample a valid instance for {name}")


def _run_stripe(spec: AuditSpec, numbered: Iterator, first: int, width: int) -> tuple:
    """Stripe ``first`` of ``width`` over ``numbered``'s (position, item) pairs: its
    (position, record fields) rows, and the position it stopped at by raising (at
    the next position, if walking there raised), or None."""
    rows = []
    position = first
    try:
        for position, item in itertools.islice(numbered, first, None, width):
            values = _record_at(spec, item)
            if values is not None:
                rows.append((position, values))
            position += width
    except Exception:
        return rows, position
    return rows, None


# The fewest source positions a process of a split audit gets.  A worker
# costs a fork, copy-on-write faults on the caller's heap, caches that start
# cold and its own walk of an exhaustive sweep: 15-30 ms more CPU on the
# perfbench audits, while the cheapest positions (hs-delete-constructive at
# n = 6) take about 0.25 ms each.  On fewer positions a split gains a few
# milliseconds at most, and its wall time swings with the load on the other
# CPUs.
_LEAST_SHARE = 64


def _cpus() -> int:
    """The CPUs an audit may spread over: those this process may run on.
    One where ``os.fork`` is missing or other threads are alive, since a
    forked child holds only the calling thread and whatever locks the
    others held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(positions: int) -> int:
    """How many processes share an audit of at least ``positions`` source
    positions: one per CPU, each with ``_LEAST_SHARE`` positions or more."""
    return max(1, min(_cpus(), positions // _LEAST_SHARE))


def _fork_stripe(spec: AuditSpec, numbered: Iterator, first: int, width: int) -> tuple:
    """Fork a worker that runs one stripe; its pid and the read end of its pipe.

    The worker pickles ``_run_stripe``'s result, so a raise crosses the pipe as
    a position, never as an exception.  It ends with ``os._exit``, status 1 if it
    could not send: it never returns into the caller, flushes the caller's stdio
    buffers or runs its atexit handlers.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        import pickle  # loaded here, not at start-up: only a split audit needs it

        with open(write, "wb") as pipe:
            pickle.dump(_run_stripe(spec, numbered, first, width), pipe)
        status = 0
    finally:
        os._exit(status)


def audit_gadget(spec: AuditSpec) -> AuditReport:
    """Run the audit described by ``spec`` and assemble a deterministic report.

    Source position p (see ``_stream``) falls in stripe p % W, with W from
    ``_worker_count`` on the positions read ahead here before any fork.
    This process runs stripe 0 and W - 1 forked workers run the others, each
    on its own copy of the stream, and pickle their rows back.  The rows are
    merged by position and numbered in that order, so the report bytes do not
    depend on W, and W = 1 forks nothing.  If stripes raise, the lowest position
    one raised at is run again here, raising as a one-process audit would; every
    worker is reaped on every path, and killed first if this process raises.
    """
    stream = _stream(spec)
    head = list(itertools.islice(stream, _LEAST_SHARE * _cpus()))
    width = _worker_count(len(head))
    numbered = enumerate(itertools.chain(head, stream))
    workers: list[tuple[int, BinaryIO]] = []  # forked and not yet reaped
    try:
        for first in range(1, width):
            workers.append(_fork_stripe(spec, numbered, first, width))
        rows, failed = _run_stripe(spec, numbered, 0, width)
        failures = [failed]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status:
                raise RuntimeError(f"an audit worker ended with wait status {status}")
            import pickle  # as in _fork_stripe, loaded only when a worker reports
            more, failed = pickle.loads(data)
            rows += more
            failures.append(failed)
    finally:
        for pid, pipe in workers:  # left only if this process raises
            import signal  # loaded here, not at start-up: only this path needs it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    position = min((p for p in failures if p is not None), default=None)
    if position is not None:
        for item in itertools.islice(_stream(spec), position, position + 1):
            _record_at(spec, item)
        raise RuntimeError(f"source position {position} raised in its stripe but not run again")
    rows.sort(key=operator.itemgetter(0))
    return AuditReport(spec, tuple(
        InstanceRecord(index, *values) for index, (_, values) in enumerate(rows)
    ))


# ---------------------------------------------------------------------------
# rendering

def _spec_header(spec: AuditSpec) -> list[str]:
    """One ``key: value`` line per ``AuditSpec`` field, in declaration order."""
    lines = []
    for spec_field in fields(AuditSpec):
        value = getattr(spec, spec_field.name)
        if spec_field.name == "checks":
            value = ",".join(value)
        elif isinstance(value, tuple):
            value = f"{value[0]}..{value[1]}"
        elif value is None or isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{spec_field.name.replace('_', '-')}: {value}")
    return lines


def render_text(report: AuditReport) -> str:
    """Line-oriented report; identical (spec, seed) gives identical bytes."""
    lines = ["# gadget audit report"]
    lines.extend(_spec_header(report.spec))
    lines.append(f"instances: {len(report.records)}")
    lines.append(f"agreement: {str(report.agreement).lower()}")
    lines.append(f"counterexamples: {' '.join(str(i) for i in report.counterexamples) or '-'}")
    lines.append(f"identity-failures: {' '.join(str(i) for i in report.identity_failures) or '-'}")
    lines.append(f"budget-exceeded: {' '.join(str(i) for i in report.budget_exceeded) or '-'}")
    lines.append("")
    for r in report.records:
        lines.append(f"[{r.index}] {r.encoding}")
        lines.append(f"  status: {r.status}  oracle: {r.oracle}"
                     + (f"  witness: {r.oracle_witness}" if r.oracle_witness else ""))
        for label, answer in r.solver:
            lines.append(f"  solver: {label} -> {answer}")
        for ident in r.identities:
            verdict = "ok" if ident.passed else "FAIL"
            lines.append(
                f"  identity [{verdict}] {ident.label}: computed {ident.computed} "
                f"{ident.relation} expected {ident.expected}"
            )
        for note in r.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  explored: {r.explored}")
    return "\n".join(lines) + "\n"


def render_jsonl(report: AuditReport) -> str:
    """One JSON object per instance plus a trailing summary object."""
    lines = []
    for r in report.records:
        row = asdict(r)
        row["instance"] = row.pop("encoding")
        lines.append(json.dumps({**row, "gadget": report.spec.gadget}, sort_keys=True))
    lines.append(json.dumps({
        "summary": {
            "gadget": report.spec.gadget,
            "seed": report.spec.seed,
            "instances": len(report.records),
            "agreement": report.agreement,
            "counterexamples": list(report.counterexamples),
            "identity_failures": list(report.identity_failures),
            "budget_exceeded": list(report.budget_exceeded),
        }
    }, sort_keys=True))
    return "\n".join(lines) + "\n"
