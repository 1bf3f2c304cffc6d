"""Election/instance file parsing, serialization, canonicalization."""

import ast
from pathlib import Path

import pytest

from rangecontrol import fileio
from rangecontrol.control import (
    ADD_CANDIDATES,
    ADD_VOTERS,
    CONSTRUCTIVE,
    DELETE_VOTERS,
    PARTITION_VOTERS,
    TIES_PROMOTE,
    ControlInstance,
    InvalidInstance,
)
from rangecontrol.elections import RV, BallotGroup, Election, InvalidElection, from_approval
from rangecontrol.fileio import (
    ParseError,
    parse_election,
    parse_hs_instance,
    parse_problem,
    parse_x3c_instance,
    serialize_election,
)
from rangecontrol.gadgets import GadgetError, HittingSetInstance, X3CInstance
from rangecontrol.harness import (
    decode_hs,
    decode_x3c,
    gen_random_control_instance,
    gen_random_election,
)

TWO_RANGE_FILE = """\
# a 2-range election
range: 2
candidates: a b c
ballots:
5 | 2 0 1
6 | 0 2 0
4 | 1 2 0
"""


class TestParseElection:
    def test_worked_example_file(self):
        parsed = parse_election(TWO_RANGE_FILE)
        e = parsed.election
        assert e.candidates == ("a", "b", "c")
        assert len(e.ballots) == 3
        assert e.total_voters == 15
        assert parsed.instance is None and parsed.system is None

    def test_score_out_of_range_names_line(self):
        text = "range: 2\ncandidates: a b\nballots:\n1 | 3 0\n"
        with pytest.raises(ParseError) as err:
            parse_election(text)
        assert err.value.line == 4

    def test_duplicate_vectors_merge(self):
        text = "range: 2\ncandidates: a b\nballots:\n1 | 2 0\n3 | 2 0\n"
        e = parse_election(text).election
        assert e.ballots == (BallotGroup((2, 0), 4),)

    def test_missing_range(self):
        with pytest.raises(ParseError):
            parse_election("candidates: a\nballots:\n1 | 1\n")

    def test_missing_candidates(self):
        with pytest.raises(ParseError):
            parse_election("range: 2\nballots:\n1 | 1\n")

    def test_duplicate_candidate(self):
        with pytest.raises(ParseError):
            parse_election("range: 2\ncandidates: a a\nballots:\n")

    def test_wrong_score_count(self):
        with pytest.raises(ParseError) as err:
            parse_election("range: 2\ncandidates: a b\nballots:\n1 | 2\n")
        assert err.value.line == 4

    def test_stray_line(self):
        with pytest.raises(ParseError):
            parse_election("range: 2\ncandidates: a\n1 | 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\nrange: 2\n\ncandidates: a b  # trailing\nballots:\n1 | 1 0\n"
        assert parse_election(text).election.total_voters == 1

    def test_empty_ballot_section(self):
        e = parse_election("range: 2\ncandidates: a b\nballots:\n").election
        assert e.ballots == () and e.total_voters == 0


class TestInstanceSections:
    ADD_FILE = """\
range: 2
system: nrv
candidates: c w d
ballots:
3 | 1 0 2
2 | 0 2 0
action: add-candidates
goal: destructive
distinguished: c
limit: 1
spoilers: d
"""

    def test_add_candidates_instance(self):
        parsed = parse_election(self.ADD_FILE)
        inst = parsed.instance
        assert inst is not None
        assert inst.family == ADD_CANDIDATES and inst.system == "nrv"
        assert inst.spoilers == ("d",) and inst.limit == 1
        assert inst.registered == ("c", "w")

    def test_pool_section(self):
        text = (
            "range: 1\ncandidates: a w\nballots:\n1 | 1 0\n"
            "action: add-voters\ngoal: constructive\ndistinguished: w\nlimit: 2\n"
            "pool:\n2 | 0 1\n"
        )
        inst = parse_election(text).instance
        assert inst.family == ADD_VOTERS
        assert inst.pool == (BallotGroup((0, 1), 2),)

    def test_partition_instance(self):
        text = (
            "range: 1\ncandidates: a w\nballots:\n1 | 1 0\n"
            "action: partition-voters\ngoal: destructive\nties: eliminate\n"
            "distinguished: a\n"
        )
        inst = parse_election(text).instance
        assert inst.family == PARTITION_VOTERS and inst.tie_model == "eliminate"

    def test_instance_fields_without_action(self):
        text = "range: 1\ncandidates: a\nballots:\ngoal: constructive\n"
        with pytest.raises(ParseError):
            parse_election(text)

    def test_unknown_distinguished(self):
        text = (
            "range: 1\ncandidates: a w\nballots:\n"
            "action: delete-candidates\ngoal: constructive\ndistinguished: zz\nlimit: 1\n"
        )
        with pytest.raises(ParseError):
            parse_election(text)

    def test_pool_outside_add_voters(self):
        text = (
            "range: 1\ncandidates: a w\nballots:\n"
            "action: delete-voters\ngoal: constructive\ndistinguished: w\nlimit: 1\n"
            "pool:\n1 | 1 0\n"
        )
        with pytest.raises(ParseError):
            parse_election(text)


class TestRoundTrips:
    def test_parse_of_serialize_is_identity(self):
        for seed in range(12):
            e = gen_random_election(seed)
            assert parse_election(serialize_election(e)).election == e

    def test_instance_round_trip(self):
        for seed in range(40):
            inst = gen_random_control_instance(seed, max_actions=2000)
            text = serialize_election(inst.base, inst)
            parsed = parse_election(text)
            assert parsed.election == inst.base
            assert parsed.instance == inst

    def test_serialize_of_parse_canonicalizes(self):
        messy = "range: 2\ncandidates: a b\nballots:\n1 | 2 0\n2 | 0 1\n1 | 2 0\n"
        canonical = serialize_election(parse_election(messy).election)
        assert canonical == "range: 2\ncandidates: a b\nballots:\n2 | 0 1\n2 | 2 0\n"
        assert serialize_election(parse_election(canonical).election) == canonical

    def test_empty_voter_round_trip(self):
        e = Election(2, ("a", "b"))
        assert parse_election(serialize_election(e)).election == e


class TestProblemFiles:
    def test_hs_file(self):
        inst = parse_hs_instance("elements: b1 b2\nset: b1\nk: 1\n")
        assert inst.n == 2 and inst.m == 1 and inst.k == 1

    def test_hs_file_parses_to_its_instance(self):
        text = "elements: b1 b2 b3\nset: b1 b3\nset: b2\nk: 2\n"
        assert parse_hs_instance(text) == HittingSetInstance(
            ("b1", "b2", "b3"), (("b1", "b3"), ("b2",)), 2
        )

    def test_duplicate_elements_warn(self):
        with pytest.warns(UserWarning):
            inst = parse_hs_instance("elements: b1 b2\nset: b1 b1 b2\nk: 1\n")
        assert inst.sets == (("b1", "b2"),)

    def test_unknown_element(self):
        with pytest.raises(ParseError):
            parse_hs_instance("elements: b1\nset: zz\nk: 1\n")

    def test_missing_k(self):
        with pytest.raises(ParseError):
            parse_hs_instance("elements: b1\nset: b1\n")

    def test_x3c_file(self):
        inst = parse_x3c_instance("elements: b1 b2 b3\nset: b1 b2 b3\n")
        assert inst.k == 1

    def test_x3c_file_parses_to_its_instance(self):
        text = "elements: b1 b2 b3\nset: b1 b2 b3\n"
        assert parse_x3c_instance(text) == X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))

    def test_x3c_wrong_set_size(self):
        with pytest.raises(ParseError):
            parse_x3c_instance("elements: b1 b2 b3\nset: b1 b2\nset: b1 b2 b3\n")

    def test_x3c_rejects_k_header(self):
        with pytest.raises(ParseError):
            parse_x3c_instance("elements: b1 b2 b3\nset: b1 b2 b3\nk: 1\n")

    def test_problem_kind_follows_the_parsed_k(self):
        hs = parse_problem("elements: b1 b2 b3\nset: b1 b2 b3\nk : 2\n")
        assert hs == parse_hs_instance("elements: b1 b2 b3\nset: b1 b2 b3\nk: 2\n")
        x3c = parse_problem("elements: b1 b2 b3\nset: b1 b2 b3  # k: 1\n")
        assert x3c == parse_x3c_instance("elements: b1 b2 b3\nset: b1 b2 b3\n")
        with pytest.raises(ParseError, match="exactly 3 elements"):
            parse_problem("elements: b1 b2 b3\nset: b1 b2\n")


_BASE = "range: 2\ncandidates: a b\nballots:\n1 | 2 0\n"


@pytest.mark.parametrize("parse, text, message", [
    (parse_election, "range: 2\nrange: 3\n", "line 2: duplicate range: line"),
    (parse_election, "range: two\n", "line 1: range must be an integer, got 'two'"),
    (parse_election, "range: 2\nsystem: rv\nsystem: nrv\n", "line 3: duplicate system: line"),
    (parse_election, "system: irv\n", "line 1: unknown system 'irv'"),
    (parse_election, "candidates: a\ncandidates: b\n", "line 2: duplicate candidates: line"),
    (parse_election, "range: 2\nvoters: 3\n", "line 2: unknown header 'voters'"),
    (parse_election, "range: 2\ncandidates: a\nballots: 1 | 2\n",
     "line 3: ballots: takes no inline value"),
    (parse_election, "pool: 1 | 2\n", "line 1: pool: takes no inline value"),
    (parse_election, "range: 2\ncandidates: a\nballots:\n1 2\n",
     "line 4: ballot line must look like '<count> | <scores>'"),
    (parse_election, "range: 2\ncandidates: a\nballots:\n0 | 2\n",
     "line 4: voter count must be positive, got 0"),
    (parse_election, "range: 0\ncandidates: a\nballots:\n",
     "score range k must be a positive integer, got 0"),
    (parse_election, _BASE + "action: delete-candidates\ngoal: constructive\ngoal: destructive\n",
     "line 7: duplicate goal: line"),
    (parse_election, _BASE + "action: bribe\n", "line 5: unknown action 'bribe'"),
    (parse_election, _BASE + "action: delete-candidates\n", "instance needs a goal: header"),
    (parse_election, _BASE + "action: delete-candidates\ngoal: win\n", "line 6: unknown goal 'win'"),
    (parse_election, _BASE + "action: delete-candidates\ngoal: constructive\n",
     "instance needs a distinguished: header"),
    (parse_election,
     _BASE + "action: partition-voters\ngoal: destructive\nties: coin\ndistinguished: a\n",
     "line 7: unknown tie model 'coin'"),
    (parse_election,
     _BASE + "action: add-candidates\ngoal: constructive\ndistinguished: a\nspoilers: z\n",
     "line 8: unknown spoiler candidates ['z']"),
    (parse_election,
     _BASE + "action: add-candidates\ngoal: constructive\ndistinguished: a\nspoilers: a\n",
     "distinguished candidate cannot be a spoiler"),
    (parse_election,
     _BASE + "action: delete-voters\ngoal: constructive\ndistinguished: a\nlimit: 1\n"
     "pool:\n1 | 1 1\n",
     "line 10: pool: is only valid for add-voters"),
    (parse_problem, "elements b1\n", "line 1: expected 'key: value', got 'elements b1'"),
    (parse_problem, "elements: b1\nelements: b2\n", "line 2: duplicate elements: line"),
    (parse_problem, "elements: b1 b1\nset: b1\nk: 1\n", "line 1: universe elements must be distinct"),
    (parse_problem, "elements: b1\nset:\n", "line 2: a set must list at least one element"),
    (parse_problem, "elements: b1\nset: b1\nsize: 1\n", "line 3: unknown header 'size'"),
    (parse_problem, "set: b1\nk: 1\n", "missing required header elements:"),
    (parse_problem, "elements: b1\nk: 1\n", "at least one set: line is required"),
    (parse_problem, "elements: b1\nset: b1\nk: 2\n", "budget k must satisfy 1 <= k <= 1, got 2"),
])
def test_rejection_message(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


# each breach of the ballot rule at range 1: (candidates, scores, voter count, message)
_VIOLATIONS = {
    "non-integer score": (("a", "b"), ("x", 0), 1, "score must be an integer, got 'x'"),
    "score below 0": (("a", "b"), (-1, 0), 1, "score -1 outside [0, 1]"),
    "score above k": (("a", "b"), (2, 0), 1, "score 2 outside [0, 1]"),
    "wrong width": (("a", "b"), (1,), 1, "expected 2 scores, got 1"),
    "zero count": (("a", "b"), (1, 0), 0, "voter count must be positive, got 0"),
    "non-integer count": (("a", "b"), (1, 0), "x", "voter count must be an integer, got 'x'"),
    "duplicate candidate": (("a", "a"), (1, 0), 1, "duplicate candidate id 'a'"),
}


def _row(scores, count):
    return f"{count} | {' '.join(str(s) for s in scores)}"


# entry point -> (build from candidates, scores and count; its error; the prefix
# it puts on a ballot-row message)
_ENTRY_POINTS = {
    "Election": (lambda c, s, n: Election(1, c, (BallotGroup(s, n),)), InvalidElection, ""),
    "Election.from_rows": (lambda c, s, n: Election.from_rows(1, c, [(n, s)]), InvalidElection, ""),
    "from_approval": (lambda c, s, n: from_approval(c, [(s, n)]), InvalidElection, ""),
    "ControlInstance pool": (
        lambda c, s, n: ControlInstance(
            base=Election(1, c), family=ADD_VOTERS, goal=CONSTRUCTIVE, system=RV,
            distinguished="a", limit=1, pool=(BallotGroup(s, n),)),
        InvalidInstance, "bad voter pool: "),
    "parse_election ballots": (
        lambda c, s, n: parse_election(
            f"range: 1\ncandidates: {' '.join(c)}\nballots:\n{_row(s, n)}\n"),
        ParseError, "line 4: "),
    "parse_election pool": (
        lambda c, s, n: parse_election(
            f"range: 1\ncandidates: {' '.join(c)}\nballots:\n1 | 1 0\naction: add-voters\n"
            f"goal: constructive\ndistinguished: a\nlimit: 1\npool:\n{_row(s, n)}\n"),
        ParseError, "line 10: "),
}


@pytest.mark.parametrize("violation, entry", [
    (violation, entry) for violation in _VIOLATIONS for entry in _ENTRY_POINTS
    if not (violation == "duplicate candidate" and entry.endswith("pool"))
])
def test_every_entry_point_states_a_ballot_violation_alike(violation, entry):
    candidates, scores, count, message = _VIOLATIONS[violation]
    build, error, prefix = _ENTRY_POINTS[entry]
    with pytest.raises(error) as err:
        build(candidates, scores, count)
    # a duplicate candidate is no fault of a ballot row, so it names no line
    assert str(err.value) == (message if violation == "duplicate candidate" else prefix + message)


# each breach of the per-set rule in a universe of b1 b2 b3: (set members, message)
_SET_VIOLATIONS = {
    "empty set": ((), "a set must list at least one element"),
    "element outside the universe": (("b1", "zz"), "element 'zz' not in the declared universe"),
    "exact-cover set of 2 elements": (("b1", "b2"), "exact-cover sets need exactly 3 elements, got 2"),
}

_UNIVERSE = ("b1", "b2", "b3")


def _set_lines(members):
    return f"elements: {' '.join(_UNIVERSE)}\nset: b1 b2 b3\nset: {' '.join(members)}\n"


# entry point -> (build from one bad set after a good one; its error; the prefix it
# puts on a set message; whether it reads exact-cover sets)
_SET_ENTRY_POINTS = {
    "HittingSetInstance": (
        lambda s: HittingSetInstance(_UNIVERSE, (_UNIVERSE, s), 1), GadgetError, "", False),
    "X3CInstance": (lambda s: X3CInstance(_UNIVERSE, (_UNIVERSE, s)), GadgetError, "", True),
    "decode_hs": (
        lambda s: decode_hs(f"hs k=1 B={','.join(_UNIVERSE)} S=b1,b2,b3;{','.join(s)}"),
        GadgetError, "", False),
    "decode_x3c": (
        lambda s: decode_x3c(f"x3c B={','.join(_UNIVERSE)} S=b1,b2,b3;{','.join(s)}"),
        GadgetError, "", True),
    "parse_problem hs": (lambda s: parse_problem(_set_lines(s) + "k: 1\n"), ParseError, "line 3: ", False),
    "parse_problem x3c": (lambda s: parse_problem(_set_lines(s)), ParseError, "line 3: ", True),
    "parse_hs_instance": (
        lambda s: parse_hs_instance(_set_lines(s) + "k: 1\n"), ParseError, "line 3: ", False),
    "parse_x3c_instance": (lambda s: parse_x3c_instance(_set_lines(s)), ParseError, "line 3: ", True),
}


@pytest.mark.parametrize("violation, entry", [
    (violation, entry) for violation in _SET_VIOLATIONS for entry in _SET_ENTRY_POINTS
    if _SET_ENTRY_POINTS[entry][3] or not violation.startswith("exact-cover")
])
def test_every_entry_point_states_a_set_violation_alike(violation, entry):
    members, message = _SET_VIOLATIONS[violation]
    build, error, prefix, _ = _SET_ENTRY_POINTS[entry]
    with pytest.raises(error) as err:
        build(members)
    assert str(err.value) == prefix + message


# each breach of an instance rule, as changes to a valid delete-voters instance
# over candidates a b c at range 1: (changes, message, the field at fault)
_INSTANCE_VIOLATIONS = {
    "unknown family": ({"family": "bribe"}, "unknown action 'bribe'", "family"),
    "unknown goal": ({"goal": "win"}, "unknown goal 'win'", "goal"),
    "unknown system": ({"system": "irv"}, "unknown system 'irv'", "system"),
    "unknown distinguished": ({"distinguished": "zz"}, "unknown candidate 'zz'", "distinguished"),
    "bad tie value": (
        {"family": PARTITION_VOTERS, "tie_model": "coin", "limit": None},
        "unknown tie model 'coin'", "tie_model"),
    "partition without ties": (
        {"family": PARTITION_VOTERS, "limit": None},
        "partition control needs a tie model, got None", "tie_model"),
    "ties on a non-partition family": (
        {"tie_model": TIES_PROMOTE}, "tie model only applies to partition control", "tie_model"),
    "non-integer limit": ({"limit": "x"}, "limit must be an integer, got 'x'", "limit"),
    "non-positive limit": ({"limit": 0}, "delete-voters needs a positive limit, got 0", "limit"),
    "limit on a partition family": (
        {"family": PARTITION_VOTERS, "tie_model": TIES_PROMOTE},
        "partition control takes no limit", "limit"),
    "unknown spoilers": (
        {"family": ADD_CANDIDATES, "spoilers": ("z", "c")}, "unknown spoiler candidates ['z']",
        "spoilers"),
    "spoilers on another family": (
        {"spoilers": ("c",)}, "spoilers are only meaningful for add-candidates", "spoilers"),
    "distinguished spoiler": (
        {"family": ADD_CANDIDATES, "spoilers": ("a",)},
        "distinguished candidate cannot be a spoiler", None),
    "pool on another family": (
        {"pool": (BallotGroup((0, 1, 0), 1),)}, "pool: is only valid for add-voters", "pool"),
    "bad pool row": (
        {"family": ADD_VOTERS, "pool": (BallotGroup((2, 0, 0), 1),)},
        "bad voter pool: score 2 outside [0, 1]", "pool"),
}

# the header of each field whose header has another name
_FIELD_HEADERS = {"family": "action", "tie_model": "ties"}


def _instance_lines(family, goal, system, distinguished, tie_model, limit, spoilers, pool):
    lines = ["range: 1", f"system: {system}", "candidates: a b c", "ballots:", "1 | 1 0 0",
             f"action: {family}", f"goal: {goal}"]
    lines += [f"ties: {tie_model}"] if tie_model is not None else []
    lines += [f"distinguished: {distinguished}"]
    lines += [f"limit: {limit}"] if limit is not None else []
    lines += [f"spoilers: {' '.join(spoilers)}"] if spoilers else []
    lines += ["pool:", *(_row(g.scores, g.multiplicity) for g in pool)] if pool else []
    return lines


def _fault_line(lines, field):
    """The line a file names for a breach of ``field``'s rule: its header's, or
    the first pool row's; none for a rule of two fields or an absent header."""
    if field == "pool":
        return lines.index("pool:") + 2
    header = f"{_FIELD_HEADERS.get(field, field)}:"
    return next((i for i, line in enumerate(lines, 1) if line.startswith(header)), None)


@pytest.mark.parametrize("violation", _INSTANCE_VIOLATIONS)
def test_every_entry_point_states_an_instance_violation_alike(violation):
    changes, message, field = _INSTANCE_VIOLATIONS[violation]
    fields = {"family": DELETE_VOTERS, "goal": CONSTRUCTIVE, "system": RV, "distinguished": "a",
              "tie_model": None, "limit": 1, "spoilers": (), "pool": (), **changes}
    with pytest.raises(InvalidInstance) as err:
        ControlInstance(base=Election(1, ("a", "b", "c"), (BallotGroup((1, 0, 0), 1),)), **fields)
    assert (str(err.value), err.value.field) == (message, field)

    lines = _instance_lines(**fields)
    with pytest.raises(ParseError) as err:
        parse_election("\n".join(lines) + "\n")
    # the parser names the row, not the pool, for a row breaking the ballot rule
    line = _fault_line(lines, field)
    prefix = f"line {line}: " if line is not None else ""
    assert str(err.value) == prefix + message.removeprefix("bad voter pool: ")


def test_fileio_takes_no_instance_rule_from_control():
    # ControlInstance states every instance rule; a family, goal or tie-model
    # constant imported into the parser would start a second statement of one
    imported = set()
    for node in ast.walk(ast.parse(Path(fileio.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("control", "rangecontrol.control"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module itself
            imported |= {"control" for alias in node.names if alias.name.split(".")[-1] == "control"}
    assert imported == {"ControlInstance", "InvalidInstance"}
