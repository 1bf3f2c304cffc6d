"""Election/instance file parsing, serialization, canonicalization."""

import pytest

from rangecontrol.control import ADD_CANDIDATES, ADD_VOTERS, PARTITION_VOTERS
from rangecontrol.elections import BallotGroup, Election
from rangecontrol.fileio import (
    ParseError,
    parse_election,
    parse_hs_instance,
    parse_problem,
    parse_x3c_instance,
    serialize_election,
    serialize_hs_instance,
    serialize_x3c_instance,
)
from rangecontrol.harness import gen_random_control_instance, gen_random_election

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

    def test_hs_round_trip(self):
        text = "elements: b1 b2 b3\nset: b1 b3\nset: b2\nk: 2\n"
        inst = parse_hs_instance(text)
        assert serialize_hs_instance(inst) == text

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

    def test_x3c_round_trip(self):
        text = "elements: b1 b2 b3\nset: b1 b2 b3\n"
        assert serialize_x3c_instance(parse_x3c_instance(text)) == text

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
