"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import rangecontrol
from rangecontrol import control
from rangecontrol.cli import _build_parser, _parse, run_cli
from rangecontrol.elections import tally
from rangecontrol.fileio import parse_election

from helpers import reference_scan

SHIFTY_FILE = """\
range: 2
candidates: a b c
ballots:
7 | 2 0 0
4 | 0 2 0
4 | 0 1 2
"""

DESTRUCTIVE_ADD_FILE = """\
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

# 40 tied candidates: a 2^40-action partition search that never succeeds
WIDE_PARTITION_FILE = f"""\
range: 1
candidates: {" ".join(f"c{i}" for i in range(39))} w
ballots:
1 | {" ".join(["1"] * 40)}
action: partition-candidates
goal: constructive
ties: eliminate
distinguished: w
"""

# 30 groups of 10^5 voters and a limit of 10^5: counting this space exactly
# takes seconds, its cheap lower bound already exceeds the unbudgeted limit
WIDE_DELETE_FILE = "".join([
    "range: 9\ncandidates: w a b\nballots:\n",
    *(f"100000 | {i % 10} {i // 10} 0\n" for i in range(30)),
    "action: delete-voters\ngoal: constructive\ndistinguished: w\nlimit: 100000\n",
])

# 1,500 groups of 1,000 voters: 1001^1500 split vectors, a count of 4,500 digits
HUGE_PARTITION_FILE = "".join([
    "range: 20\ncandidates: w a b\nballots:\n",
    *(f"1000 | {i % 21} {i // 21 % 21} {i // 441}\n" for i in range(1500)),
    "action: partition-voters\ngoal: constructive\nties: eliminate\ndistinguished: w\n",
])


# 45 split vectors, of which every one with first entry 3 or 4 comes after its
# complement; under rv the canonical witness (2, 0, 2) sends half of the first
# group to each side, under nrv there is none
HALVED_PARTITION_FILE = """\
range: 2
candidates: a w x
ballots:
4 | 0 1 0
2 | 0 1 2
2 | 2 1 1
action: partition-voters
goal: destructive
ties: eliminate
distinguished: w
"""


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def shifty_path(tmp_path):
    path = tmp_path / "shifty.txt"
    path.write_text(SHIFTY_FILE)
    return str(path)


@pytest.fixture
def destructive_add_path(tmp_path):
    path = tmp_path / "destructive-add.txt"
    path.write_text(DESTRUCTIVE_ADD_FILE)
    return str(path)


@pytest.fixture
def wide_partition_path(tmp_path):
    path = tmp_path / "wide-partition.txt"
    path.write_text(WIDE_PARTITION_FILE)
    return str(path)


class TestTally:
    def test_nrv_worked_example(self, shifty_path):
        code, out, _ = cli("tally", "--system", "nrv", shifty_path)
        assert code == 0
        assert out == "a: 14\nb: 12\nc: 8\nwinner: a\n"

    def test_rv_tie_listing(self, tmp_path):
        path = tmp_path / "tie.txt"
        path.write_text("range: 1\ncandidates: a b\nballots:\n1 | 1 0\n1 | 0 1\n")
        code, out, _ = cli("tally", "--system", "rv", str(path))
        assert code == 0 and out.endswith("winners: a b\n")

    def test_rational_totals_printed_in_lowest_terms(self, tmp_path):
        path = tmp_path / "thirds.txt"
        path.write_text("range: 2\ncandidates: a b c\nballots:\n1 | 0 1 3\n")
        code, out, _ = cli("tally", "--system", "nrv", str(path))
        assert code == 2  # score 3 outside range
        path.write_text("range: 3\ncandidates: a b c\nballots:\n1 | 0 1 3\n")
        code, out, _ = cli("tally", "--system", "nrv", str(path))
        assert code == 0 and "b: 1\n" in out

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("range: 2\ncandidates: a\nballots:\n1 | 9\n")
        code, out, err = cli("tally", "--system", "rv", str(path))
        assert code == 2 and "line 4" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize("text, line", [
        ("range: {}\ncandidates: a\nballots:\n", 1),
        ("range: 2\ncandidates: a\nballots:\n{} | 1\n", 4),
    ])
    def test_an_integer_past_the_digit_limit_names_the_limit(self, tmp_path, text, line):
        path = tmp_path / "long.txt"
        path.write_text(text.format("1" * 5000))
        code, _, err = cli("tally", "--system", "rv", str(path))
        assert code == 2 and f"line {line}: " in err
        assert f"at most {sys.get_int_max_str_digits()} digits, got 5000 digits" in err
        assert len(err) < 200

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    def test_a_total_past_the_digit_limit_names_its_candidate(self, tmp_path):
        path = tmp_path / "long-totals.txt"
        path.write_text(_seeded_nrv_file(2000, 10))
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            code, out, err = cli("tally", "--system", "nrv", str(path))
            sys.set_int_max_str_digits(0)
            total = tally(parse_election(path.read_text()).election, "nrv").totals["c0"]
            digits, denominator_digits = len(str(total.numerator)), len(str(total.denominator))
        finally:
            sys.set_int_max_str_digits(previous)
        assert 4300 < denominator_digits < digits
        assert (code, out) == (2, "")
        assert err == (f"error: the exact total of candidate c0 has a {digits}-digit numerator, "
                       "over the 4300-digit limit of integer string conversion; "
                       "PYTHONINTMAXSTRDIGITS=0 lifts it\n")


def _seeded_nrv_file(groups, width, instance=""):
    """An nrv file at range 10^6 with scores uniform in [0, 10^6] and 1 to 9 voters a group."""
    rng = random.Random(0)
    rows = []
    for _ in range(groups):
        scores = " ".join(str(rng.randint(0, 10**6)) for _ in range(width))
        rows.append(f"{rng.randint(1, 9)} | {scores}\n")
    candidates = " ".join(f"c{i}" for i in range(width))
    return "".join([f"range: 1000000\nsystem: nrv\ncandidates: {candidates}\nballots:\n",
                    *rows, instance])


@pytest.fixture(scope="module")
def oversized_scale_path(tmp_path_factory):
    # 20,000 groups x 30 candidates: L has 135,980 bits, and the counted rows
    # would hold about 8 x 10^10 bits
    path = tmp_path_factory.mktemp("oversized") / "oversized-scale.txt"
    path.write_text(_seeded_nrv_file(20_000, 30, "action: delete-voters\ngoal: constructive\n"
                                                 "distinguished: c0\nlimit: 1\n"))
    return str(path)


@pytest.mark.parametrize("argv", [("tally", "--system", "nrv"), ("control", "--budget", "1")],
                         ids=["tally", "control"])
def test_an_oversized_nrv_scale_exits_2_before_building_rows(oversized_scale_path, argv):
    import resource

    def cap_address_space():  # building the rows could then only fail, never exhaust memory
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    src = str(Path(rangecontrol.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rangecontrol", *argv, oversized_scale_path],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: the nrv scale has 135980 bits: exact rows for 600000 scores "
               "would exceed 1073741824 bits\n")


_LONG = "x" * 5000


@pytest.mark.parametrize("command, text", [
    ("tally", f"range: 2\ncandidates: a\nballots:\n1 | {_LONG}\n"),
    ("tally", f"range: 2\ncandidates: a\n{_LONG}\n"),
    ("tally", f"system: {_LONG}\n"),
    ("tally", f"{_LONG}: 1\n"),
    ("tally", f"range: 2\ncandidates: a\nballots:\n1 | 1\naction: {_LONG}\n"),
    ("gadget", f"elements: b1\n{_LONG}\n"),
], ids=["score token", "stray line", "system value", "header key", "action value",
        "problem-file line"])
def test_a_long_rejected_value_is_clipped(tmp_path, command, text):
    path = tmp_path / "long.txt"
    path.write_text(text)
    if command == "tally":
        argv = ("tally", "--system", "rv", str(path))
    else:
        argv = ("gadget", "hs-candidates", str(path), "-o", str(tmp_path / "g.txt"))
    code, _, err = cli(*argv)
    assert code == 2 and err.startswith("error: line ") and len(err) < 200


class TestControl:
    def test_witness_output(self, destructive_add_path):
        code, out, _ = cli("control", "--witness", destructive_add_path)
        assert code == 0
        assert out.splitlines()[0] == "YES"
        assert "add: d" in out

    def test_budget_exhaustion_exit_code(self, destructive_add_path):
        code, out, _ = cli("control", "--budget", "1", destructive_add_path)
        assert code == 3 and out.splitlines()[0] == "BUDGET-EXCEEDED"

    def test_system_override(self, destructive_add_path):
        # under plain rv the spoiler cannot stop c (c=3,w=4,d=6 -> d wins;
        # destructive against c still succeeds), force rv and check
        code, out, _ = cli("control", "--system", "rv", destructive_add_path)
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_file_without_instance(self, shifty_path):
        code, _, err = cli("control", shifty_path)
        assert code == 2 and "instance" in err

    def test_negative_budget_is_a_usage_error(self, destructive_add_path):
        code, out, err = cli("control", "--budget", "-1", destructive_add_path)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "budget" in err

    def test_zero_budget_stays_valid(self, destructive_add_path):
        code, out, _ = cli("control", "--budget", "0", destructive_add_path)
        assert code == 3 and out == "BUDGET-EXCEEDED\nexplored: 0\n"

    def test_unbudgeted_search_above_the_space_limit_is_refused(
        self, wide_partition_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the search was started")

        monkeypatch.setattr(control, "solve", never)
        code, out, err = cli("control", wide_partition_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: search space of 1099511627776 actions exceeds")
        assert "--budget" in err

    def test_huge_voter_search_is_refused_before_it_is_counted(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the search was started")

        monkeypatch.setattr(control, "solve", never)
        path = tmp_path / "wide-delete.txt"
        path.write_text(WIDE_DELETE_FILE)
        start = time.perf_counter()
        code, out, err = cli("control", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: search space of at least ")
        assert "--budget" in err

    def test_a_space_too_long_to_print_is_refused_as_a_power_of_two(self, tmp_path):
        path = tmp_path / "huge-partition.txt"
        path.write_text(HUGE_PARTITION_FILE)
        code, out, err = cli("control", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: search space of at least 2^14950 actions exceeds")
        assert "--budget" in err

    @pytest.mark.parametrize("system, outcome", [
        ("rv", (True, (2, 0, 2), 21)),
        ("nrv", (False, None, 45)),
    ])
    def test_every_budget_matches_the_unpruned_reference(self, tmp_path, system, outcome):
        path = tmp_path / "halved-partition.txt"
        path.write_text(HALVED_PARTITION_FILE)
        instance = replace(parse_election(HALVED_PARTITION_FILE).instance, system=system)
        space = control.search_space(instance)
        assert space == 45
        for budget in range(space + 1):
            code, out, _ = cli("control", "--witness", "--system", system,
                               "--budget", str(budget), str(path))
            decision, witness, explored = reference_scan(instance, budget)
            if decision is None:
                expected = ["BUDGET-EXCEEDED"]
            elif decision:
                expected = ["YES", "first-group-counts: " + " ".join(map(str, witness))]
            else:
                expected = ["NO"]
            expected.append(f"explored: {explored}")
            assert (code, out.splitlines()) == (3 if decision is None else 0, expected), budget
        assert (decision, witness, explored) == outcome

    def test_budget_lifts_the_space_limit(self, wide_partition_path):
        code, out, _ = cli("control", "--budget", "10", wide_partition_path)
        assert code == 3 and out == "BUDGET-EXCEEDED\nexplored: 10\n"

    def test_byte_identical_across_runs_and_workers(self, destructive_add_path):
        outputs = set()
        for _ in range(5):
            for workers in ("1", "4"):
                outputs.add(cli("control", "--witness", "--workers", workers,
                                destructive_add_path))
        assert len(outputs) == 1


class TestOracle:
    def test_hs_yes(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2\nset: b1\nset: b1 b2\nk: 1\n")
        code, out, _ = cli("oracle", str(path))
        assert code == 0
        assert out == "YES\nwitness: b1\noptimum: 1\n"

    def test_hs_no(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2\nset: b1\nset: b2\nk: 1\n")
        code, out, _ = cli("oracle", str(path))
        assert code == 0 and out.splitlines()[0] == "NO"

    def test_x3c(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("elements: b1 b2 b3\nset: b1 b2 b3\n")
        code, out, _ = cli("oracle", str(path))
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_spaced_k_header_is_a_hitting_set(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2 b3\nset: b1 b2 b3\nset: b2\nk : 2\n")
        code, out, err = cli("oracle", str(path))
        assert (code, out, err) == (0, "YES\nwitness: b2\noptimum: 1\n", "")

    def test_repeated_k_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2\nset: b1\nset: b2\nk: 1\nk: 2\n")
        code, out, err = cli("oracle", str(path))
        assert (code, out, err) == (2, "", "error: line 5: duplicate k: line\n")

    def test_duplicate_element_warning_on_stderr(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2\nset: b1 b1\nk: 1\n")
        code, _, err = cli("oracle", str(path))
        assert code == 0 and "warning" in err

    def test_a_hitting_set_deeper_than_the_recursion_limit(self, tmp_path):
        # the search picks one element per level: 1,100 singletons need 1,100 levels
        names = [f"b{i + 1}" for i in range(1100)]
        path = tmp_path / "hs.txt"
        path.write_text(f"elements: {' '.join(names)}\n"
                        + "".join(f"set: {b}\n" for b in names) + "k: 1100\n")
        code, out, err = cli("oracle", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == ["YES", f"witness: {' '.join(names)}", "optimum: 1100"]

    @pytest.mark.parametrize("size, steps, space", [
        (30, (2, 3), "75394027566"),  # 60 triples, k = 10: C(60, 10)
        (300, (2,), "at least 2^271"),  # 300 triples, k = 100: C(300, 100) is 82 digits
    ])
    def test_an_exact_cover_search_above_the_space_limit_is_refused(
        self, tmp_path, monkeypatch, size, steps, space
    ):
        from rangecontrol import oracles

        def never(*args, **kwargs):
            raise AssertionError("the search was started")

        monkeypatch.setattr(oracles, "solve_x3c", never)
        names = [f"b{i + 1}" for i in range(size)]
        triples = [(names[i], names[(i + 1) % size], names[(i + step) % size])
                   for step in steps for i in range(size)]
        path = tmp_path / "x3c.txt"
        path.write_text(f"elements: {' '.join(names)}\n"
                        + "".join(f"set: {' '.join(t)}\n" for t in triples))
        code, out, err = cli("oracle", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: search space of {space} set combinations exceeds 100000000\n"


class TestGadget:
    def test_writes_solvable_instance_file(self, tmp_path):
        src = tmp_path / "hs.txt"
        src.write_text("elements: b1 b2\nset: b1\nset: b1 b2\nk: 1\n")
        out_path = tmp_path / "gadget.txt"
        code, out, _ = cli("gadget", "hs-candidates", str(src), "-o", str(out_path))
        assert code == 0 and "claim:" in out
        code2, out2, _ = cli("control", "--witness", str(out_path))
        assert code2 == 0 and out2.splitlines()[0] == "YES"

    def test_instance_selector(self, tmp_path):
        src = tmp_path / "hs.txt"
        src.write_text("elements: b1 b2\nset: b1\nset: b2\nk: 1\n")
        out_path = tmp_path / "g.txt"
        code, out, _ = cli("gadget", "hs-candidates", str(src), "-o", str(out_path),
                           "--instance", "2")
        assert code == 0
        assert "action: delete-candidates" in out_path.read_text()

    def test_instance_out_of_range(self, tmp_path):
        src = tmp_path / "hs.txt"
        src.write_text("elements: b1 b2\nset: b1\nset: b2\nk: 1\n")
        code, out, err = cli("gadget", "hs-candidates", str(src), "-o", str(tmp_path / "g.txt"),
                             "--instance", "5")
        assert (code, out, err) == (2, "", "error: --instance must be in [0, 2]\n")

    def test_duplicate_set_members_warn(self, tmp_path):
        src = tmp_path / "hs.txt"
        src.write_text("elements: b1 b2\nset: b1\nset: b2 b2\nk: 1\n")
        code, out, err = cli("gadget", "hs-candidates", str(src), "-o", str(tmp_path / "g.txt"))
        assert code == 0 and out.startswith("gadget: hs-candidates\n")
        assert err == "warning: line 3: duplicate elements within a set collapsed\n"

    def test_builds_through_the_harness_builder(self, tmp_path, monkeypatch):
        from rangecontrol import harness

        calls = []
        original = harness.gadget_hs_candidates
        monkeypatch.setattr(
            harness, "gadget_hs_candidates", lambda hs: calls.append(hs) or original(hs)
        )
        src = tmp_path / "hs.txt"
        src.write_text("elements: b1 b2\nset: b1\nset: b2\nk: 1\n")
        code, _, _ = cli("gadget", "hs-candidates", str(src), "-o", str(tmp_path / "g.txt"))
        assert code == 0 and len(calls) == 1

    def test_x3c_gadget_writes_its_partition_instance(self, tmp_path):
        src = tmp_path / "x3c.txt"
        src.write_text("elements: b1 b2 b3\nset: b1 b2 b3\n")
        out_path = tmp_path / "g.txt"
        code, out, _ = cli("gadget", "x3c-voter-partition-te", str(src), "-o", str(out_path))
        assert code == 0
        assert out.startswith("gadget: x3c-voter-partition-te\n")
        assert out_path.read_text().endswith(
            "action: partition-voters\ngoal: destructive\nties: eliminate\ndistinguished: w\n"
        )

    def test_deletion_gadget_needs_instance_section(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text(SHIFTY_FILE)
        code, _, err = cli("gadget", "deletion-to-candidate-partition", str(src),
                           "-o", str(tmp_path / "out.txt"))
        assert code == 2 and "delete-candidates" in err

    def test_deletion_gadget_from_instance_file(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text(
            "range: 2\nsystem: nrv\ncandidates: w x y\nballots:\n2 | 1 2 0\n1 | 2 0 0\n"
            "action: delete-candidates\ngoal: constructive\ndistinguished: w\nlimit: 1\n"
        )
        out_path = tmp_path / "g.txt"
        code, out, _ = cli("gadget", "deletion-to-candidate-partition", str(src),
                           "-o", str(out_path))
        assert code == 0 and "wrote:" in out


class TestVerify:
    def test_report_file_deterministic(self, tmp_path):
        args = ("verify", "--gadget", "hs-candidates",
                "--exhaustive", "n<=3,m=2..3,k<=2", "--seed", "7")
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        code1, out1, _ = cli(*args, "-o", str(r1))
        code2, out2, _ = cli(*args, "-o", str(r2))
        assert code1 == code2 == 0
        assert "agreement: true" in out1
        assert r1.read_bytes() == r2.read_bytes()

    def test_jsonl_format(self, tmp_path):
        path = tmp_path / "r.jsonl"
        code, _, _ = cli("verify", "--gadget", "hs-delete-constructive",
                         "--exhaustive", "n<=2,m<=2,k=1", "--format", "jsonl",
                         "-o", str(path))
        assert code == 0
        import json

        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert "summary" in rows[-1]

    def test_stdout_when_no_output_file(self):
        code, out, _ = cli("verify", "--gadget", "x3c-voter-partition-te",
                           "--exhaustive", "k=1,s<=2")
        assert code == 0 and "# gadget audit report" in out

    def test_bad_bounds(self):
        code, _, err = cli("verify", "--gadget", "hs-candidates",
                           "--exhaustive", "q<=4")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("bound", ["q", "n<=", "n=..3"])
    def test_an_unparsable_bound_is_named(self, bound):
        code, out, err = cli("verify", "--gadget", "hs-candidates", "--exhaustive", bound)
        assert (code, out, err) == (2, "", f"error: cannot parse bound {bound!r}\n")

    @pytest.mark.parametrize("args", [
        ("--exhaustive", "n=3..1"),
        ("--exhaustive", "n<=0"),
        ("--random", "-3"),
        ("--exhaustive", "n<=2", "--budget", "-2"),
    ], ids=["reversed-range", "empty-upper-bound", "negative-trials", "negative-budget"])
    def test_bad_numbers_are_usage_errors(self, args):
        code, out, err = cli("verify", "--gadget", "hs-candidates", *args)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_zero_budget_stays_valid(self):
        code, out, _ = cli("verify", "--gadget", "x3c-voter-partition-te",
                           "--exhaustive", "k=1,s<=2", "--budget", "0")
        assert code == 0 and "budget-exceeded: 0 1" in out

    def test_an_x3c_sweep_beyond_the_orbit_table_is_refused(self, monkeypatch):
        # k=4 needs a 12! orbit table of about 11.5 GB: refuse before building any
        from rangecontrol import harness

        least_of_orbit = harness._least_of_orbit

        def bounded(n):
            assert n <= 9, f"built a {n}! orbit table"
            return least_of_orbit(n)

        monkeypatch.setattr(harness, "_least_of_orbit", bounded)
        code, out, err = cli("verify", "--gadget", "x3c-voter-partition-te",
                             "--exhaustive", "k=4,s=4")
        assert (code, out) == (2, "")
        assert err.startswith("error: isomorph-free exact-cover sweeps take k <= 3")

    def test_random_samples_within_bounds(self):
        # the restricted hitting sets of this gadget need n >= 6, above the default n<=3
        code, out, err = cli("verify", "--gadget", "rhs-voter-partition-tp", "--random", "2",
                             "--bounds", "n=6..7,m<=2,k=1", "--seed", "3")
        assert (code, err) == (0, "")
        assert "n: 6..7\nm: 1..2\nk: 1..1\n" in out
        assert "instances: 2\nagreement: true\n" in out

    @pytest.mark.parametrize("seed", range(4))
    def test_random_redraws_an_n_below_the_k_lower_bound(self, seed):
        # n = 2 leaves k = 3 no room, so such a draw is redrawn rather than failing
        code, out, err = cli("verify", "--gadget", "hs-candidates", "--random", "5",
                             "--bounds", "n=2..5,k=3", "--seed", str(seed))
        assert (code, err) == (0, "")
        assert "instances: 5\n" in out

    @pytest.mark.parametrize("seed", range(3))
    def test_random_redraws_an_x3c_draw_that_cannot_cover(self, seed):
        # 4 random triples almost never cover 12 elements, so unplanted draws fail
        code, out, err = cli("verify", "--gadget", "x3c-voter-partition-te", "--random", "4",
                             "--bounds", "k=4,s=4", "--seed", str(seed), "--budget", "10")
        assert (code, err) == (0, "")
        assert "instances: 4\n" in out

    @pytest.mark.parametrize("args", [
        ("--random", "2", "--bounds", "q<=4"),
        ("--random", "2", "--bounds", "n=3..1"),
        ("--exhaustive", "n<=2", "--bounds", "n=2"),
    ], ids=["unknown-variable", "reversed-range", "with-exhaustive"])
    def test_bad_random_bounds_are_usage_errors(self, args):
        code, out, err = cli("verify", "--gadget", "hs-candidates", *args)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestTableAndUsage:
    def test_table_lists_systems(self):
        code, out, _ = cli("table")
        assert code == 0
        assert "NRV" in out and "Partition of voters" in out
        assert "static metadata" in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(rangecontrol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "rangecontrol", "table"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == cli("table")[1]

    def test_usage_error(self):
        code, _, _ = cli("tally")  # missing required args
        assert code == 2

    def test_missing_file(self):
        code, _, err = cli("tally", "--system", "rv", "/nonexistent/e.txt")
        assert code == 2


def _parsed(parse, argv):
    """``parse(argv)``'s Namespace or exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParse:
    @pytest.mark.parametrize("argv", [
        ["tally", "--system", "nrv", "e.txt"],
        ["control", "e.txt"],
        ["control", "--witness", "--budget", "5", "--system", "rv", "--workers", "2", "e.txt"],
        ["gadget", "hs-candidates", "hs.txt", "-o", "g.txt", "--instance", "1"],
        ["oracle", "hs.txt"],
        ["verify", "--gadget", "hs-candidates", "--exhaustive", "n<=3"],
        ["verify", "--gadget", "x3c-voter-partition-te", "--random", "4", "--bounds", "k=2",
         "--seed", "3", "--budget", "9", "--all-instances", "--format", "jsonl", "-o", "r"],
        ["table"],
        ["-h"], ["--help"], ["control", "-h"], ["tally", "--help"], ["gadget", "-h"],
        ["oracle", "-h"], ["verify", "-h"], ["table", "-h"],
        [], ["bogus"], ["bogus", "x"], ["-x", "control", "e.txt"],
        ["control", "a", "b"], ["table", "extra"], ["tally", "--system", "rv", "e.txt", "--x"],
        ["tally"], ["tally", "e.txt"], ["gadget", "hs-candidates", "hs.txt"], ["control"],
        ["control", "--system", "approval", "e.txt"],
        ["control", "--budget", "x", "e.txt"], ["verify", "--gadget", "hs-candidates"],
        ["verify", "--gadget", "hs-candidates", "--exhaustive", "n<=2", "--random", "3"],
        ["control", "--", "-x"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_parses_and_fails_as_the_full_tree(self, argv):
        expected = _parsed(_build_parser().parse_args, argv)
        assert _parsed(_parse, argv) == expected

    @pytest.mark.parametrize("argv", [
        ["tally"], ["bogus"], ["control", "a", "b"], ["-h"], ["control", "-h"],
    ], ids=" ".join)
    def test_run_cli_prints_help_and_usage_errors_to_its_streams(self, argv, capsys):
        expected = _parsed(_build_parser().parse_args, argv)
        assert cli(*argv) == expected
        assert expected[1] or expected[2]
        assert capsys.readouterr() == ("", "")

    def test_control_loads_no_audit_module(self, destructive_add_path):
        src = str(Path(rangecontrol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rangecontrol", "control",
             destructive_add_path], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, cli("control", destructive_add_path)[1])
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "rangecontrol.control" in imported
        assert not imported & {"rangecontrol.harness", "rangecontrol.oracles", "rangecontrol.gadgets"}
        lazy = ("import sys, rangecontrol\n"
                "assert 'rangecontrol.gadgets' not in sys.modules\n"
                "from rangecontrol import X3CInstance\n"
                "assert 'rangecontrol.harness' not in sys.modules\n"
                "from rangecontrol import AuditSpec, solve_x3c\n"
                "print(X3CInstance.__module__, AuditSpec.__module__, solve_x3c.__module__)\n")
        proc = subprocess.run([sys.executable, "-c", lazy],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (
            0, "rangecontrol.gadgets rangecontrol.harness rangecontrol.oracles\n")
