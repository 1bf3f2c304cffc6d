"""Command-line behavior: outputs, exit codes, determinism."""

import io

import pytest

from rangecontrol.cli import run_cli

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

    def test_duplicate_element_warning_on_stderr(self, tmp_path):
        path = tmp_path / "hs.txt"
        path.write_text("elements: b1 b2\nset: b1 b1\nk: 1\n")
        code, _, err = cli("oracle", str(path))
        assert code == 0 and "warning" in err


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


class TestTableAndUsage:
    def test_table_lists_systems(self):
        code, out, _ = cli("table")
        assert code == 0
        assert "NRV" in out and "Partition of voters" in out
        assert "static metadata" in out

    def test_usage_error(self):
        code, _, _ = cli("tally")  # missing required args
        assert code == 2

    def test_missing_file(self):
        code, _, err = cli("tally", "--system", "rv", "/nonexistent/e.txt")
        assert code == 2
