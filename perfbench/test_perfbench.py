"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a source checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import collections
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def scratch_dir():
    """A temporary directory inside the checkout's work directory."""
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def span(name, start, end, parent=-1):
    return [name, start, end, parent, "op"]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        recorded = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 3.0, parent=0),
            span("c", 4.0, 8.0, parent=0),
            span("d", 5.0, 6.0, parent=2),
        ]
        self.assertEqual(spans.self_times(recorded), [4.0, 2.0, 3.0, 1.0])

    def test_recorder_nests_spans(self):
        rec = spans.Recorder()
        inner = rec.wrap("inner", lambda x: x + 1, count="inner_calls")
        self.assertEqual(rec.span("outer", lambda: inner(1) + inner(2)), 5)
        self.assertEqual([s[0] for s in rec.spans], ["outer", "inner", "inner"])
        self.assertEqual([s[3] for s in rec.spans], [-1, 0, 0])
        self.assertEqual(rec.counts["inner_calls"], 2)
        own = spans.self_times(rec.spans)
        outer = rec.spans[0][2] - rec.spans[0][1]
        children = sum(s[2] - s[1] for s in rec.spans[1:])
        self.assertAlmostEqual(own[0], outer - children)


class LayerMetricsTest(unittest.TestCase):
    def test_ratios_are_taken_over_the_summed_operations(self):
        first = {"control.explored": 10, "control.tallies_in_solve": 5, "records": 1,
                 "gadgets.build_calls": 2, "control.solve/add-voters_s": 0.5}
        second = {"control.explored": 30, "control.tallies_in_solve": 35, "records": 3,
                  "gadgets.build_calls": 6}
        totals = collections.Counter(first)
        totals.update(second)
        metrics = spans.layer_metrics(totals, workloads.FAMILIES)
        self.assertEqual(metrics["control.tallies_per_action"], 1.0)
        self.assertEqual(metrics["gadgets.builds_per_record"], 2.0)
        self.assertEqual(metrics["control.solve_s.add-voters"], 0.5)
        self.assertEqual(metrics["fileio.parse_calls"], 0)


class ChildTest(unittest.TestCase):
    def test_one_wrong_digest_is_one_failure(self):
        with open(run.EXPECTED, encoding="utf-8") as handle:
            pinned = json.load(handle)
        seed = pinned["spec_seeds"]["audit-hs"][0]
        outputs = pinned["outputs"]["audit-hs"]["0"]
        self.assertEqual(sorted(outputs), ["c05-exhaustive", "c05-random"])
        outputs["c05-exhaustive"]["sha256"] = "0" * 64
        with scratch_dir() as tmp:
            path = os.path.join(tmp, "expected.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(pinned, handle)
            result = run.run_pass("audit-hs", sorted(outputs), 0, seed, 0,
                                  expected=path, work=tmp)
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(list(result["failures"]), ["c05-exhaustive"])

    def test_traced_child_makes_its_work_directory(self):
        with open(run.EXPECTED, encoding="utf-8") as handle:
            seed = json.load(handle)["spec_seeds"]["audit-hs"][0]
        with scratch_dir() as tmp:
            work = os.path.join(tmp, "not-yet-made")
            result = run.run_op("audit-hs", "c05-exhaustive", 0, seed, 1, work=work)
            self.assertEqual(result["failures"], {})
            self.assertGreater(result["totals"]["elections.tally_calls"], 0)
            self.assertTrue(os.path.isfile(
                os.path.join(work, "spans-audit-hs-c05-exhaustive.tsv")))

    def test_pinned_yes_with_a_bad_witness_fails(self):
        bad = {"exit": 0, "stdout": "YES\nfirst-group: c1\nexplored: 449\n"}
        op = "partition-candidates-rv"
        with scratch_dir() as tmp:
            path = workloads.write_control_file(0, op, tmp)
            failures = workloads.check({op: bad}, {op: bad}, {op: path})
        self.assertEqual(failures, {op: "witness does not replay"})


if __name__ == "__main__":
    unittest.main()
