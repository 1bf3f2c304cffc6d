"""Generators, audits, report determinism, and counterexample replay."""

import ast
import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from rangecontrol import harness
from rangecontrol.control import CONSTRUCTIVE, DELETE_CANDIDATES, ControlInstance
from rangecontrol.elections import NRV, RV, Election
from rangecontrol.gadgets import GadgetError, HittingSetInstance, ScoreIdentity, X3CInstance
from rangecontrol.harness import (
    DEFAULT_CHECKS,
    GADGET_NAMES,
    AuditSpec,
    audit_gadget,
    decode_deletion_source,
    decode_hs,
    decode_x3c,
    encode_deletion_source,
    encode_hs,
    encode_x3c,
    exhaustive_hs_instances,
    exhaustive_x3c_instances,
    gen_random_control_instance,
    gen_random_election,
    gen_random_hs,
    gen_random_x3c,
    render_jsonl,
    render_text,
    replay_instance,
)
from rangecontrol.oracles import solve_x3c

from helpers import (
    _permuted_families,
    canonical_family,
    family_masks,
    reference_hs_instances,
    reference_x3c_instances,
)


class TestGenerators:
    def test_hs_deterministic(self):
        assert gen_random_hs(4, 2, 1, seed=1) == gen_random_hs(4, 2, 1, seed=1)

    def test_hs_small_universe_sample_space(self):
        inst = gen_random_hs(2, 5, 1, seed=9)
        assert inst.m == 5  # duplicates allowed
        assert all(set(s) <= {"b1", "b2"} for s in inst.sets)

    def test_x3c_planted_has_cover(self):
        inst = gen_random_x3c(2, 3, seed=4, planted=True)
        assert solve_x3c(inst).decision is True

    def test_x3c_unplanted_still_valid(self):
        inst = gen_random_x3c(2, 4, seed=4, planted=False)
        assert len(inst.elements) == 6 and len(inst.sets) == 4

    def test_x3c_single_planted_is_whole_universe(self):
        inst = gen_random_x3c(1, 1, seed=0, planted=True)
        assert inst.sets == (inst.elements,)

    @pytest.mark.parametrize("generate, build", [
        (lambda: gen_random_hs(2, 1, 3, seed=0), lambda: HittingSetInstance(("b1", "b2"), (("b1",),), 3)),
        (lambda: gen_random_hs(2, 1, 0, seed=0), lambda: HittingSetInstance(("b1", "b2"), (("b1",),), 0)),
        (lambda: gen_random_x3c(2, 1, seed=0, planted=True),
         lambda: X3CInstance(("b1", "b2", "b3", "b4", "b5", "b6"), (("b1", "b2", "b3"),))),
        (lambda: gen_random_x3c(2, 1, seed=0, planted=False),
         lambda: X3CInstance(("b1", "b2", "b3", "b4", "b5", "b6"), (("b1", "b2", "b3"),))),
    ], ids=["hs k above n", "hs k of 0", "x3c planted, fewer sets than k", "x3c unplanted, fewer sets than k"])
    def test_a_bad_size_raises_the_constructors_message(self, generate, build):
        # the generators state no size rule of their own
        with pytest.raises(GadgetError) as expected:
            build()
        with pytest.raises(GadgetError) as got:
            generate()
        assert str(got.value) == str(expected.value)

    def test_x3c_deterministic(self):
        assert gen_random_x3c(2, 3, seed=7) == gen_random_x3c(2, 3, seed=7)

    def test_election_deterministic(self):
        assert gen_random_election(42) == gen_random_election(42)

    def test_control_instance_deterministic_and_bounded(self):
        from rangecontrol.control import search_space

        a = gen_random_control_instance(17)
        b = gen_random_control_instance(17)
        assert a == b
        assert search_space(a) <= 30000


class TestExhaustiveEnumeration:
    def test_each_instance_once(self):
        seen = list(exhaustive_hs_instances((1, 3), (1, 2), (1, 1)))
        assert len(seen) == len(set(seen))

    def test_isomorphism_dedup_shrinks(self):
        iso = list(exhaustive_hs_instances((3, 3), (2, 2), (1, 1)))
        raw = list(exhaustive_hs_instances((3, 3), (2, 2), (1, 1), isomorphism_free=False))
        assert len(iso) < len(raw)
        # canonical representative of every raw family is in the deduped list
        assert {i.k for i in iso} == {1}
        kept = {(family_masks(i.universe, i.sets), i.k) for i in iso}
        assert kept == {
            (canonical_family(family_masks(r.universe, r.sets), r.n), r.k) for r in raw
        }

    @staticmethod
    def random_families(n):
        """Seeded random sorted families of nonempty masks: m = 1..4, and at
        n=6 also families of 3-element masks as the exact-cover sweep makes."""
        rng = random.Random(n)
        for m in range(1, 5):
            for _ in range(3):
                yield tuple(sorted(rng.randrange(1, 1 << n) for _ in range(m)))
        if n == 6:
            triples = [sum(1 << i for i in t) for t in itertools.combinations(range(6), 3)]
            for m in range(2, 6):
                yield tuple(sorted(rng.choice(triples) for _ in range(m)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_least_of_orbit_matches_canonical_family(self, n):
        for family in self.random_families(n):
            canon = canonical_family(family, n)
            is_least = harness._least_of_orbit(n)
            assert is_least(family) == (family == canon)
            # later orbit members are answered from the memo
            for member in set(_permuted_families(family, n)) - {family}:
                assert is_least(member) == (member == canon)

    def test_least_of_orbit_memory_is_bounded(self):
        # the n=8 table holds 8 * 8! 2-byte entries, about 0.65 MB; keeping
        # the images of the 98 masks asked about below as lists of ints
        # would add about 32 MB, and as 2-byte arrays about 8 MB
        def all_subsets(size):
            return tuple(sorted(sum(1 << i for i in c)
                                for c in itertools.combinations(range(8), size)))

        tracemalloc.start()
        try:
            is_least = harness._least_of_orbit(8)
            assert is_least(all_subsets(2)) and is_least(all_subsets(4))  # their own orbits
            assert not is_least((35, 146, 206, 217))  # an orbit of 8!/2 families
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @staticmethod
    def two_set_classes(n):
        """Classes of two nonempty sets A, B over n elements, by Burnside: the
        compositions (in A only, in B only, in both, in neither) of n with A
        and B nonempty, plus those that swapping A and B fixes, halved."""
        count = fixed = 0
        for a_only, b_only, both in itertools.product(range(n + 1), repeat=3):
            if a_only + b_only + both <= n and a_only + both and b_only + both:
                count += 1
                fixed += a_only == b_only
        return (count + fixed) // 2

    def test_two_set_class_counts_match_the_closed_form(self):
        counts = [self.two_set_classes(n) for n in range(1, 10)]
        assert counts == [1, 4, 9, 17, 28, 43, 62, 86, 115]
        assert counts == [
            len(list(exhaustive_hs_instances((n, n), (2, 2), (1, 1)))) for n in range(1, 10)
        ]

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 2), (7, 3)])
    def test_generated_classes_match_the_orbit_filter(self, n, m):
        is_least = harness._least_of_orbit(n)
        kept = [family for family in itertools.combinations_with_replacement(range(1, 1 << n), m)
                if is_least(family)]
        assert harness._least_hs_families(n, m) == kept

    def test_hs_sweep_memory_is_bounded_at_n8(self):
        # the n=8 orbit table alone is 0.65 MB, and its memo held tens of MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in exhaustive_hs_instances((8, 8), (3, 3), (1, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1229
        assert peak < 2**20

    def test_x3c_builds_one_orbit_table_per_k(self, monkeypatch):
        built = []
        least_of_orbit = harness._least_of_orbit
        monkeypatch.setattr(harness, "_least_of_orbit",
                            lambda n: built.append(n) or least_of_orbit(n))
        assert len(list(exhaustive_x3c_instances((1, 2), (1, 5)))) == 120
        assert built == [3, 6]

    def test_x3c_k1_families(self):
        insts = list(exhaustive_x3c_instances((1, 1), (1, 2)))
        assert [len(i.sets) for i in insts] == [1, 2]
        assert all(i.elements == ("b1", "b2", "b3") for i in insts)

    @pytest.mark.parametrize("n, m", [((1, 5), (1, 3)), ((6, 6), (1, 2))])
    def test_hs_matches_reference(self, n, m):
        got = list(exhaustive_hs_instances(n, m, (1, 2)))
        assert got == list(reference_hs_instances(n, m, (1, 2)))

    def test_x3c_matches_reference(self):
        # families come in triple order, which is not mask order; four sets
        # are the fewest at which that difference changes the output
        got = list(exhaustive_x3c_instances((1, 2), (1, 4)))
        assert got == list(reference_x3c_instances((1, 2), (1, 4)))

    def test_order_is_by_size_then_family(self):
        insts = list(exhaustive_hs_instances((1, 2), (1, 1), (1, 1)))
        ns = [i.n for i in insts]
        assert ns == sorted(ns)


class TestEncodings:
    def test_hs_round_trip(self):
        inst = HittingSetInstance(("b1", "b2", "b3"), (("b1", "b3"), ("b2",)), 2)
        assert decode_hs(encode_hs(inst)) == inst

    def test_x3c_round_trip(self):
        inst = X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))
        assert decode_x3c(encode_x3c(inst)) == inst

    def test_deletion_source_round_trip(self):
        e = gen_random_election(3, k=2)
        inst = ControlInstance(base=e, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                               system=NRV, distinguished=e.candidates[0], limit=2)
        text = encode_deletion_source(inst)
        assert text.startswith(f"del-src k=2 cands={','.join(e.candidates)} ballots=")
        assert text.endswith(f" w={e.candidates[0]} limit=2")
        assert decode_deletion_source(text) == inst

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            decode_hs("x3c B=b1 S=b1")

    @pytest.mark.parametrize("gadget, encoding, tag, field", [
        ("hs-candidates", "hs k=1 B=b1", "hs", "S"),
        ("x3c-voter-partition-te", "x3c S=b1,b2,b3", "x3c", "B"),
        ("deletion-to-candidate-partition", "del-src k=2 cands=a,w ballots=1|2.0 w=w",
         "del-src", "limit"),
    ], ids=["hs", "x3c", "del-src"])
    def test_a_missing_field_is_named(self, gadget, encoding, tag, field):
        with pytest.raises(ValueError, match=f"^'{tag}' encoding lacks the field '{field}'"):
            replay_instance(gadget, encoding)

    @pytest.mark.parametrize("gadget, encoding, tag, field", [
        ("hs-candidates", "hs k=x B=b1 S=b1", "hs", "k"),
        ("deletion-to-candidate-partition", "del-src k=2 cands=a,w ballots=1 w=w limit=1",
         "del-src", "ballots"),
        ("deletion-to-candidate-partition", "del-src k=2 cands=a,w ballots=1|2.x w=w limit=1",
         "del-src", "ballots"),
        ("deletion-to-candidate-partition", "del-src k=2 cands=a,w ballots=1|2.0 w=w limit=",
         "del-src", "limit"),
    ], ids=["hs-k", "del-src-no-bar", "del-src-score", "del-src-limit"])
    def test_a_malformed_field_is_named(self, gadget, encoding, tag, field):
        with pytest.raises(ValueError, match=f"^'{tag}' encoding has a malformed field '{field}'"):
            replay_instance(gadget, encoding)


class TestAudits:
    def test_hs_candidates_sweep_agrees(self):
        spec = AuditSpec(gadget="hs-candidates", n=(1, 3), m=(2, 3), k=(1, 2))
        report = audit_gadget(spec)
        assert report.agreement is True
        assert not report.identity_failures
        assert len(report.records) > 10

    def test_delete_constructive_sweep_has_counterexamples(self):
        spec = AuditSpec(gadget="hs-delete-constructive", n=(1, 3), m=(1, 2), k=(1, 1))
        report = audit_gadget(spec)
        assert report.agreement is False
        encodings = [report.records[i].encoding for i in report.counterexamples]
        assert "hs k=1 B=b1,b2 S=b1;b2" in encodings

    def test_counterexamples_replay_identically(self):
        spec = AuditSpec(gadget="hs-delete-constructive", n=(1, 3), m=(1, 2), k=(1, 1))
        report = audit_gadget(spec)
        for idx in report.counterexamples:
            rec = report.records[idx]
            again = replay_instance(spec.gadget, rec.encoding, spec.budget)
            assert (again.oracle, again.solver, again.status) == (
                rec.oracle, rec.solver, rec.status
            )

    def test_x3c_records_replay_identically(self):
        report = audit_gadget(AuditSpec(gadget="x3c-voter-partition-te", k=(1, 1), sets=(1, 2)))
        assert report.records
        for rec in report.records:
            again = replay_instance("x3c-voter-partition-te", rec.encoding)
            assert again == dataclasses.replace(rec, index=0)

    def test_a_short_hitting_set_is_padded_to_k(self):
        # the oracle's witness is {b1}; the stated totals need |B'| = k = 2
        rec = replay_instance("hs-delete-constructive", "hs k=2 B=b1,b2,b3 S=b1;b1,b2")
        assert rec.oracle_witness == "b1"
        assert [i.label for i in rec.identities] == [
            "b1 in ({w}+B',V)", "b2 in ({w}+B',V)", "w in ({w}+B',V)",
        ]

    def test_tp_audit_all_pass(self):
        spec = AuditSpec(gadget="rhs-voter-partition-tp", n=(6, 6), m=(1, 1),
                         k=(1, 1), isomorphism_free=False)
        report = audit_gadget(spec)
        assert len(report.records) == 63
        assert report.agreement is True and not report.identity_failures
        assert all("one-direction" in " ".join(r.notes) for r in report.records)

    def test_x3c_exhaustive_k1(self):
        spec = AuditSpec(gadget="x3c-voter-partition-te", k=(1, 1), sets=(1, 2))
        report = audit_gadget(spec)
        assert report.agreement is True
        assert all("final-round" in " ".join(r.notes) for r in report.records)

    def test_budget_exceeded_kept_out_of_agreement(self):
        spec = AuditSpec(gadget="x3c-voter-partition-te", k=(1, 1), sets=(1, 2), budget=2)
        report = audit_gadget(spec)
        assert report.budget_exceeded
        assert report.agreement is True  # no disagreement, only unfinished work

    @pytest.mark.parametrize("gadget", GADGET_NAMES)
    def test_checks_are_the_gadgets_own(self, gadget):
        spec = AuditSpec(gadget=gadget)
        assert spec.checks == DEFAULT_CHECKS[gadget]
        assert dataclasses.replace(spec, budget=1).checks == DEFAULT_CHECKS[gadget]
        with pytest.raises(TypeError):
            AuditSpec(gadget=gadget, checks=DEFAULT_CHECKS[gadget])

    @pytest.mark.parametrize("field", [{"budget": -1}, {"trials": -1}])
    def test_negative_budget_or_trials_rejected(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            AuditSpec(gadget="hs-candidates", mode="random", **field)

    def test_each_gadget_is_built_once(self, monkeypatch):
        # the audit looks the builder up at call time, so a rebound name sees
        # every build; an accepted source is built once, not again to audit it.
        # One worker: a forked worker's builds are not seen by this process.
        import rangecontrol.harness as harness

        monkeypatch.setattr(harness, "_worker_count", lambda positions: 1)
        built = []
        build = harness.gadget_hs_candidates
        monkeypatch.setattr(harness, "gadget_hs_candidates",
                            lambda hs: built.append(encode_hs(hs)) or build(hs))
        report = audit_gadget(AuditSpec(gadget="hs-candidates", n=(1, 3), m=(1, 2)))
        assert len(built) == len(set(built))
        assert {r.encoding for r in report.records} <= set(built)
        assert len(report.records) < len(built)  # rejected sources were tried too

    def test_deletion_gadget_requires_random_mode(self):
        with pytest.raises(ValueError):
            audit_gadget(AuditSpec(gadget="deletion-to-candidate-partition"))

    def test_deletion_gadget_random_records_status(self):
        spec = AuditSpec(gadget="deletion-to-candidate-partition", mode="random",
                         trials=6, seed=5)
        report = audit_gadget(spec)
        assert len(report.records) == 6
        for rec in report.records:
            assert rec.status in ("agree", "disagree")
            assert rec.encoding.startswith("del-src ")


# every gadget's spec shape, each split over 1, 2 and 3 workers
STRIPED_SPECS = {
    "hs-exhaustive": AuditSpec(gadget="hs-candidates", n=(1, 3), m=(2, 3), k=(1, 2)),
    "x3c-random-with-no": AuditSpec(gadget="x3c-voter-partition-te", mode="random",
                                    k=(2, 2), sets=(2, 3), trials=4, seed=0),
    "x3c-exhaustive-k2": AuditSpec(gadget="x3c-voter-partition-te", k=(1, 2), sets=(1, 3)),
    "deletion-random": AuditSpec(gadget="deletion-to-candidate-partition", mode="random",
                                 trials=6, seed=5),
    "rhs-one-direction": AuditSpec(gadget="rhs-voter-partition-tp", mode="random", n=(6, 8),
                                   m=(1, 2), trials=3, seed=6),
    "budget-1": AuditSpec(gadget="deletion-to-candidate-partition", mode="random", trials=6,
                          seed=5, budget=1),
    "no-trials": AuditSpec(gadget="hs-candidates", mode="random", trials=0),
}


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestStripedAudits:
    @pytest.mark.parametrize("spec", STRIPED_SPECS.values(), ids=list(STRIPED_SPECS))
    def test_the_bytes_do_not_depend_on_the_worker_count(self, spec, monkeypatch):
        reports = []
        for width in (1, 2, 3):
            monkeypatch.setattr(harness, "_worker_count", lambda positions: width)
            report = audit_gadget(spec)
            reports.append((render_text(report), render_jsonl(report)))
        assert reports[1:] == reports[:1] * 2
        assert no_child_is_left()

    def test_the_spec_shapes_reach_each_branch(self):
        statuses = {r.status for spec in STRIPED_SPECS.values()
                    for r in audit_gadget(spec).records}
        oracles = {r.oracle for r in audit_gadget(STRIPED_SPECS["x3c-random-with-no"]).records}
        assert {"agree", "disagree", "budget-exceeded"} <= statuses and "no" in oracles
        assert not audit_gadget(STRIPED_SPECS["no-trials"]).records

    def test_one_worker_per_cpu_with_the_least_share_each(self, monkeypatch):
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        share = harness._LEAST_SHARE
        positions = (0, share - 1, share, 2 * share - 1, 2 * share, 3 * share, 10 * share)
        assert [harness._worker_count(p) for p in positions] == [1, 1, 1, 1, 2, 3, 3]

    @pytest.mark.parametrize("mode", ("random", "exhaustive"))
    def test_an_audit_forks_once_each_process_has_its_least_share(self, mode, monkeypatch):
        # the shape of the audit decides the split: positions are counted
        # before any fork, trials in random mode and the swept stream otherwise
        fork = os.fork
        forks = []
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        share = harness._LEAST_SHARE
        if mode == "random":
            small, large = (AuditSpec(gadget="hs-candidates", mode="random", trials=trials)
                            for trials in (2 * share - 1, 2 * share))
        else:
            small, large = (AuditSpec(gadget="hs-delete-constructive", n=(6, 6), m=(2, 2),
                                      k=(1, k)) for k in (2, 3))
            assert len(list(harness._stream(small))) < 2 * share
            assert len(list(harness._stream(large))) >= 2 * share
        one_process = audit_gadget(small)
        assert not forks
        split = audit_gadget(large)
        assert len(forks) == 1 and no_child_is_left()
        monkeypatch.setattr(harness, "_worker_count", lambda positions: 1)
        for report in (one_process, split):
            assert render_jsonl(report) == render_jsonl(audit_gadget(report.spec))

    @pytest.mark.parametrize("first", range(6, 12))
    @pytest.mark.parametrize("width", (1, 2, 3))
    def test_the_lowest_failing_position_is_raised(self, first, width, monkeypatch):
        # every source from position `first` on raises, in this process's stripe
        # and in the workers': the audit raises the one-worker audit's exception
        spec = STRIPED_SPECS["hs-exhaustive"]
        swept = list(exhaustive_hs_instances(spec.n, spec.m, spec.k))
        failing = {encode_hs(hs) for hs in swept[first:]}
        build = harness.gadget_hs_candidates

        def builder(hs):
            if encode_hs(hs) in failing:
                raise RuntimeError(f"cannot build {encode_hs(hs)}")
            return build(hs)

        monkeypatch.setattr(harness, "gadget_hs_candidates", builder)
        monkeypatch.setattr(harness, "_worker_count", lambda positions: width)
        with pytest.raises(RuntimeError) as raised:
            audit_gadget(spec)
        assert str(raised.value) == f"cannot build {encode_hs(swept[first])}"
        assert no_child_is_left()

    def test_a_worker_that_dies_is_an_error_not_a_shorter_report(self, monkeypatch):
        parent = os.getpid()
        build = harness.gadget_hs_candidates

        def builder(hs):
            if os.getpid() != parent:
                os._exit(3)
            return build(hs)

        monkeypatch.setattr(harness, "gadget_hs_candidates", builder)
        monkeypatch.setattr(harness, "_worker_count", lambda positions: 3)
        with pytest.raises(RuntimeError, match="audit worker ended with wait status"):
            audit_gadget(STRIPED_SPECS["hs-exhaustive"])
        assert no_child_is_left()

    def test_output_buffered_before_the_audit_is_written_once(self):
        script = (
            "import sys\n"
            "from rangecontrol import harness\n"
            "harness._worker_count = lambda positions: 3\n"
            "sys.stdout.write('before ')\n"
            "spec = harness.AuditSpec(gadget='hs-candidates', n=(1, 3), m=(2, 3), k=(1, 2))\n"
            "print(len(harness.audit_gadget(spec).records))\n"
        )
        src = str(Path(harness.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        records = len(audit_gadget(STRIPED_SPECS["hs-exhaustive"]).records)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"before {records}\n", "")


# a small source family per gadget, in the audit's own order
IDENTITY_SPECS = {
    "hs-candidates": AuditSpec(gadget="hs-candidates", n=(1, 3), m=(2, 3), k=(1, 2)),
    "hs-delete-constructive": AuditSpec(gadget="hs-delete-constructive", n=(1, 3), m=(1, 2)),
    "rhs-voter-partition-tp": AuditSpec(gadget="rhs-voter-partition-tp", n=(6, 6), m=(1, 1),
                                        isomorphism_free=False),
    "x3c-voter-partition-te": AuditSpec(gadget="x3c-voter-partition-te", k=(1, 1), sets=(1, 2)),
    "deletion-to-candidate-partition": AuditSpec(gadget="deletion-to-candidate-partition",
                                                 mode="random", trials=6, seed=5),
    "hs-destructive-candidate-partition": AuditSpec(gadget="hs-destructive-candidate-partition",
                                                    n=(1, 3), m=(1, 2)),
}


class TestIdentityTallies:
    def test_each_distinct_subelection_is_tallied_once(self, monkeypatch):
        hs = HittingSetInstance(("b1", "b2", "b3"), (("b1", "b2"), ("b2", "b3")), 1)
        gadget = harness.build_gadget("hs-candidates", hs)
        subelections = {(i.voter_counts, i.candidates) for i in gadget.identities}
        assert len(gadget.identities) == 4 + len(hs.universe) and len(subelections) == 2
        calls = []
        tally = harness.tally
        monkeypatch.setattr(harness, "tally", lambda e, system: calls.append(e) or tally(e, system))
        record = harness.InstanceRecord(0, *harness._record_fields(
            encode_hs(hs), hs, gadget, IDENTITY_SPECS["hs-candidates"]))
        assert len(record.identities) == len(gadget.identities)
        assert len(calls) == len(subelections)

    def test_subelections_differing_only_in_voters_are_kept_apart(self):
        e = Election.from_rows(1, ("a", "b"), [(1, (1, 0)), (2, (0, 1))])
        identities = [
            ScoreIdentity("a in (C,V)", "a", Fraction(1)),
            ScoreIdentity("a in (C,V1)", "a", Fraction(1), voter_counts=(2, 0)),
            ScoreIdentity("b in ({a,b},V)", "b", Fraction(2), candidates=("a", "b")),
        ]
        tallies = {}
        shared = [harness.evaluate_identity(e, RV, i, tallies) for i in identities]
        assert shared == [harness.evaluate_identity(e, RV, i) for i in identities]
        assert [r.passed for r in shared] == [True, False, True] and len(tallies) == 3

    @pytest.mark.parametrize("name", harness.GADGET_NAMES)
    def test_memoized_identities_match_one_at_a_time(self, name):
        spec = IDENTITY_SPECS[name]
        witnessed = 0
        positions = harness._positions(spec, harness._stream(spec))
        built = ((source, gadget) for source, gadget in positions if gadget is not None)
        for source, gadget in itertools.islice(built, 12):
            decision, witness, _ = harness._reference(name, source, spec.budget)
            identities = gadget.identities
            if decision:
                identities += harness._witness_identities(name, source, gadget, witness)
                witnessed += len(identities) > len(gadget.identities)
            alone = tuple(harness.evaluate_identity(gadget.election, NRV, i) for i in identities)
            values = harness._record_fields(harness._encode(name, source), source, gadget, spec)
            assert harness.InstanceRecord(0, *values).identities == alone
        if name in ("hs-delete-constructive", "x3c-voter-partition-te",
                    "hs-destructive-candidate-partition"):
            assert witnessed  # the shared dict also served witness identities


class TestReports:
    SPEC = AuditSpec(gadget="hs-delete-constructive", n=(1, 2), m=(1, 2), k=(1, 1))

    def test_text_bytes_deterministic(self):
        assert render_text(audit_gadget(self.SPEC)) == render_text(audit_gadget(self.SPEC))

    def test_jsonl_is_valid_and_deterministic(self):
        r1 = render_jsonl(audit_gadget(self.SPEC))
        assert r1 == render_jsonl(audit_gadget(self.SPEC))
        lines = r1.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert "summary" in rows[-1]
        for row in rows[:-1]:
            assert {"gadget", "instance", "oracle", "solver", "status"} <= set(row)

    def test_rows_and_header_carry_every_field(self):
        report = audit_gadget(self.SPEC)
        row = json.loads(render_jsonl(report).splitlines()[0])
        names = {f.name for f in dataclasses.fields(harness.InstanceRecord)}
        assert set(row) == names - {"encoding"} | {"instance", "gadget"}
        header = render_text(report).splitlines()[1:12]
        keys = [f.name.replace("_", "-") for f in dataclasses.fields(AuditSpec)]
        assert [line.partition(": ")[0] for line in header] == keys

    def test_text_mentions_every_instance(self):
        report = audit_gadget(self.SPEC)
        text = render_text(report)
        for rec in report.records:
            assert rec.encoding in text


# One small spec per gadget, with the sha256 of its text and JSONL reports.
# Between them they reach random sampling with rejected draws, exhaustive
# sweeps that skip instances failing a gadget precondition, yes and no
# oracle answers, extra identities on yes answers, both one-direction
# notes, the final-round note, and the budget-exceeded branch on the
# source deletion solve and on the gadget's own solves.
PINNED_REPORTS = [
    (AuditSpec(gadget="hs-candidates", mode="random", n=(2, 4), m=(1, 3), k=(1, 1),
               trials=5, seed=3),
     "126974131cd4c8e65247e0497987f6442517252deae3a9986716c402e8f650cc",
     "b658f4c4aecfee08182fa009f2172ba5509a90e5aa91d936bd1e865162e041b6"),
    (AuditSpec(gadget="hs-delete-constructive", n=(1, 2), m=(1, 2), k=(1, 1)),
     "f98e408d0905c488db39be6ea846c5e7d0aafb24ca85e9afb9c7cb1a9753a30d",
     "225a07e951fd30dee7f7f669ca1700f32df5079c9fb9e226631df1b85bc2f0ca"),
    (AuditSpec(gadget="rhs-voter-partition-tp", mode="random", n=(6, 8), m=(1, 2),
               k=(1, 1), trials=3, seed=6),
     "d0181a9e936432180b1e20f3ac7adc25b2bb20aebcb640215d7257d2a4a2cc1e",
     "2661a1b1ca52636c67edd0f7cbc958003b4c6a8deba3b6b47723e33a0719961d"),
    (AuditSpec(gadget="x3c-voter-partition-te", k=(1, 1), sets=(1, 2), budget=2),
     "881f990697138fbf8a144be08ca63c489d26a43024721b35a7d1fa965103bbcc",
     "b94475ddb00ae083509302500abfe628223a5b02b32761765b0ec62190b8eee3"),
    (AuditSpec(gadget="deletion-to-candidate-partition", mode="random", trials=6, seed=5,
               budget=1),
     "5255eced166b810bf6d4f0544677eefe664be31afe1e97458991bc30ef02ea60",
     "a6299905c4983362f9cfa44bb266ce24f210da24c4c69f65d2d3c90c6387dd24"),
    (AuditSpec(gadget="hs-destructive-candidate-partition", n=(2, 3), m=(1, 2), k=(1, 1)),
     "ad70fec030fd4d0c22f8478d87af3b1e183123167ae123bb89c968816c958e77",
     "5f5a209fcd65bc1d0026861aed14ff77d4aaacf282b89183198754e36b9a50d3"),
]


@pytest.mark.parametrize(
    "spec, text_sha, jsonl_sha", PINNED_REPORTS, ids=[s.gadget for s, _, _ in PINNED_REPORTS]
)
def test_report_bytes_are_pinned(spec, text_sha, jsonl_sha):
    report = audit_gadget(spec)
    assert hashlib.sha256(render_text(report).encode()).hexdigest() == text_sha
    assert hashlib.sha256(render_jsonl(report).encode()).hexdigest() == jsonl_sha


# sha256 of repr(list(...)) of three isomorph-free sweeps, computed with the
# n!-per-family reference filter (tests/helpers.py: canonical_family).
PINNED_ENUMERATIONS = [
    ("hs n=6 m=2..3 k=1", lambda: exhaustive_hs_instances((6, 6), (2, 3), (1, 1)), 379,
     "041dafa48716f1dbf415e0385db9d93409b0d486a374bd85ce6d676e55cb2cdc"),
    ("x3c k=2 sets=2..5", lambda: exhaustive_x3c_instances((2, 2), (2, 5)), 115,
     "36985cb820cc29b9a9452bba78bc3073422ecd56e2876e0bac8cc774ccece292"),
    ("hs n=7 m=2 k=1", lambda: exhaustive_hs_instances((7, 7), (2, 2), (1, 1)), 62,
     "de1f90c7205be095aef1fbd4e891304e3c1ed1ba2185245a974f3b6facc25b54"),
]


@pytest.mark.parametrize(
    "sweep, count, sha", [p[1:] for p in PINNED_ENUMERATIONS],
    ids=[p[0] for p in PINNED_ENUMERATIONS],
)
def test_enumeration_is_pinned(sweep, count, sha):
    instances = list(sweep())
    assert len(instances) == count
    assert hashlib.sha256(repr(instances).encode()).hexdigest() == sha


def test_only_harness_holds_gadget_names_as_strings():
    # harness maps a gadget name to its builder and its source; a second module
    # comparing against a name would silently miss a rename
    holders = {
        path.name
        for path in Path(harness.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in harness.GADGET_NAMES
    }
    assert holders == {"harness.py"}
