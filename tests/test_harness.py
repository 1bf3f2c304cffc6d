"""Generators, audits, report determinism, and counterexample replay."""

import hashlib
import json

import pytest

from rangecontrol.gadgets import HittingSetInstance, X3CInstance
from rangecontrol.harness import (
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
from rangecontrol.oracles import solve_x3c, validate_restricted_hs


class TestGenerators:
    def test_hs_deterministic(self):
        assert gen_random_hs(4, 2, 1, seed=1) == gen_random_hs(4, 2, 1, seed=1)

    def test_hs_restricted_flag(self):
        inst = gen_random_hs(6, 1, 1, seed=3, restricted=True)
        assert validate_restricted_hs(inst)
        with pytest.raises(ValueError):
            gen_random_hs(6, 2, 1, seed=3, restricted=True)

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

    def test_x3c_k1_families(self):
        insts = list(exhaustive_x3c_instances((1, 1), (1, 2)))
        assert [len(i.sets) for i in insts] == [1, 2]
        assert all(i.elements == ("b1", "b2", "b3") for i in insts)

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
        w = e.candidates[0]
        text = encode_deletion_source(e, w, 2)
        back, w2, limit = decode_deletion_source(text)
        assert (back, w2, limit) == (e, w, 2)

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            decode_hs("x3c B=b1 S=b1")


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
            again = replay_instance(spec.gadget, rec.encoding, spec.budget, spec.checks)
            assert (again.oracle, again.solver, again.status) == (
                rec.oracle, rec.solver, rec.status
            )

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

    @pytest.mark.parametrize("gadget, checks", [
        ("hs-candidates", ("equivalance",)),
        ("rhs-voter-partition-tp", ("equivalence",)),
        ("x3c-voter-partition-te", ("identities", "one-direction")),
    ])
    def test_unsupported_checks_are_rejected(self, gadget, checks):
        with pytest.raises(ValueError, match="does not support"):
            AuditSpec(gadget=gadget, checks=checks)

    def test_supported_subset_of_checks_is_kept(self):
        spec = AuditSpec(gadget="x3c-voter-partition-te", checks=("final-round",))
        assert spec.checks == ("final-round",)
        report = audit_gadget(spec)
        assert all(not r.solver and not r.identities and r.notes for r in report.records)

    @pytest.mark.parametrize("field", [{"budget": -1}, {"trials": -1}])
    def test_negative_budget_or_trials_rejected(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            AuditSpec(gadget="hs-candidates", mode="random", **field)

    def test_replay_rejects_unsupported_checks(self):
        with pytest.raises(ValueError, match="does not support"):
            replay_instance("rhs-voter-partition-tp", "hs k=1 B=b1,b2 S=b1", None, ("equivalence",))

    def test_each_gadget_is_built_once(self, monkeypatch):
        # the audit looks the builder up at call time, so a rebound name sees
        # every build; an accepted source is built once, not again to audit it
        import rangecontrol.harness as harness

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
