"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values follow the exact arithmetic; where a stated
construction provably deviates from it, the relevant test asserts the
criterion as written and the failure output points at the audit records
(see README, "Audit findings at desk scale").
"""

import io
import time
from fractions import Fraction

import pytest

from rangecontrol.cli import run_cli
from rangecontrol.control import solve, scale_instance
from rangecontrol.elections import (
    NRV,
    RV,
    Election,
    from_approval,
    project,
    scale_election,
    tally,
)
from rangecontrol.fileio import parse_election, serialize_election
from rangecontrol.harness import (
    AuditSpec,
    audit_gadget,
    gen_random_control_instance,
    gen_random_election,
    render_text,
    replay_instance,
)

SHIFTY = Election.from_rows(
    2, ("a", "b", "c"), [(7, (2, 0, 0)), (4, (0, 2, 0)), (4, (0, 1, 2))]
)
TWO_RANGE = Election.from_rows(
    2, ("a", "b", "c"), [(5, (2, 0, 1)), (6, (0, 2, 0)), (4, (1, 2, 0))]
)


def report(n, message):
    print(f"criterion {n}: PASS - {message}")


def test_c01_normalized_worked_example():
    start = time.monotonic()
    t = tally(SHIFTY, NRV)
    assert t.totals == {"a": Fraction(14), "b": Fraction(12), "c": Fraction(8)}
    assert t.unique_winner == "a"
    t2 = tally(project(SHIFTY, ("a", "b")), NRV)
    assert t2.totals == {"a": Fraction(14), "b": Fraction(16)}
    assert t2.unique_winner == "b"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"nrv (14,12,8) then (14,16) exactly, {elapsed:.3f}s")


def test_c02_plain_range_worked_examples():
    t = tally(TWO_RANGE, RV)
    assert t.totals["a"] == 14 and t.totals["c"] == 5  # quoted values
    assert t.totals["b"] == 20  # recomputed from the table
    assert t.unique_winner == "b"
    print(
        "note: this election is sometimes quoted with a winning on 14 points; "
        "the table's own arithmetic gives b 20 points and the toolkit follows "
        "the arithmetic (see README)."
    )
    iia = from_approval(("a", "b", "c"), (((1, 0, 0), 5), ((0, 1, 0), 4), ((0, 0, 1), 2)))
    assert tally(iia, RV).unique_winner == "a"
    assert tally(project(iia, ("a", "b")), RV).unique_winner == "a"
    report(2, "rv totals (14,20,5), unique winner b; approval winner stable without c")


def test_c03_scaling_invariance():
    failures = 0
    for seed in range(500):
        e = gen_random_election(seed, max_candidates=5, max_groups=6, max_k=4)
        for a in (2, 3, 7):
            scaled = scale_election(e, a)
            for system in (RV, NRV):
                if tally(scaled, system).winners != tally(e, system).winners:
                    failures += 1
    assert failures == 0
    decision_failures = 0
    for seed in range(50):
        inst = gen_random_control_instance(seed, max_actions=20000)
        base_out = solve(inst)
        for a in (2, 3, 7):
            if solve(scale_instance(inst, a)) != base_out:
                decision_failures += 1
    assert decision_failures == 0
    report(3, "500 elections and 50 control instances invariant under a in {2,3,7}")


def test_c04_one_range_equivalence():
    failures = 0
    for seed in range(500):
        e = gen_random_election(seed, max_candidates=5, max_groups=6, zero_one=True)
        approval_totals = {c: 0 for c in e.candidates}
        for g in e.ballots:
            for c, s in zip(e.candidates, g.scores):
                approval_totals[c] += s * g.multiplicity
        if e.candidates:
            best = max(approval_totals.values())
            approval_winners = frozenset(
                c for c, v in approval_totals.items() if v == best
            )
        else:
            approval_winners = frozenset()
        if not (approval_winners == tally(e, RV).winners == tally(e, NRV).winners):
            failures += 1
    assert failures == 0
    report(4, "500 zero/one elections: approval, 1-rv, and 1-nrv winners coincide")


def test_c05_candidate_control_gadget_equivalence():
    start = time.monotonic()
    sweep = audit_gadget(
        AuditSpec(gadget="hs-candidates", mode="exhaustive", n=(1, 4), m=(2, 3), k=(1, 2))
    )
    assert sweep.agreement is True
    assert not sweep.identity_failures
    assert not sweep.budget_exceeded
    randomized = audit_gadget(
        AuditSpec(gadget="hs-candidates", mode="random", n=(2, 5), m=(2, 3), k=(1, 2),
                  trials=200, seed=7)
    )
    assert randomized.agreement is True
    assert not randomized.identity_failures
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(5, f"{len(sweep.records)} exhaustive + 200 random instances all agree, "
              f"{elapsed:.1f}s")


@pytest.mark.slow
def test_hs_candidates_exhaustive_at_n7():
    # README finding 1's largest sweep: 1,452 records
    sweep = audit_gadget(
        AuditSpec(gadget="hs-candidates", mode="exhaustive", n=(7, 7), m=(2, 3), k=(1, 2))
    )
    assert len(sweep.records) == 1452
    assert sweep.agreement is True
    assert not sweep.identity_failures
    assert not sweep.budget_exceeded


def test_c06_destructive_partition_gadget_equivalence():
    sweep = audit_gadget(
        AuditSpec(gadget="hs-destructive-candidate-partition", mode="exhaustive",
                  n=(1, 3), m=(1, 2), k=(1, 1))
    )
    detail = "; ".join(
        f"{sweep.records[i].encoding} oracle={sweep.records[i].oracle} "
        f"solver={[s[1] for s in sweep.records[i].solver]}"
        for i in sweep.counterexamples[:4]
    )
    assert sweep.agreement is True, (
        f"{len(sweep.counterexamples)} equivalence counterexamples within the "
        f"sweep (see README, audit findings): {detail}"
    )
    failed_idents = [
        (sweep.records[i].encoding, [x.label for x in sweep.records[i].identities
                                     if not x.passed])
        for i in sweep.identity_failures
    ]
    assert not sweep.identity_failures, (
        f"score assertions deviate on {len(failed_idents)} instances "
        f"(see README, audit findings): {failed_idents[:4]}"
    )
    report(6, f"{len(sweep.records)} instances agree and all identities hold")


def test_c07_x3c_voter_partition_audit():
    start = time.monotonic()
    exhaustive = audit_gadget(
        AuditSpec(gadget="x3c-voter-partition-te", mode="exhaustive", k=(1, 1), sets=(1, 2))
    )
    sampled = audit_gadget(
        AuditSpec(gadget="x3c-voter-partition-te", mode="random", k=(2, 2), sets=(2, 3),
                  trials=5, seed=11)
    )
    for rep in (exhaustive, sampled):
        assert not rep.budget_exceeded
        for rec in rep.records:
            # certify agreement or a replayable counterexample
            if rec.status == "disagree":
                again = replay_instance(rep.spec.gadget, rec.encoding,
                                        rep.spec.budget, rep.spec.checks)
                assert (again.oracle, again.solver, again.status) == (
                    rec.oracle, rec.solver, rec.status
                )
            note = next(n for n in rec.notes if n.startswith("final-round"))
            assert "matches=" in note and "neither" not in note
    k2_notes = [n for r in sampled.records for n in r.notes if "matches=recomputed" in n]
    assert k2_notes, "k=2 instances must expose the 12n+12k final-round total"
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(7, f"agreement {exhaustive.agreement}/{sampled.agreement} with final-round "
              f"totals matching 12n+12k at k=2, {elapsed:.1f}s")


def test_c08_tp_one_direction_and_margin():
    sweep = audit_gadget(
        AuditSpec(gadget="rhs-voter-partition-tp", mode="exhaustive",
                  n=(6, 6), m=(1, 1), k=(1, 1), isomorphism_free=False)
    )
    assert len(sweep.records) == 63  # every nonempty single-set family
    assert sweep.agreement is True
    assert not sweep.identity_failures
    for rec in sweep.records:
        assert rec.oracle == "yes"  # every family here has a 1-element hitting set
        assert any("denies c unique victory" in n for n in rec.notes)
    report(8, "63/63 explicit partitions defeat c; margin >= 2 everywhere")


def test_c09_deletion_to_partition_audit():
    rep = audit_gadget(
        AuditSpec(gadget="deletion-to-candidate-partition", mode="random",
                  trials=30, seed=5)
    )
    assert len(rep.records) == 30
    assert not rep.budget_exceeded
    for idx in rep.counterexamples:
        rec = rep.records[idx]
        again = replay_instance(rep.spec.gadget, rec.encoding, rep.spec.budget,
                                rep.spec.checks)
        assert (again.oracle, again.solver, again.status) == (
            rec.oracle, rec.solver, rec.status
        )
    report(9, f"30 sources audited; recorded agreement status: "
              f"{'clean' if rep.agreement else f'{len(rep.counterexamples)} replayable counterexamples'}")


def test_c10_constructive_deletion_audit():
    spec = AuditSpec(gadget="hs-delete-constructive", mode="exhaustive",
                     n=(1, 3), m=(1, 2), k=(1, 1))
    rep = audit_gadget(spec)
    assert render_text(rep) == render_text(audit_gadget(spec))  # deterministic bytes
    assert rep.counterexamples, "this audit is expected to surface disagreements"
    encodings = [rep.records[i].encoding for i in rep.counterexamples]
    assert "hs k=1 B=b1,b2 S=b1;b2" in encodings
    for idx in rep.counterexamples:
        rec = rep.records[idx]
        again = replay_instance(spec.gadget, rec.encoding, spec.budget, spec.checks)
        assert (again.oracle, again.solver, again.status) == (
            rec.oracle, rec.solver, rec.status
        )
    report(10, f"deterministic report with {len(rep.counterexamples)} disagreements, "
               f"all replaying identically")


def test_c11_round_trips_and_witness_determinism(tmp_path):
    corpus = []
    for seed in range(10):
        corpus.append(serialize_election(gen_random_election(seed)))
    for seed in range(12):
        inst = gen_random_control_instance(seed, max_actions=2000)
        corpus.append(serialize_election(inst.base, inst))
    assert len(corpus) >= 20
    for text in corpus:
        parsed = parse_election(text)
        assert serialize_election(
            parsed.election, parsed.instance,
            parsed.system if parsed.instance is None else None,
        ) == text
    instance_file = tmp_path / "instance.txt"
    instance_file.write_text(
        "range: 2\nsystem: nrv\ncandidates: c w d\nballots:\n3 | 1 0 2\n2 | 0 2 0\n"
        "action: add-candidates\ngoal: destructive\ndistinguished: c\nlimit: 1\n"
        "spoilers: d\n"
    )
    outputs = set()
    for _ in range(5):
        for workers in ("1", "3"):
            out = io.StringIO()
            code = run_cli(
                ["control", "--witness", "--workers", workers, str(instance_file)],
                stdout=out, stderr=io.StringIO(),
            )
            outputs.add((code, out.getvalue()))
    assert len(outputs) == 1 and next(iter(outputs))[0] == 0
    report(11, f"{len(corpus)} files round-trip; control output byte-identical over "
               f"5 runs x {{1,3}} workers")
