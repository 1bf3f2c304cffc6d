"""Gadget constructions: voter-group fidelity, score assertions, claims.

Expected values tagged "frozen" below were computed with the direct
summation oracle (tests/helpers.py) and pinned; where the stated tables
and strict re-normalization disagree, the frozen values follow the
arithmetic and the audit records the deviation.
"""

import inspect

import pytest

from rangecontrol import gadgets
from rangecontrol.control import (
    ADD_CANDIDATES,
    ADD_VOTERS,
    CONSTRUCTIVE,
    DELETE_CANDIDATES,
    DESTRUCTIVE,
    PARTITION_CANDIDATES,
    RUNOFF_PARTITION_CANDIDATES,
    ControlInstance,
    InvalidInstance,
    replay_witness,
    scale_instance,
    solve,
)
from rangecontrol.elections import NRV, RV, Election, project, tally
from rangecontrol.gadgets import (
    GadgetError,
    HittingSetInstance,
    X3CInstance,
    _group_index,
    delete_constructive_subelection_identities,
    destructive_partition_subelection_identities,
    gadget_deletion_to_candidate_partition,
    gadget_hs_candidates,
    gadget_hs_delete_constructive,
    gadget_hs_destructive_candidate_partition,
    gadget_rhs_voter_partition_tp,
    gadget_x3c_voter_partition_te,
    satisfies_size_restriction,
    tp_explicit_partition,
    x3c_cover_side,
)
from rangecontrol.harness import (
    GADGET_NAMES,
    AuditSpec,
    audit_gadget,
    check_score_identities,
    evaluate_identity,
    gen_random_x3c,
)
from rangecontrol.oracles import solve_hitting_set, solve_x3c

from helpers import brute_tally


def test_every_builder_takes_one_source():
    # harness.build_gadget passes each builder its source as one value
    builders = {name: fn for name, fn in vars(gadgets).items() if name.startswith("gadget_")}
    assert len(builders) == len(GADGET_NAMES)
    for name, builder in builders.items():
        assert len(inspect.signature(builder).parameters) == 1, name


def hs(universe, sets, k):
    return HittingSetInstance(tuple(universe), tuple(tuple(s) for s in sets), k)


def group_total(n, m, k, counts):
    return sum(counts)


class TestHsCandidates:
    def test_single_set_rejected(self):
        # margin 2m(k+1)-4k-2 is negative at m=1, k=1
        with pytest.raises(GadgetError):
            gadget_hs_candidates(hs(["b1", "b2"], [["b1"]], 1))

    def test_k_equal_n_rejected(self):
        with pytest.raises(GadgetError):
            gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b2"]], 2))

    def test_identities_instantiation(self):
        g = gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b1", "b2"]], 1))
        results = {r.label: r for r in check_score_identities(g)}
        assert results["c in ({c,w},V)"].computed == "48"
        assert results["w in ({c,w},V)"].computed == "46"
        assert all(r.passed for r in results.values())

    def test_group_count_fidelity(self):
        n, m, k = 3, 2, 1
        g = gadget_hs_candidates(hs(["b1", "b2", "b3"], [["b1", "b2"], ["b3"]], k))
        expected = (2 * m * (k + 1) + 4 * n) + (3 * m * (k + 1) + 2 * k + 1) \
            + 4 * n + 2 * (k + 1) * m
        assert g.election.total_voters == expected

    def test_equivalence_examples(self):
        yes = gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b1", "b2"]], 1))
        no = gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b2"]], 1))
        assert [solve(i).decision for i in yes.instances] == [True, True, True]
        assert [solve(i).decision for i in no.instances] == [False, False, False]
        assert solve_hitting_set(
            hs(["b1", "b2"], [["b1"], ["b1", "b2"]], 1)
        ).decision is True

    def test_instance_shapes(self):
        g = gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b2"]], 1))
        families = [(i.family, i.goal) for i in g.instances]
        assert families == [
            (ADD_CANDIDATES, CONSTRUCTIVE),
            (ADD_CANDIDATES, DESTRUCTIVE),
            (DELETE_CANDIDATES, DESTRUCTIVE),
        ]
        assert g.instances[0].spoilers == ("b1", "b2")
        assert g.instances[2].limit == 1  # n - k

    def test_matches_brute_tally(self):
        g = gadget_hs_candidates(hs(["b1", "b2", "b3"], [["b1"], ["b2", "b3"]], 1))
        assert tally(g.election, NRV).totals == brute_tally(g.election, NRV)


class TestHsDeleteConstructive:
    def test_frozen_full_and_restricted_totals(self):
        g = gadget_hs_delete_constructive(hs(["b1", "b2"], [["b1"]], 1))
        full = tally(g.election, NRV).totals
        assert full == {"b1": 22, "b2": 27, "w": 26}  # frozen: w loses outright
        sub = tally(project(g.election, ("b1", "w")), NRV).totals
        assert sub == {"b1": 22, "w": 26}  # frozen: deleting b2 makes w win
        assert solve(g.instances[0]).decision is True

    def test_candidate_counterexample_disagrees(self):
        # no size-1 hitting set exists, yet w already wins the full
        # election outright, so the empty deletion succeeds
        g = gadget_hs_delete_constructive(hs(["b1", "b2"], [["b1"], ["b2"]], 1))
        full = tally(g.election, NRV).totals
        assert full == {"b1": 37, "b2": 37, "w": 40}  # frozen
        out = solve(g.instances[0])
        assert out.decision is True and out.witness == ()
        assert solve_hitting_set(hs(["b1", "b2"], [["b1"], ["b2"]], 1)).decision is False

    def test_stated_subelection_totals_are_soft(self):
        inst = hs(["b1", "b2"], [["b1"]], 1)
        g = gadget_hs_delete_constructive(inst)
        idents = delete_constructive_subelection_identities(inst, ("b1",))
        results = [evaluate_identity(g.election, NRV, i) for i in idents]
        by_label = {r.label: r for r in results}
        # stated b-value 12mk+4n-2k+4 = 22 happens to hold here; w's does not
        assert by_label["b1 in ({w}+B',V)"].passed
        assert not by_label["w in ({w}+B',V)"].passed
        assert by_label["w in ({w}+B',V)"].computed == "26"

    def test_k_equal_n_rejected(self):
        with pytest.raises(GadgetError):
            gadget_hs_delete_constructive(hs(["b1"], [["b1"]], 1))


class TestRhsVoterPartitionTp:
    RESTRICTED = hs([f"b{i}" for i in range(1, 7)], [["b1"]], 1)

    def test_restriction_arithmetic(self):
        assert satisfies_size_restriction(self.RESTRICTED) is True
        too_big = hs([f"b{i}" for i in range(1, 7)], [["b1"], ["b2"]], 1)
        assert satisfies_size_restriction(too_big) is False
        with pytest.raises(GadgetError):
            gadget_rhs_voter_partition_tp(too_big)

    def test_margin_exactly_two_at_the_bound(self):
        g = gadget_rhs_voter_partition_tp(self.RESTRICTED)
        results = {r.label: r for r in check_score_identities(g)}
        margin = results["margin c-w-max(b) in (C,V)"]
        assert margin.passed and margin.computed == "2"
        assert all(r.passed for r in results.values())

    def test_explicit_partition_beats_c(self):
        g = gadget_rhs_voter_partition_tp(self.RESTRICTED)
        witness = solve_hitting_set(self.RESTRICTED).witness
        counts = tp_explicit_partition(g, witness)
        from rangecontrol.control import replay_witness

        assert replay_witness(g.instances[0], counts) is True

    def test_per_set_groups_keep_c_identity(self):
        # a 3-element set contributes one block of 2(k+1) voters, so c's
        # stated total stays exact for non-singleton sets
        inst = hs([f"b{i}" for i in range(1, 8)], [["b1", "b2", "b3"]], 1)
        assert satisfies_size_restriction(inst)
        g = gadget_rhs_voter_partition_tp(inst)
        results = {r.label: r for r in check_score_identities(g)}
        assert results["c in (C,V)"].passed


class TestX3cVoterPartitionTe:
    TRIPLE = X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))

    def test_built_at_range_four(self):
        g = gadget_x3c_voter_partition_te(self.TRIPLE)
        assert g.election.k == 4

    def test_cover_side_totals(self):
        g = gadget_x3c_voter_partition_te(self.TRIPLE)
        cover = solve_x3c(self.TRIPLE).witness
        counts, idents = x3c_cover_side(g, self.TRIPLE, cover)
        results = {r.label: r for r in
                   (evaluate_identity(g.election, NRV, i) for i in idents)}
        # frozen: the lone cover ballot re-normalizes to give c 4, not
        # the stated 4k-2 = 2; every other candidate gets 0 as stated
        assert results["c in (C,V1)"].computed == "4"
        assert not results["c in (C,V1)"].passed
        assert results["w in (C,V1)"].passed and results["b1 in (C,V1)"].passed

    def test_claim_yes_with_cover(self):
        g = gadget_x3c_voter_partition_te(self.TRIPLE)
        assert solve(g.instances[0]).decision is True

    def test_two_disjoint_triples(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        inst = X3CInstance(elems, (("b1", "b2", "b3"), ("b4", "b5", "b6")))
        assert solve_x3c(inst).decision is True
        g = gadget_x3c_voter_partition_te(inst)
        assert solve(g.instances[0]).decision is True

    def test_voter_group_fidelity(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        inst = X3CInstance(elems, (("b1", "b2", "b3"), ("b4", "b5", "b6")))
        n, k = 2, 2
        g = gadget_x3c_voter_partition_te(inst)
        expected = n + 2 * n + (k - 1) + 3 * k + (2 * k + 3 * n + 1)
        assert g.election.total_voters == expected

    # README finding 6: side 1 = all k-1 balance voters plus j element voters
    @staticmethod
    def balance_and_element_voters(g, x3c, j):
        counts = [0] * len(g.election.ballots)
        if x3c.k > 1:
            counts[_group_index(g.election, {"w": 4, "c": 2})] += x3c.k - 1
        for b in x3c.elements[:j]:
            scores = {b: 4, **{y: 1 for y in x3c.elements if y != b}, "c": 1}
            counts[_group_index(g.election, scores)] += 1
        return tuple(counts)

    def replayed_js(self, x3c):
        g = gadget_x3c_voter_partition_te(x3c)
        return [
            j for j in range(3 * x3c.k + 1)
            if replay_witness(g.instances[0], self.balance_and_element_voters(g, x3c, j))
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_no_instances_fall_to_balance_and_element_voters(self, k, seed):
        # c tops side 1 alone iff 2k-1 <= j <= 3k, whatever the set family
        x3c = gen_random_x3c(k, k + 2, seed, planted=False)
        assert solve_x3c(x3c).decision is False
        assert self.replayed_js(x3c) == list(range(2 * k - 1, 3 * k + 1))

    def test_no_such_split_replays_at_k2(self):
        x3c = gen_random_x3c(2, 4, 0, planted=False)
        assert solve_x3c(x3c).decision is False
        assert self.replayed_js(x3c) == []

    # README finding 7: side 1 = the balance voter plus four set voters that cover
    # every element twice; it gives c 2 + 4 * 2 = 10 and each element 4 * 2 = 8
    def test_a_two_fold_cover_denies_w_at_k2_without_an_exact_cover(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        twice = (("b1", "b2", "b3"), ("b1", "b4", "b5"), ("b2", "b4", "b6"), ("b3", "b5", "b6"))
        x3c = X3CInstance(elems, twice)
        assert solve_x3c(x3c).decision is False  # every two of the sets meet
        g = gadget_x3c_voter_partition_te(x3c)
        counts = [0] * len(g.election.ballots)
        counts[_group_index(g.election, {"w": 4, "c": 2})] += 1
        for s in twice:  # a set's voter scores 4 for each element outside it
            counts[_group_index(g.election, {**{b: 4 for b in elems if b not in s}, "c": 2})] += 1
        assert replay_witness(g.instances[0], tuple(counts))
        assert solve(g.instances[0]).decision is True

    def test_k3_audit_disagrees_on_every_no_record(self):
        report = audit_gadget(AuditSpec(gadget="x3c-voter-partition-te", mode="random",
                                        k=(3, 3), sets=(4, 5), trials=6, seed=1))
        no_records = [r for r in report.records if r.oracle == "no"]
        assert [r.index for r in no_records] == [0, 5]
        assert all(r.status == "disagree" for r in no_records)


def deletion(source, w, limit, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE, system=NRV):
    return ControlInstance(base=source, family=family, goal=goal, system=system,
                           distinguished=w, limit=limit)


class TestDeletionToCandidatePartition:
    def test_single_candidate_source_trivially_yes(self):
        source = Election.from_rows(2, ("w",), [(2, (2,))])
        g = gadget_deletion_to_candidate_partition(deletion(source, "w", 1))
        for inst in g.instances:
            assert solve(inst).decision is True

    def test_one_voter_source_ties_the_auxiliaries(self):
        # the stated a-vs-b margin is 2nr(k-l) - 2r, which hits zero for
        # a 1-voter source; the tie eliminates both auxiliaries under TE
        # (leaving a route for w) but promotes them under TP (blocking w)
        source = Election.from_rows(2, ("w",), [(1, (2,))])
        g = gadget_deletion_to_candidate_partition(deletion(source, "w", 1))
        answers = {(i.family, i.tie_model): solve(i).decision for i in g.instances}
        assert answers[(PARTITION_CANDIDATES, "eliminate")] is True
        assert answers[(PARTITION_CANDIDATES, "promote")] is False
        assert answers[(RUNOFF_PARTITION_CANDIDATES, "eliminate")] is True
        assert answers[(RUNOFF_PARTITION_CANDIDATES, "promote")] is False

    def test_auxiliary_b_identity_and_victory(self):
        source = Election.from_rows(2, ("w", "x", "y"), [(2, (1, 2, 0)), (1, (2, 0, 0))])
        g = gadget_deletion_to_candidate_partition(deletion(source, "w", 1))
        results = {r.label: r for r in check_score_identities(g)}
        n, m, r_, k = 3, 3, 2, 1
        expected = 6 * n * r_ + 6 * n * m * r_ + 2 * (m - k - 1) * n * r_ + 4 * r_
        assert results["b in (C',V')"].computed == str(expected)
        assert results["b in (C',V')"].passed
        assert results["b wins (C',V')"].passed

    def test_known_off_by_one_disagreement(self):
        # the source needs its full deletion budget (l = k), where the
        # stated a-vs-b margin 2nr(k-l) - 2r goes negative, so the
        # partition answer drops to no while the deletion answer is yes
        source = Election.from_rows(2, ("w", "x", "y"), [(2, (1, 2, 0)), (1, (2, 0, 0))])
        source_instance = deletion(source, "w", 1)
        assert solve(source_instance).decision is True
        g = gadget_deletion_to_candidate_partition(source_instance)
        answers = {(i.family, i.tie_model): solve(i).decision for i in g.instances}
        assert answers[(PARTITION_CANDIDATES, "promote")] is False

    def test_agrees_when_winning_needs_no_deletion(self):
        source = Election.from_rows(2, ("w", "x"), [(3, (2, 0)), (1, (0, 2))])
        source_instance = deletion(source, "w", 1)
        assert solve(source_instance).decision is True
        g = gadget_deletion_to_candidate_partition(source_instance)
        for inst in g.instances:
            assert solve(inst).decision is True

    def test_aux_names_freshened(self):
        source = Election.from_rows(1, ("a", "b"), [(1, (1, 0))])
        g = gadget_deletion_to_candidate_partition(deletion(source, "a", 1))
        assert len(g.election.candidates) == 4
        assert len(set(g.election.candidates)) == 4

    def test_missing_distinguished(self):
        # the rule lives in ControlInstance, so no gadget source can break it
        source = Election.from_rows(1, ("a",), [(1, (1,))])
        with pytest.raises(InvalidInstance, match="unknown candidate 'zz'"):
            deletion(source, "zz", 1)

    @pytest.mark.parametrize("instance", [
        None,
        deletion(Election.from_rows(1, ("a", "b"), [(1, (1, 0))]), "a", 1, goal=DESTRUCTIVE),
        deletion(Election.from_rows(1, ("a", "b"), [(1, (1, 0))]), "a", 1, family=ADD_VOTERS),
    ], ids=["no-section", "destructive", "add-voters"])
    def test_needs_a_constructive_delete_candidates_instance(self, instance):
        with pytest.raises(GadgetError, match="^this gadget needs a constructive "
                                              "delete-candidates instance section$"):
            gadget_deletion_to_candidate_partition(instance)

    def test_builds_nrv_whatever_the_source_system(self):
        source = Election.from_rows(2, ("w", "x", "y"), [(2, (1, 2, 0)), (1, (2, 0, 0))])
        nrv = gadget_deletion_to_candidate_partition(deletion(source, "w", 1))
        rv = gadget_deletion_to_candidate_partition(deletion(source, "w", 1, system=RV))
        assert rv == nrv
        assert {i.system for i in rv.instances} == {NRV}


class TestHsDestructiveCandidatePartition:
    def test_identities_instantiation(self):
        g = gadget_hs_destructive_candidate_partition(hs(["b1", "b2"], [["b1"]], 1))
        results = {r.label: r for r in check_score_identities(g)}
        assert results["w in (C,V)"].computed == "30"
        assert results["b1 in (C,V)"].computed == "28"
        assert all(r.passed for r in results.values())

    def test_yes_instance_witness(self):
        g = gadget_hs_destructive_candidate_partition(hs(["b1", "b2"], [["b1"]], 1))
        out = solve(g.instances[0])
        assert out.decision is True and out.witness == ("b1", "w")

    def test_subelection_identities_for_hitting_set(self):
        inst = hs(["b1", "b2"], [["b1"]], 1)
        g = gadget_hs_destructive_candidate_partition(inst)
        idents = destructive_partition_subelection_identities(inst, ("b1",))
        results = [evaluate_identity(g.election, NRV, i) for i in idents]
        assert all(r.passed for r in results)
        assert results[0].computed == "32"  # 8m(k+1)+8n-4l+4

    def test_known_no_direction_failure(self):
        # under per-subelection re-normalization, pairing w with a
        # non-hitting set D inside some family set strips w's support
        # points, so the partition succeeds although the oracle says no
        inst = hs(["b1", "b2"], [["b1"], ["b2"]], 1)
        g = gadget_hs_destructive_candidate_partition(inst)
        assert solve_hitting_set(inst).decision is False
        assert [solve(i).decision for i in g.instances] == [True, True, True, True]

    def test_k_equal_n_rejected(self):
        with pytest.raises(GadgetError):
            gadget_hs_destructive_candidate_partition(hs(["b1"], [["b1"]], 1))

    def test_full_universe_set_shifts_w_total(self):
        # a set equal to B leaves its support ballots without a zero
        # anchor, so w's stated full-election total overshoots by 4(k+1)
        g = gadget_hs_destructive_candidate_partition(
            hs(["b1", "b2"], [["b1", "b2"]], 1)
        )
        results = {r.label: r for r in check_score_identities(g)}
        assert results["w in (C,V)"].computed == "22"
        assert not results["w in (C,V)"].passed


class TestScalingStability:
    @pytest.mark.parametrize("a", [2, 3])
    def test_gadget_answers_survive_scaling(self, a):
        g = gadget_hs_candidates(hs(["b1", "b2"], [["b1"], ["b2"]], 1))
        for inst in g.instances:
            assert solve(scale_instance(inst, a)).decision == solve(inst).decision
        g2 = gadget_hs_destructive_candidate_partition(hs(["b1", "b2"], [["b1"]], 1))
        for inst in g2.instances:
            assert solve(scale_instance(inst, a)).decision == solve(inst).decision


class TestAuxiliaryNamesAvoidTheUniverse:
    # a universe holding c, c2 and w pushes the auxiliaries to c3 and w2
    CW = ("c", "c2", "w")

    def test_hs_candidates(self):
        g = gadget_hs_candidates(hs(self.CW, [["c", "w"], ["c2"]], 2))
        assert g.election.candidates == self.CW + ("c3", "w2")
        assert g.instances[0].distinguished == "w2"

    def test_tp_explicit_partition_finds_the_w2_group(self):
        g = gadget_rhs_voter_partition_tp(hs(self.CW + ("b4", "b5", "b6", "b7"), [["c"]], 1))
        assert g.election.candidates[-2:] == ("w2", "c3")
        counts = tp_explicit_partition(g, ("c",))
        assert counts[_group_index(g.election, {"w2": 2})] == 1
        assert counts[_group_index(g.election, {"c": 2})] == 1
        assert replay_witness(g.instances[0], counts) is True

    def test_x3c_cover_side_finds_the_c3_w2_groups(self):
        inst = X3CInstance(self.CW + ("b4", "b5", "b6"), (self.CW, ("b4", "b5", "b6")))
        g = gadget_x3c_voter_partition_te(inst)
        assert g.election.candidates[-2:] == ("c3", "w2")
        counts, idents = x3c_cover_side(g, inst, inst.sets)
        assert counts[_group_index(g.election, {"w2": 4, "c3": 2})] == 1  # the k-1 balance voters
        assert counts[_group_index(g.election, {"b4": 4, "b5": 4, "b6": 4, "c3": 2})] == 1
        assert [i.candidate for i in idents[:2]] == ["c3", "w2"]
