"""Control solvers: examples, enumeration canon, determinism, budgets."""

import gc
import itertools
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangecontrol.control import (
    ADD_CANDIDATES,
    ADD_VOTERS,
    CONSTRUCTIVE,
    DELETE_CANDIDATES,
    DELETE_VOTERS,
    DESTRUCTIVE,
    PARTITION_CANDIDATES,
    PARTITION_VOTERS,
    RUNOFF_PARTITION_CANDIDATES,
    TIES_ELIMINATE,
    TIES_PROMOTE,
    ControlInstance,
    ControlOutcome,
    InvalidInstance,
    describe,
    replay_witness,
    scale_instance,
    search_space,
    solve,
    solve_add_candidates,
    solve_add_voters,
    solve_delete_candidates,
    solve_delete_voters,
    solve_partition_candidates,
    solve_partition_voters,
    solve_runoff_partition_candidates,
    subelection_survivors,
    _capped_vectors,
    _count_capped_vectors,
    _subset_winners,
)
from rangecontrol.elections import NRV, RV, BallotGroup, Election, project, tally
from rangecontrol.gadgets import (
    HittingSetInstance,
    gadget_hs_candidates,
    gadget_hs_destructive_candidate_partition,
)
from rangecontrol.harness import gen_random_control_instance, gen_random_election

from helpers import brute_control


def election(k, cands, rows):
    return Election.from_rows(k, cands, rows)


class TestSurvivors:
    def test_unique_winner_survives_eliminate(self):
        e = election(1, ("w", "x"), [(2, (1, 0))])
        assert subelection_survivors(e, RV, TIES_ELIMINATE) == {"w"}

    def test_tie_eliminates_everyone(self):
        e = election(1, ("a", "b"), [(1, (1, 0)), (1, (0, 1))])
        assert subelection_survivors(e, RV, TIES_ELIMINATE) == frozenset()

    def test_tie_promotes_everyone(self):
        e = election(1, ("a", "b"), [(1, (1, 0)), (1, (0, 1))])
        assert subelection_survivors(e, RV, TIES_PROMOTE) == {"a", "b"}

    def test_no_candidates_no_survivors(self):
        e = Election(1, ())
        assert subelection_survivors(e, RV, TIES_PROMOTE) == frozenset()

    def test_no_voters(self):
        e = Election(1, ("a", "b"))
        assert subelection_survivors(e, RV, TIES_PROMOTE) == {"a", "b"}
        assert subelection_survivors(e, RV, TIES_ELIMINATE) == frozenset()


class TestAddCandidates:
    def test_already_winning_needs_nothing(self):
        base = election(1, ("w", "x", "d"), [(2, (1, 0, 1))])
        inst = ControlInstance(base=base, family=ADD_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", spoilers=("d",), limit=1)
        out = solve_add_candidates(inst)
        assert out.decision is True and out.witness == ()

    def test_destructive_spoiler(self):
        base = election(2, ("c", "w", "d"), [(3, (1, 0, 2)), (2, (0, 2, 0))])
        inst = ControlInstance(base=base, family=ADD_CANDIDATES, goal=DESTRUCTIVE,
                               system=NRV, distinguished="c", spoilers=("d",), limit=1)
        out = solve_add_candidates(inst)
        assert (out.decision, out.witness, out.explored) == (True, ("d",), 2)

    def test_gadget_no_instance(self):
        from rangecontrol.gadgets import HittingSetInstance, gadget_hs_candidates

        g = gadget_hs_candidates(HittingSetInstance(("b1", "b2"), (("b1",), ("b2",)), 1))
        cons = next(i for i in g.instances
                    if i.family == ADD_CANDIDATES and i.goal == CONSTRUCTIVE)
        assert solve_add_candidates(cons).decision is False


class TestDeleteCandidates:
    def test_sole_candidate_cannot_be_unseated(self):
        base = election(1, ("w",), [(1, (1,))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=DESTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        assert solve_delete_candidates(inst).decision is False

    def test_gadget_shaped_deletion(self):
        # single-set variant of the candidate gadget (the constructor
        # itself requires two sets, so build the election directly):
        # n=2, m=1, k=1, S={{b1}}
        base = Election.from_maps(2, ("b1", "b2", "c", "w"), [
            ({"c": 2}, 2 * 2 + 4 * 2),          # 2m(k+1) + 4n
            ({"w": 2}, 3 * 2 + 2 + 1),           # 3m(k+1) + 2k + 1
            ({"b1": 2, "w": 1}, 4),
            ({"b2": 2, "w": 1}, 4),
            ({"b1": 2, "c": 1}, 4),              # 2(k+1) per set
        ])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=DESTRUCTIVE,
                               system=NRV, distinguished="c", limit=1)
        out = solve_delete_candidates(inst)
        assert out.decision is True and out.witness == ("b2",)

    def test_winner_already_unique(self):
        base = election(1, ("w", "x"), [(2, (1, 0))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        out = solve_delete_candidates(inst)
        assert out.decision is True and out.witness == ()

    def test_distinguished_never_deletable(self):
        base = election(1, ("w", "x"), [(2, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=2)
        # deleting x is the only action; w itself never enters the domain
        out = solve_delete_candidates(inst)
        assert out.decision is True and out.witness == ("x",)
        assert out.explored == 2  # empty set, then {x}


class TestAddVoters:
    BASE = election(1, ("a", "w"), [(1, (1, 0))])
    POOL = (BallotGroup((0, 1), 2),)

    def _inst(self, limit):
        return ControlInstance(base=self.BASE, family=ADD_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", pool=self.POOL, limit=limit)

    def test_take_nothing_when_winning(self):
        base = election(1, ("a", "w"), [(1, (0, 1))])
        inst = ControlInstance(base=base, family=ADD_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", pool=self.POOL, limit=1)
        out = solve_add_voters(inst)
        assert out.decision is True and out.witness == (0,)

    def test_one_addition_only_ties(self):
        assert solve_add_voters(self._inst(1)).decision is False

    def test_two_additions_win(self):
        out = solve_add_voters(self._inst(2))
        assert out.decision is True and out.witness == (2,)

    def test_wrong_pool_width(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=ADD_VOTERS, goal=CONSTRUCTIVE,
                            system=RV, distinguished="w",
                            pool=(BallotGroup((1,), 1),), limit=1)


class TestDeleteVoters:
    def test_tie_is_already_destructive(self):
        base = election(1, ("a", "w"), [(1, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=DESTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        out = solve_delete_voters(inst)
        assert out.decision is True and out.witness == (0, 0)

    def test_limit_two_removes_both_rivals(self):
        base = election(1, ("a", "w"), [(2, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=2)
        out = solve_delete_voters(inst)
        # canonical ballot order puts (0,1) before (1,0)
        assert out.decision is True and out.witness == (0, 2)

    def test_limit_one_not_enough(self):
        base = election(1, ("a", "w"), [(2, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        assert solve_delete_voters(inst).decision is False


class TestPartitionCandidates:
    def test_single_candidate(self):
        base = election(1, ("w",), [(1, (1,))])
        cons = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_PROMOTE)
        destr = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=DESTRUCTIVE,
                                system=RV, distinguished="w", tie_model=TIES_PROMOTE)
        assert solve_partition_candidates(cons).decision is True
        assert solve_partition_candidates(destr).decision is False

    def test_winner_keeps_winning_via_empty_first_group(self):
        base = election(1, ("w", "x"), [(2, (1, 0))])
        inst = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        out = solve_partition_candidates(inst)
        assert out.decision is True and out.witness == ()

    def test_destructive_gadget_witness(self):
        from rangecontrol.gadgets import HittingSetInstance, gadget_hs_destructive_candidate_partition

        g = gadget_hs_destructive_candidate_partition(
            HittingSetInstance(("b1", "b2"), (("b1",),), 1)
        )
        for inst in g.instances:
            out = solve(inst)
            assert out.decision is True
            if inst.family == PARTITION_CANDIDATES:
                assert out.witness == ("b1", "w")


class TestRunoffPartition:
    def test_single_candidate_constructive(self):
        base = election(1, ("w",), [(1, (1,))])
        inst = ControlInstance(base=base, family=RUNOFF_PARTITION_CANDIDATES,
                               goal=CONSTRUCTIVE, system=RV, distinguished="w",
                               tie_model=TIES_ELIMINATE)
        assert solve_runoff_partition_candidates(inst).decision is True

    def test_everyone_eliminated_everywhere(self):
        base = election(1, ("x", "y"), [(1, (1, 1))])
        cons = ControlInstance(base=base, family=RUNOFF_PARTITION_CANDIDATES,
                               goal=CONSTRUCTIVE, system=RV, distinguished="x",
                               tie_model=TIES_ELIMINATE)
        destr = ControlInstance(base=base, family=RUNOFF_PARTITION_CANDIDATES,
                                goal=DESTRUCTIVE, system=RV, distinguished="x",
                                tie_model=TIES_ELIMINATE)
        assert solve_runoff_partition_candidates(cons).decision is False
        out = solve_runoff_partition_candidates(destr)
        assert out.decision is True and out.witness == ()


class TestPartitionVoters:
    def test_identical_ballots_cannot_unseat(self):
        base = election(2, ("w", "x"), [(3, (2, 1))])
        for ties in (TIES_PROMOTE, TIES_ELIMINATE):
            inst = ControlInstance(base=base, family=PARTITION_VOTERS, goal=DESTRUCTIVE,
                                   system=RV, distinguished="w", tie_model=ties)
            assert solve_partition_voters(inst).decision is False

    def test_x3c_gadget_yes(self):
        from rangecontrol.gadgets import X3CInstance, gadget_x3c_voter_partition_te

        g = gadget_x3c_voter_partition_te(
            X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))
        )
        assert solve_partition_voters(g.instances[0]).decision is True

    def test_single_candidate(self):
        base = election(1, ("w",), [(2, (1,))])
        cons = ControlInstance(base=base, family=PARTITION_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        destr = ControlInstance(base=base, family=PARTITION_VOTERS, goal=DESTRUCTIVE,
                                system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        assert solve_partition_voters(cons).decision is True
        assert solve_partition_voters(destr).decision is False


class TestInstanceValidation:
    BASE = election(1, ("a", "w"), [(1, (1, 0))])

    def test_unknown_family(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family="bribery", goal=CONSTRUCTIVE,
                            system=RV, distinguished="w", limit=1)

    def test_distinguished_must_be_registered(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                            system=RV, distinguished="zz", limit=1)
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=ADD_CANDIDATES, goal=CONSTRUCTIVE,
                            system=RV, distinguished="w", spoilers=("w",), limit=1)

    def test_partition_needs_tie_model(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=PARTITION_VOTERS, goal=CONSTRUCTIVE,
                            system=RV, distinguished="w")

    def test_add_delete_needs_positive_limit(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                            system=RV, distinguished="w", limit=0)

    def test_spoilers_only_for_add_candidates(self):
        with pytest.raises(InvalidInstance):
            ControlInstance(base=self.BASE, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                            system=RV, distinguished="w", limit=1, spoilers=("a",))

    def test_describe_is_stable(self):
        inst = ControlInstance(base=self.BASE, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        assert describe(inst) == "constructive delete-voters w=w limit=1 rv"


class TestOutcomeSemantics:
    def test_budget_exceeded_is_not_no(self):
        base = election(1, ("a", "w"), [(5, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=2)
        full = solve(inst)
        assert full.decision is False  # a keeps at least 3 points vs w's 1
        cut = solve(inst, budget=3)
        assert cut.decision is None and cut.budget_exceeded and cut.explored == 3

    def test_negative_budget_rejected_and_zero_budget_kept(self):
        base = election(1, ("a", "w"), [(1, (1, 0))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        with pytest.raises(ValueError, match="non-negative"):
            solve(inst, budget=-1)
        assert solve(inst, budget=0) == ControlOutcome(None, None, 0)

    def test_budget_equal_to_space_still_decides(self):
        base = election(1, ("a", "w"), [(1, (1, 0))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        space = search_space(inst)
        out = solve(inst, budget=space)
        assert out.decision is not None and out.explored <= space

    @given(st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_search_space_counts_explored_no(self, seed):
        inst = gen_random_control_instance(seed, max_actions=3000)
        out = solve(inst)
        if out.decision is False:
            assert out.explored == search_space(inst)
        else:
            assert out.explored <= search_space(inst)


class TestSolverProperties:
    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_witness_replays(self, seed):
        inst = gen_random_control_instance(seed, max_actions=5000)
        out = solve(inst)
        if out.decision:
            assert replay_witness(inst, out.witness)

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_goal_duality(self, seed):
        inst = gen_random_control_instance(seed, max_actions=5000)
        out = solve(inst)
        if not out.decision:
            return
        flipped = replace(
            inst, goal=DESTRUCTIVE if inst.goal == CONSTRUCTIVE else CONSTRUCTIVE
        )
        # replaying this instance's witness under the opposite goal must
        # fail whenever the witnessed election is decisive
        if replay_witness(flipped, out.witness):
            # only possible when the terminal election has no unique winner
            assert inst.goal == DESTRUCTIVE

    @given(st.integers(0, 5000), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_scaling_leaves_decision_alone(self, seed, a):
        inst = gen_random_control_instance(seed, max_actions=2000)
        assert solve(inst) == solve(scale_instance(inst, a))

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_matches_expanded_brute_force(self, seed):
        inst = gen_random_control_instance(seed, max_actions=400)
        if inst.base.total_voters > 7 or len(inst.pool) > 3:
            return
        assert solve(inst).decision == brute_control(inst)

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_budget(self, seed):
        inst = gen_random_control_instance(seed, max_actions=2000)
        if inst.limit is None:
            return
        out = solve(inst)
        if out.decision:
                assert solve(replace(inst, limit=inst.limit + 1)).decision is True

    @given(st.integers(0, 5000), st.sampled_from([2, 3, 5]))
    @settings(max_examples=30, deadline=None)
    def test_worker_count_is_invisible(self, seed, workers):
        inst = gen_random_control_instance(seed, max_actions=3000)
        assert solve(inst) == solve(inst, workers=workers)

    def test_repeated_runs_identical(self):
        inst = gen_random_control_instance(1234)
        outs = {solve(inst) for _ in range(5)}
        assert len(outs) == 1


class TestSubsetWinners:
    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([RV, NRV]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bitmask_cache_matches_project_and_tally(self, seed, k, system, data):
        e = gen_random_election(seed, max_candidates=5, max_groups=6, k=k)
        winners = _subset_winners(e, system)
        masks = st.integers(0, (1 << len(e.candidates)) - 1)
        for mask in data.draw(st.lists(masks, min_size=1, max_size=6)):
            subset = [c for i, c in enumerate(e.candidates) if mask >> i & 1]
            got = frozenset(c for i, c in enumerate(e.candidates) if winners(mask) >> i & 1)
            assert got == tally(project(e, subset), system).winners

    def test_solving_keeps_no_reference_to_the_gadget(self):
        hs = HittingSetInstance(("b1", "b2", "b3"), (("b1", "b2"), ("b2", "b3")), 1)
        refs = []
        for build in (gadget_hs_candidates, gadget_hs_destructive_candidate_partition):
            gadget = build(hs)
            refs.append(weakref.ref(gadget.election))
            refs.extend(weakref.ref(instance.base) for instance in gadget.instances)
            outcomes = [solve(instance) for instance in gadget.instances]
            assert all(out.decision is not None for out in outcomes)
            del gadget
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestCappedVectors:
    def test_lexicographic_with_first_group_most_significant(self):
        caps, cap_sum = (3, 2, 4, 1, 3, 2), 6
        ranges = (range(c + 1) for c in caps)
        expected = [v for v in itertools.product(*ranges) if sum(v) <= cap_sum]
        got = list(_capped_vectors(caps, cap_sum))
        assert len(got) > 300
        assert got[:300] == expected[:300]
        assert got == expected
        assert len(got) == _count_capped_vectors(caps, cap_sum)

    def test_degenerate_caps(self):
        assert list(_capped_vectors((), 3)) == [()]
        assert list(_capped_vectors((2, 2), 0)) == [(0, 0)]
        assert list(_capped_vectors((0, 1), 5)) == [(0, 0), (0, 1)]

    def test_delete_voters_on_1200_groups(self):
        # w and x tie on symmetric ballots; one more x-voter group breaks it
        vectors = [(a, b) for a in range(35) for b in range(35) if a != b or a >= 25]
        assert len(vectors) == 1200
        base = Election.from_rows(34, ("w", "x"), [(1, v) for v in vectors])
        inst = ControlInstance(
            base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE, system=RV,
            distinguished="w", limit=1,
        )
        out = solve(inst)
        # actions: remove nobody, then one voter of the last group, the one before ...
        last = max(i for i, g in enumerate(base.ballots) if g.scores[1] > g.scores[0])
        assert out.decision is True
        assert out.explored == 1 + len(vectors) - last
        assert out.witness == tuple(int(i == last) for i in range(len(vectors)))

        trailing = replace(inst, base=Election.from_rows(
            34, ("w", "x"), [(1, v) for v in vectors] + [(100, (0, 34))]
        ))
        out = solve(trailing)
        assert out.decision is False
        assert out.explored == 1 + len(vectors) == search_space(trailing)
