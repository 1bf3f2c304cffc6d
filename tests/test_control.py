"""Control solvers: examples, enumeration canon, determinism, budgets."""

import ast
import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangecontrol import control
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
    search_space_floor,
    solve,
    subelection_survivors,
    _capped_counts,
    _count_capped_vectors,
    _lone_leader,
    _margin_lines,
    _odometer,
    _possible_lone_tops,
    _subset_winners,
    _suffix_falls,
)
from rangecontrol.elections import (
    NRV,
    RV,
    BallotGroup,
    Election,
    integer_rows,
    project,
    tally,
    weighted_sums,
)
from rangecontrol.gadgets import (
    HittingSetInstance,
    X3CInstance,
    gadget_hs_candidates,
    gadget_hs_destructive_candidate_partition,
    gadget_x3c_voter_partition_te,
)
from rangecontrol.harness import (
    build_gadget,
    gen_random_control_instance,
    gen_random_election,
    gen_random_x3c,
)

from helpers import (
    _capped_vectors,
    brute_control,
    brute_tally,
    brute_winners,
    never_dead,
    plant_dominator,
    reference_lone_leader,
    reference_possible_lone_tops,
    reference_scan,
)


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

    def test_unknown_tie_model(self):
        with pytest.raises(ValueError, match="unknown tie model 'coin-flip'"):
            subelection_survivors(Election(1, ("a",)), RV, "coin-flip")


class TestAddCandidates:
    def test_already_winning_needs_nothing(self):
        base = election(1, ("w", "x", "d"), [(2, (1, 0, 1))])
        inst = ControlInstance(base=base, family=ADD_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", spoilers=("d",), limit=1)
        out = solve(inst)
        assert out.decision is True and out.witness == ()

    def test_destructive_spoiler(self):
        base = election(2, ("c", "w", "d"), [(3, (1, 0, 2)), (2, (0, 2, 0))])
        inst = ControlInstance(base=base, family=ADD_CANDIDATES, goal=DESTRUCTIVE,
                               system=NRV, distinguished="c", spoilers=("d",), limit=1)
        out = solve(inst)
        assert (out.decision, out.witness, out.explored) == (True, ("d",), 2)

    def test_gadget_no_instance(self):
        from rangecontrol.gadgets import HittingSetInstance, gadget_hs_candidates

        g = gadget_hs_candidates(HittingSetInstance(("b1", "b2"), (("b1",), ("b2",)), 1))
        cons = next(i for i in g.instances
                    if i.family == ADD_CANDIDATES and i.goal == CONSTRUCTIVE)
        assert solve(cons).decision is False


class TestDeleteCandidates:
    def test_sole_candidate_cannot_be_unseated(self):
        base = election(1, ("w",), [(1, (1,))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=DESTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        assert solve(inst).decision is False

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
        out = solve(inst)
        assert out.decision is True and out.witness == ("b2",)

    def test_winner_already_unique(self):
        base = election(1, ("w", "x"), [(2, (1, 0))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        out = solve(inst)
        assert out.decision is True and out.witness == ()

    def test_distinguished_never_deletable(self):
        base = election(1, ("w", "x"), [(2, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=2)
        # deleting x is the only action; w itself never enters the domain
        out = solve(inst)
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
        out = solve(inst)
        assert out.decision is True and out.witness == (0,)

    def test_one_addition_only_ties(self):
        assert solve(self._inst(1)).decision is False

    def test_two_additions_win(self):
        out = solve(self._inst(2))
        assert out.decision is True and out.witness == (2,)

    @pytest.mark.parametrize("system", [RV, NRV])
    def test_a_witness_taking_pool_voters_replays(self, system):
        base = election(2, ("a", "b", "w"), [(2, (2, 1, 0)), (1, (0, 2, 1))])
        pool = (BallotGroup((0, 0, 2), 1), BallotGroup((1, 0, 2), 3))
        inst = ControlInstance(base=base, family=ADD_VOTERS, goal=CONSTRUCTIVE,
                               system=system, distinguished="w", pool=pool, limit=3)
        out = solve(inst)
        assert out.decision is True and out.witness == (1, 2)
        assert replay_witness(inst, out.witness) is True
        assert brute_control(inst) is True

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
        out = solve(inst)
        assert out.decision is True and out.witness == (0, 0)

    def test_limit_two_removes_both_rivals(self):
        base = election(1, ("a", "w"), [(2, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=2)
        out = solve(inst)
        # canonical ballot order puts (0,1) before (1,0)
        assert out.decision is True and out.witness == (0, 2)

    def test_limit_one_not_enough(self):
        base = election(1, ("a", "w"), [(2, (1, 0)), (1, (0, 1))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=1)
        assert solve(inst).decision is False


class TestPartitionCandidates:
    def test_single_candidate(self):
        base = election(1, ("w",), [(1, (1,))])
        cons = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_PROMOTE)
        destr = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=DESTRUCTIVE,
                                system=RV, distinguished="w", tie_model=TIES_PROMOTE)
        assert solve(cons).decision is True
        assert solve(destr).decision is False

    def test_winner_keeps_winning_via_empty_first_group(self):
        base = election(1, ("w", "x"), [(2, (1, 0))])
        inst = ControlInstance(base=base, family=PARTITION_CANDIDATES, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        out = solve(inst)
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
        assert solve(inst).decision is True

    def test_everyone_eliminated_everywhere(self):
        base = election(1, ("x", "y"), [(1, (1, 1))])
        cons = ControlInstance(base=base, family=RUNOFF_PARTITION_CANDIDATES,
                               goal=CONSTRUCTIVE, system=RV, distinguished="x",
                               tie_model=TIES_ELIMINATE)
        destr = ControlInstance(base=base, family=RUNOFF_PARTITION_CANDIDATES,
                                goal=DESTRUCTIVE, system=RV, distinguished="x",
                                tie_model=TIES_ELIMINATE)
        assert solve(cons).decision is False
        out = solve(destr)
        assert out.decision is True and out.witness == ()


class TestPartitionVoters:
    def test_identical_ballots_cannot_unseat(self):
        base = election(2, ("w", "x"), [(3, (2, 1))])
        for ties in (TIES_PROMOTE, TIES_ELIMINATE):
            inst = ControlInstance(base=base, family=PARTITION_VOTERS, goal=DESTRUCTIVE,
                                   system=RV, distinguished="w", tie_model=ties)
            assert solve(inst).decision is False

    def test_x3c_gadget_yes(self):
        from rangecontrol.gadgets import X3CInstance, gadget_x3c_voter_partition_te

        g = gadget_x3c_voter_partition_te(
            X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))
        )
        assert solve(g.instances[0]).decision is True

    def test_single_candidate(self):
        base = election(1, ("w",), [(2, (1,))])
        cons = ControlInstance(base=base, family=PARTITION_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        destr = ControlInstance(base=base, family=PARTITION_VOTERS, goal=DESTRUCTIVE,
                                system=RV, distinguished="w", tie_model=TIES_ELIMINATE)
        assert solve(cons).decision is True
        assert solve(destr).decision is False


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

    @pytest.mark.parametrize("changes, message", [
        ({"goal": "neutral"}, "unknown goal 'neutral'"),
        ({"system": "approval"}, "unknown system 'approval'"),
        ({"family": ADD_CANDIDATES, "spoilers": ("zz",)}, "unknown spoiler candidates"),
        ({"family": PARTITION_VOTERS, "tie_model": TIES_PROMOTE}, "partition control takes no limit"),
        ({"tie_model": TIES_PROMOTE}, "tie model only applies to partition control"),
        ({"pool": (BallotGroup((0, 1), 1),)}, "pool: is only valid for add-voters"),
    ], ids=["goal", "system", "unknown-spoilers", "partition-limit", "ties", "pool"])
    def test_rejection(self, changes, message):
        fields = dict(base=self.BASE, family=DELETE_VOTERS, goal=CONSTRUCTIVE, system=RV,
                      distinguished="w", limit=1)
        with pytest.raises(InvalidInstance, match=f"^{message}"):
            ControlInstance(**{**fields, **changes})

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

    @pytest.mark.parametrize("family", control.FAMILIES)
    def test_negative_budget_rejected_and_zero_budget_kept(self, family):
        inst = next(inst for inst in map(gen_random_control_instance, itertools.count())
                    if inst.family == family)
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
    @settings(max_examples=60, deadline=None)
    def test_search_space_floor_bounds_the_voter_count(self, seed):
        inst = gen_random_control_instance(seed, max_actions=3000)
        floor = search_space_floor(inst)
        if inst.family in (ADD_VOTERS, DELETE_VOTERS):
            assert 1 <= floor <= search_space(inst)
        else:
            assert floor is None

    def test_search_space_floor_of_equal_shares_is_exact(self):
        base = election(3, ("a", "w"), [(5, (1, 0)), (5, (2, 0)), (5, (3, 0))])
        inst = ControlInstance(base=base, family=DELETE_VOTERS, goal=CONSTRUCTIVE,
                               system=RV, distinguished="w", limit=3)
        # each group's share of the limit is 1: the 8 tuples of 0/1 entries, of 20 in all
        assert (search_space_floor(inst), search_space(inst)) == (8, 20)
        assert search_space_floor(replace(inst, limit=15)) == search_space(replace(inst, limit=15)) == 216
        # a limit below the group count: 0/1 entries in the first two groups, of 10 tuples in all
        assert (search_space_floor(replace(inst, limit=2)), search_space(replace(inst, limit=2))) == (4, 10)

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


def _replay_case(name, family, rows, witness, **kwargs):
    kwargs.setdefault("limit", 1)
    base = election(1, ("a", "b", "w"), rows)
    inst = ControlInstance(base=base, family=family, goal=CONSTRUCTIVE, system=RV,
                           distinguished="w", **kwargs)
    return pytest.param(inst, witness, id=name)


@pytest.mark.parametrize("inst, witness", [
    # each witness reaches the goal, but no action of the instance is that witness
    _replay_case("5 of a pool group of 1", ADD_VOTERS, [(2, (1, 0, 0))], (5,),
                 pool=(BallotGroup((0, 0, 1), 1),)),
    _replay_case("a vector longer than the pool", ADD_VOTERS, [(1, (1, 0, 0))], (2, 0),
                 pool=(BallotGroup((0, 0, 1), 2),), limit=2),
    _replay_case("2 deletions at limit 1", DELETE_CANDIDATES,
                 [(1, (1, 1, 0)), (1, (0, 0, 1))], ("a", "b")),
    _replay_case("a repeated deletion", DELETE_CANDIDATES,
                 [(1, (1, 0, 0)), (1, (0, 0, 1))], ("a", "a"), limit=2),
    _replay_case("3 removals at limit 1", DELETE_VOTERS,
                 [(3, (1, 0, 0)), (1, (0, 0, 1))], (0, 3)),
    _replay_case("a non-spoiler addition", ADD_CANDIDATES, [(1, (0, 0, 1))], ("a",),
                 spoilers=("b",)),
])
def test_replay_rejects_an_action_outside_the_instance(inst, witness):
    with pytest.raises(InvalidInstance):
        replay_witness(inst, witness)


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

    @pytest.mark.parametrize("system", [RV, NRV])
    def test_every_mask_matches_project_and_tally(self, system):
        rng = random.Random(f"subset-winners:{system}")
        lcm_above_k = flat_seen = big_seen = 0
        for trial in range(60):
            k = 1 + trial % 7
            cands = tuple(f"c{i}" for i in range(rng.randint(1, 6)))
            rows = []
            for _ in range(rng.randint(0, 8)):
                if rng.random() < 0.2:
                    scores = (rng.randint(0, k),) * len(cands)  # the same score for everyone
                else:
                    scores = tuple(rng.randint(0, k) for _ in cands)
                mult = rng.choice([1, 2, 3, rng.randint(1, 10**6), 10**12 + rng.randint(0, 99)])
                rows.append((mult, scores))
            e = election(k, cands, rows)
            flat_seen += any(len(set(g.scores)) == 1 for g in e.ballots)
            big_seen += any(g.multiplicity > 10**6 for g in e.ballots)
            winners = _subset_winners(e, system)
            for mask in range(1 << len(cands)):  # mask 0 and one-candidate masks included
                subset = [c for i, c in enumerate(cands) if mask >> i & 1]
                sub = project(e, subset)
                got = frozenset(c for i, c in enumerate(cands) if winners(mask) >> i & 1)
                assert got == tally(sub, system).winners, (e, mask)
                if len(subset) > 1:
                    scale = integer_rows([g.scores for g in sub.ballots], k, NRV)[1]
                    lcm_above_k += scale > k
        assert flat_seen and big_seen
        assert lcm_above_k  # some NRV subelection puts its ballots on a scale above k

    def test_a_no_subset_solve_keeps_no_table_of_its_masks(self):
        # w tops every subelection alone, so all 2^13 deletions are decided, each once
        cands = tuple(f"c{i}" for i in range(13)) + ("w",)
        inst = ControlInstance(
            base=election(1, cands, [(1, (0,) * 13 + (1,))]),
            family=DELETE_CANDIDATES, goal=DESTRUCTIVE, system=RV, distinguished="w", limit=13,
        )
        tracemalloc.start()
        try:
            out = solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.decision, out.explored) == (False, 1 << 13)
        assert peak < 100_000

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


class TestCappedCounts:
    CAPS = [(), (0,), (3,), (0, 2), (2, 0, 3), (1, 1, 1, 1), (3, 1, 2), (1, 2, 0, 2, 1)]

    @pytest.mark.parametrize("caps", CAPS)
    def test_count_matches_the_vectors(self, caps):
        for cap_sum in range(sum(caps) + 3):
            assert _count_capped_vectors(caps, cap_sum) == len(list(_capped_vectors(caps, cap_sum)))

    @pytest.mark.parametrize("caps", CAPS)
    def test_every_subtree_size(self, caps):
        # level d with room r: the tuples over caps[d:] with sum <= r, for every
        # room that fixing entries 0..d-1 can leave
        for cap_sum in range(sum(caps) + 3):
            rows = list(_capped_counts(caps, cap_sum))[::-1]
            assert len(rows) == len(caps) + 1
            for d, (lo, row) in enumerate(rows):
                for room in range(max(0, cap_sum - sum(caps[:d])), cap_sum + 1):
                    size = len(list(_capped_vectors(caps[d:], room)))
                    assert row[min(room - lo, len(row) - 1)] == size, (cap_sum, d, room)

    def test_large_caps_count_quickly(self):
        start = time.perf_counter()
        count = _count_capped_vectors([4000] * 4, 4000)
        assert time.perf_counter() - start < 0.5
        assert count == math.comb(4004, 4)  # no single entry can exceed the limit

    def test_a_limit_past_the_caps_is_counted_without_walking_them(self):
        # each level's row has one room; past the row below's last room every
        # term of its window is the same, so no level walks its cap
        start = time.perf_counter()
        count = _count_capped_vectors([10**6], 10**7)
        assert time.perf_counter() - start < 0.05
        assert count == 10**6 + 1
        tracemalloc.start()
        try:
            assert _count_capped_vectors([10**6, 10**6], 10**7) == (10**6 + 1) ** 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestOdometer:
    @pytest.mark.parametrize("caps", [(), (0,), (0, 0), (2, 0, 3), (3, 1, 2), (1, 2, 0, 2, 1)])
    def test_totals_follow_the_vectors(self, caps):
        # moves of either sign: pool rows when adding voters, negated base rows when deleting
        rng = random.Random(repr(caps))
        for cap_sum in range(sum(caps) + 1):
            moves = [[rng.randint(-5, 5) for _ in range(3)] for _ in caps]
            start = [rng.randint(-20, 20) for _ in range(3)]
            walk = _odometer(caps, cap_sum, moves, start, never_dead)
            pairs = [(vec, list(totals)) for _, (vec, totals) in walk]
            box = itertools.product(*(range(c + 1) for c in caps))
            assert [vec for vec, _ in pairs] == [v for v in box if sum(v) <= cap_sum]
            assert [vec for vec, _ in pairs] == list(_capped_vectors(caps, cap_sum))
            for vec, totals in pairs:
                assert totals == weighted_sums(moves, vec, start)

    def test_full_box_is_product_order(self):
        # partition-voters scans split vectors with cap_sum = sum(mults)
        caps = (2, 0, 3, 1)
        rows = [(1, 0, 2), (0, 4, 1), (3, 3, 0), (0, 0, 5)]
        walk = _odometer(caps, sum(caps), rows, [0] * 3, never_dead)
        pairs = [(vec, list(totals)) for _, (vec, totals) in walk]
        assert [vec for vec, _ in pairs] == list(itertools.product(*(range(c + 1) for c in caps)))
        for vec, totals in pairs:
            assert totals == weighted_sums(rows, vec, [0] * 3)


def count_evaluations(monkeypatch) -> list[int]:
    """Make every later scan count the actions it evaluates into the returned cell."""
    evaluated = [0]
    scan = control._scan

    def counting_scan(steps, evaluate, budget):
        def counted(action):
            evaluated[0] += 1
            return evaluate(action)
        return scan(steps, counted, budget)

    monkeypatch.setattr(control, "_scan", counting_scan)
    return evaluated


def random_voter_instance(seed: int) -> ControlInstance:
    """A voter-family instance of at most a few hundred actions.  On odd seeds the
    ballots lean towards some candidates, so that whole subtrees of the scan are
    often dead; on even seeds they do not, so that ties are common."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    cands = ("a", "b", "w", "x")[: rng.randint(2, 4)]
    lean = [rng.randint(-k, k) if seed % 2 else 0 for _ in cands]

    def ballot():
        return tuple(min(k, max(0, rng.randint(0, k) + bias)) for bias in lean)

    while True:
        family = rng.choice((ADD_VOTERS, DELETE_VOTERS, PARTITION_VOTERS))
        rows = [(rng.randint(1, 3), ballot()) for _ in range(rng.randint(1, 5))]
        kwargs = {"limit": rng.randint(1, 4)}
        if family == ADD_VOTERS:
            kwargs["pool"] = tuple(BallotGroup(ballot(), rng.randint(1, 3))
                                   for _ in range(rng.randint(0, 4)))
        if family == PARTITION_VOTERS:
            kwargs = {"tie_model": TIES_PROMOTE}
            rows = rows[:4]
        inst = ControlInstance(base=election(k, cands, rows), family=family, goal=CONSTRUCTIVE,
                               system=RV, distinguished=rng.choice(cands), **kwargs)
        if search_space(inst) <= 400:
            return inst


class TestPrunedScan:
    EDGE_CASES = (
        # over the splits (0, *), w leads the second side until x ties it at (0, 2), the
        # witness; a sure-leader bound that let w's lead fall to 0 would skip that subtree
        ControlInstance(
            base=election(1, ("a", "w", "x"), [(2, (1, 1, 0)), (1, (0, 1, 1))]),
            family=PARTITION_VOTERS, goal=DESTRUCTIVE, system=RV, distinguished="w",
            tie_model=TIES_ELIMINATE,
        ),
        # the witness (0, 1) leaves a and x tied on the second side, so w, the first
        # side's winner, is the only finalist; a bound that forgot ties would skip it
        ControlInstance(
            base=election(2, ("a", "w", "x"), [(3, (1, 0, 1)), (2, (1, 2, 1))]),
            family=PARTITION_VOTERS, goal=CONSTRUCTIVE, system=RV, distinguished="w",
            tie_model=TIES_ELIMINATE,
        ),
    )

    def test_matches_the_unpruned_reference(self, monkeypatch):
        evaluated = count_evaluations(monkeypatch)
        explored = 0
        instances = [random_voter_instance(seed) for seed in range(60)]
        for inst in instances + list(self.EDGE_CASES):
            ties = (TIES_PROMOTE, TIES_ELIMINATE) if inst.family == PARTITION_VOTERS else (None,)
            for goal, system, tie_model in itertools.product(
                (CONSTRUCTIVE, DESTRUCTIVE), (RV, NRV), ties
            ):
                variant = replace(inst, goal=goal, system=system, tie_model=tie_model)
                full = reference_scan(variant)[2]  # at least 1: the empty action
                for budget in (None, 0, 1, full - 1, full, full // 2):
                    expected = reference_scan(variant, budget)
                    before = evaluated[0]
                    out = solve(variant, budget=budget)
                    assert (out.decision, out.witness, out.explored) == expected, (variant, budget)
                    assert evaluated[0] - before <= out.explored
                    explored += out.explored
        # whole subtrees were skipped, not only single actions
        assert evaluated[0] < explored // 2

    def test_dead_subtrees_are_counted_but_not_evaluated(self, monkeypatch):
        evaluated = count_evaluations(monkeypatch)
        # no two of these triples are disjoint, so there is no exact cover
        x3c = X3CInstance(("b1", "b2", "b3", "b4", "b5", "b6"),
                          (("b1", "b2", "b3"), ("b1", "b4", "b5"), ("b2", "b4", "b6")))
        (partition,) = gadget_x3c_voter_partition_te(x3c).instances
        # every ballot scores s above w, so w never tops the election alone
        dominated = ControlInstance(
            base=election(4, ("s", "w", "c"), [(3, (4, 3, 0)), (2, (4, 0, 1))]),
            family=ADD_VOTERS, goal=CONSTRUCTIVE, system=NRV, distinguished="w", limit=6,
            pool=(BallotGroup((4, 3, 2), 4), BallotGroup((3, 2, 0), 5), BallotGroup((2, 1, 0), 3)),
        )
        for inst, share in ((partition, 4), (dominated, 100)):
            evaluated[0] = 0
            out = solve(inst)
            assert out.decision is False
            assert out.explored == search_space(inst)
            assert evaluated[0] * share < out.explored, (evaluated[0], out.explored)

    def test_extreme_multiplicities_match_the_unpruned_reference(self, monkeypatch):
        # totals and margins near 10^13 and beyond: the bounds stay exact integers,
        # and the margin tables' diagonal guards stay out of every min and max
        evaluated = count_evaluations(monkeypatch)
        rng = random.Random("extreme")
        witnesses = explored = 0
        for _ in range(12):
            k = rng.randint(1, 7)
            cands = ("w", "a", "b", "c")[: rng.randint(1, 4)]
            rows = [(rng.choice((1, 2, 7, 10**3, 10**6 + 1, 10**12 - 1, 10**12)),
                     tuple(rng.randint(0, k) for _ in cands)) for _ in range(rng.randint(1, 3))]
            base = election(k, cands, rows)
            for goal, system, tie_model in itertools.product(
                (CONSTRUCTIVE, DESTRUCTIVE), (RV, NRV), (TIES_PROMOTE, TIES_ELIMINATE)
            ):
                variant = ControlInstance(base=base, family=PARTITION_VOTERS, goal=goal,
                                          system=system, distinguished="w", tie_model=tie_model)
                for budget in (0, 1, 3, 30, 150):
                    out = solve(variant, budget=budget)
                    expected = reference_scan(variant, budget)
                    assert (out.decision, out.witness, out.explored) == expected, (variant, budget)
                witnesses += out.decision is True
                explored += out.explored
        assert witnesses and evaluated[0] < explored // 2


def record_evaluations(monkeypatch) -> list:
    """Make every later scan append each action it evaluates to the returned list."""
    evaluated = []
    scan = control._scan

    def recording_scan(steps, evaluate, budget):
        def recorded(action):
            evaluated.append(action)
            return evaluate(action)
        return scan(steps, recorded, budget)

    monkeypatch.setattr(control, "_scan", recording_scan)
    return evaluated


def even_partition_election(seed: int) -> Election:
    """An election of at most 36 split vectors whose multiplicities are all even,
    so that a split vector can match its complement in every entry."""
    rng = random.Random(f"mirror:{seed}")
    k = rng.randint(1, 3)
    cands = ("a", "w", "x")[: rng.randint(2, 3)]
    while True:
        rows = [(rng.choice((2, 2, 4)), tuple(rng.randint(0, k) for _ in cands))
                for _ in range(rng.randint(1, 4))]
        base = election(k, cands, rows)
        if math.prod(g.multiplicity + 1 for g in base.ballots) <= 36:
            return base


def assert_no_mirror_evaluated(evaluated, mults) -> None:
    """No evaluated split vector comes after its complement ``mults - vec`` in canonical
    order, except one whose first entry unlike the complement's is its last: a subtree
    of one vector is evaluated, never bounded."""
    for vec, _ in evaluated:
        i = next((i for i, (v, m) in enumerate(zip(vec, mults)) if 2 * v != m), None)
        assert i is None or i == len(mults) - 1 or 2 * vec[i] < mults[i], vec


def record_proofs(monkeypatch) -> list[list[int]]:
    """Make every later decide-first proof append ``[steps taken, actions evaluated]``
    to the returned list; ``record_evaluations`` and ``count_evaluations`` see only ``_scan``."""
    proofs = []
    prove = control._prove_no

    def recording_prove(steps, evaluate, cap):
        proof = [0, 0]
        proofs.append(proof)

        def counted_steps():
            for step in steps:
                proof[0] += 1
                yield step

        def counted(action):
            proof[1] += 1
            return evaluate(action)
        return prove(counted_steps(), counted, cap)

    monkeypatch.setattr(control, "_prove_no", recording_prove)
    return proofs


# no two of these triples are disjoint, so there is no exact cover
(NO_COVER_PARTITION,) = gadget_x3c_voter_partition_te(X3CInstance(
    ("b1", "b2", "b3", "b4", "b5", "b6"),
    (("b1", "b2", "b3"), ("b1", "b4", "b5"), ("b2", "b4", "b6")),
)).instances


class TestMirrorSkip:
    EDGE_CASES = (
        # the first two canonical witnesses send half of the first group to each side:
        # destructive, rv, eliminate: witness (2, 0, 2)
        election(2, ("a", "w", "x"), [(4, (0, 1, 0)), (2, (0, 1, 2)), (2, (2, 1, 1))]),
        # constructive, rv, eliminate: witness (1, 0, 2)
        election(2, ("a", "w", "x"), [(2, (0, 2, 2)), (2, (2, 0, 1)), (2, (2, 2, 0))]),
        # constructive, rv, promote: witness (0, 3, 2), before its complement (2, 1, 0) by
        # its first entry although its second exceeds the complement's
        election(3, ("a", "w", "x"), [(2, (0, 3, 3)), (4, (1, 1, 0)), (2, (2, 0, 3))]),
    )

    def test_matches_the_unpruned_reference_at_every_budget(self, monkeypatch):
        evaluated = record_evaluations(monkeypatch)
        bases = [even_partition_election(seed) for seed in range(10)] + list(self.EDGE_CASES)
        halved_witnesses = no_scans = 0
        for base in bases:
            mults = [g.multiplicity for g in base.ballots]
            assert all(m % 2 == 0 for m in mults)
            for goal, system, tie_model in itertools.product(
                (CONSTRUCTIVE, DESTRUCTIVE), (RV, NRV), (TIES_PROMOTE, TIES_ELIMINATE)
            ):
                variant = ControlInstance(base=base, family=PARTITION_VOTERS, goal=goal,
                                          system=system, distinguished="w", tie_model=tie_model)
                for budget in range(search_space(variant) + 1):
                    expected = reference_scan(variant, budget)
                    out = solve(variant, budget=budget)
                    assert (out.decision, out.witness, out.explored) == expected, (variant, budget)
                if out.decision:
                    halved_witnesses += 2 * out.witness[0] == mults[0]
                no_scans += out.decision is False
                assert_no_mirror_evaluated(evaluated, mults)
                evaluated.clear()
        assert halved_witnesses >= 2 and no_scans

    def test_the_x3c_no_scan_skips_the_mirror_half(self, monkeypatch):
        evaluated = record_evaluations(monkeypatch)
        partition = NO_COVER_PARTITION
        walk, evaluate, _, _ = control._search_voter_partitions(partition, 0)
        out = control._scan(walk(), evaluate, None)  # the canonical walk
        assert out.decision is False
        assert out.explored == search_space(partition)
        assert_no_mirror_evaluated(evaluated, [g.multiplicity for g in partition.base.ballots])
        # the margin bounds alone leave about one vector in six to evaluate
        assert len(evaluated) * 10 < out.explored
        assert (len(evaluated), out.explored) == (9065, 107520)


class TestDecideFirst:
    def test_the_proof_holds_in_every_group_order(self, monkeypatch):
        # the proof's decision does not depend on the group order, and a solve that
        # proves first still gives the canonical walk's outcome at every budget
        rng = random.Random("decide-first")
        proofs = record_proofs(monkeypatch)
        instances = [inst for inst in map(random_voter_instance, range(90))
                     if inst.family == PARTITION_VOTERS]
        decisions = set()
        for inst in instances + [replace(inst, base=even_partition_election(seed), distinguished="w")
                                 for seed, inst in enumerate(instances[:6])]:
            for goal, system, tie_model in itertools.product(
                (CONSTRUCTIVE, DESTRUCTIVE), (RV, NRV), (TIES_PROMOTE, TIES_ELIMINATE)
            ):
                variant = replace(inst, goal=goal, system=system, tie_model=tie_model)
                space = search_space(variant)
                decision = reference_scan(variant)[0]
                walk, evaluate, _, order = control._search_voter_partitions(variant, 0)
                groups = range(len(variant.base.ballots))
                shuffles = [rng.sample(groups, len(groups)) for _ in range(2)]
                for shuffled in ([order] if order else []) + shuffles:
                    covered = control._prove_no(walk(shuffled), evaluate, None)
                    assert covered == (None if decision else space), (variant, shuffled)
                for budget in (None, 0, 1, space // 2, space - 1, space):
                    out = solve(variant, budget=budget)
                    expected = reference_scan(variant, budget)
                    assert (out.decision, out.witness, out.explored) == expected, (variant, budget)
                decisions.add((tie_model, decision))
        assert len(decisions) == 4 and sum(evaluated for _, evaluated in proofs)

    def test_the_seven_set_no_is_proven_in_a_few_evaluations(self, monkeypatch):
        canonical = record_evaluations(monkeypatch)
        proofs = record_proofs(monkeypatch)
        gadget = build_gadget("x3c-voter-partition-te", gen_random_x3c(2, 7, 0, planted=False))
        (partition,) = gadget.instances
        out = solve(partition)
        assert (out.decision, out.witness, out.explored) == (False, None, 6_635_520)
        # 14 evaluations at this writing; the canonical walk evaluates 1,172,625
        ((_, evaluated),) = proofs
        assert evaluated <= 20 and not canonical, (evaluated, len(canonical))

    def test_the_x3c_no_takes_no_canonical_walk(self, monkeypatch):
        canonical = record_evaluations(monkeypatch)
        proofs = record_proofs(monkeypatch)
        out = solve(NO_COVER_PARTITION)
        assert (out.decision, out.explored) == (False, 107520)
        # one proof of 114 steps evaluates nothing, where the canonical walk alone
        # evaluates 9,065 (TestMirrorSkip)
        assert (proofs, len(canonical)) == ([[114, 0]], 0)

    def test_a_budget_caps_the_proof_steps(self, monkeypatch):
        proofs = record_proofs(monkeypatch)
        for budget in (0, 1, 113, 114, 1000):
            proofs.clear()
            out = solve(NO_COVER_PARTITION, budget=budget)
            assert (out.decision, out.witness, out.explored) == (None, None, budget)
            # the proof takes a step past its cap only to find it there
            assert proofs == [[min(budget + 1, 114), 0]], budget

    def test_promote_walks_canonically_alone(self, monkeypatch):
        proofs = record_proofs(monkeypatch)
        out = solve(replace(NO_COVER_PARTITION, tie_model=TIES_PROMOTE))
        assert (out.decision, out.explored, proofs) == (False, 107520, [])


def count_kernel_calls(monkeypatch) -> list[int]:
    """Make every later solve append, per subset-winners kernel call, how many actions
    its scan had evaluated by then: the position of the action that made the call."""
    evaluated = record_evaluations(monkeypatch)
    calls = []
    kernel = control._subset_winners

    def counted_kernel(base, system):
        winners = kernel(base, system)

        def counted(mask):
            calls.append(len(evaluated))
            return winners(mask)
        return counted

    monkeypatch.setattr(control, "_subset_winners", counted_kernel)
    return calls


def dominated_election(n_weak: int, seed: int) -> Election:
    """20 groups shaped like perfbench's control files: every ballot scores s1, s2
    and s3 5, w in [1, 4] and each weak candidate c1.. below w, so each of s1..s3
    dominates w, and w beats every weak candidate in any subelection."""
    rng = random.Random(f"dominated:{seed}")
    rows = []
    for _ in range(20):
        w = rng.randint(1, 4)
        rows.append((rng.randint(1, 5), (*(rng.randint(0, w - 1) for _ in range(n_weak)), 5, 5, 5, w)))
    return election(5, (*(f"c{i + 1}" for i in range(n_weak)), "s1", "s2", "s3", "w"), rows)


class TestDominators:
    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_dominator_totals_at_least_the_dominated(self, k, data):
        # the lemma on brute_tally's Fractions: when r scores at least w on every ballot,
        # T_r >= T_w over every candidate subset holding both and every voter sub-multiset
        n = data.draw(st.integers(2, 5))
        r, w, *others = data.draw(st.permutations(range(n)))
        ballots = []
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                scores = [data.draw(st.integers(0, k))] * n  # a zero-span ballot
            else:
                scores = data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
                scores[r] = data.draw(st.integers(scores[w], k))
            ballots.append((data.draw(st.integers(1, 3)), scores))
        keep = sorted({r, w, *data.draw(st.sets(st.sampled_from(others)) if others else st.just(()))})
        counts = [data.draw(st.integers(0, mult)) for mult, _ in ballots]
        for kept in (counts, [0] * len(ballots)):  # a drawn sub-multiset, and the empty one
            rows = [(c, tuple(scores[i] for i in keep)) for c, (_, scores) in zip(kept, ballots) if c]
            sub = election(k, [f"c{i}" for i in keep], rows)
            for system in (RV, NRV):
                totals = brute_tally(sub, system)
                assert totals[f"c{r}"] >= totals[f"c{w}"], (system, rows)
                assert brute_winners(sub, system) != {f"c{w}"}

    def test_the_shortcut_changes_no_outcome(self, monkeypatch):
        # five seeded instances per family, each as drawn and with a planted dominator,
        # under both goals, rv and nrv, and both tie models: the same decision, witness
        # and explored count with dominators found and with none, at every budget
        rng = random.Random("dominators")
        by_family = {family: [] for family in control.FAMILIES}
        for seed in itertools.count():
            inst = gen_random_control_instance(seed)
            if len(by_family[inst.family]) < 5:
                by_family[inst.family].append(inst)
            if all(len(found) == 5 for found in by_family.values()):
                break
        shortcuts = set()
        for inst in itertools.chain(*by_family.values()):
            rivals = [c for c in inst.base.candidates if c != inst.distinguished]
            ties = (TIES_PROMOTE, TIES_ELIMINATE) if inst.tie_model else (None,)
            planted = [plant_dominator(inst, rng.choice(rivals))] if rivals else []
            for drawn in [inst, *planted]:
                for goal, system, tie_model in itertools.product(
                    (CONSTRUCTIVE, DESTRUCTIVE), (RV, NRV), ties
                ):
                    variant = replace(drawn, goal=goal, system=system, tie_model=tie_model)
                    space = search_space(variant)
                    for budget in (None, 0, 1, space // 2, space - 1, space):
                        with monkeypatch.context() as m:
                            m.setattr(control, "_dominators", lambda instance: 0)
                            without = solve(variant, budget=budget)
                        assert solve(variant, budget=budget) == without, (variant, budget)
                    assert without.decision == brute_control(variant), variant
                    if control._dominators(variant):
                        shortcuts.add((variant.family, goal))
        assert len(shortcuts) == 14

    @pytest.mark.parametrize("system", (RV, NRV))
    @pytest.mark.parametrize("family, limit, spoilers, space", [
        # perfbench's add-candidates file shape: s1..s3 are registered, so no
        # addition of weak candidates removes them
        (ADD_CANDIDATES, 7, tuple(f"c{i + 1}" for i in range(7)), 128),
        # three dominators and room to delete only two of them
        (DELETE_CANDIDATES, 2, (), 56),
    ])
    def test_a_dominator_that_always_stands_answers_unwalked(
        self, monkeypatch, system, family, limit, spoilers, space
    ):
        evaluated = record_evaluations(monkeypatch)
        inst = ControlInstance(base=dominated_election(7, 0), family=family, goal=CONSTRUCTIVE,
                               system=system, distinguished="w", limit=limit, spoilers=spoilers)
        out = solve(inst)
        assert (out.decision, out.witness, out.explored) == (False, None, space)
        assert space == search_space(inst) and evaluated == []

    @pytest.mark.parametrize("system", (RV, NRV))
    def test_a_late_deletion_tallies_once(self, monkeypatch, system):
        # perfbench's delete-candidates file shape: only the last action, deleting
        # s1..s3, keeps no dominator, so only it reaches the kernel
        calls = count_kernel_calls(monkeypatch)
        inst = ControlInstance(base=dominated_election(7, 0), family=DELETE_CANDIDATES,
                               goal=CONSTRUCTIVE, system=system, distinguished="w", limit=3)
        out = solve(inst)
        assert (out.decision, out.witness, out.explored) == (True, ("s1", "s2", "s3"), 176)
        assert out.explored == search_space(inst) and calls == [176]

    @pytest.mark.parametrize("system", (RV, NRV))
    @pytest.mark.parametrize("goal, witness, explored, tallies", [
        # the first action whose w side holds no dominator: s1..s3 tie out of the
        # first group, and w wins the second and the final, one tally each
        (CONSTRUCTIVE, ("s1", "s2", "s3"), 0b0111000000 + 1, 3),
        # the first action: w shares the second group with s1..s3
        (DESTRUCTIVE, (), 1, 0),
    ])
    def test_a_dominated_runoff_partition_tallies_only_at_its_witness(
        self, monkeypatch, system, goal, witness, explored, tallies
    ):
        calls = count_kernel_calls(monkeypatch)
        inst = ControlInstance(base=dominated_election(6, 1), family=RUNOFF_PARTITION_CANDIDATES,
                               goal=goal, system=system, distinguished="w", tie_model=TIES_ELIMINATE)
        out = solve(inst)
        assert (out.decision, out.witness, out.explored) == (True, witness, explored)
        assert calls == [explored] * tallies

    @pytest.mark.parametrize("system", (RV, NRV))
    def test_a_runoff_side_that_drops_w_leaves_the_other_untallied(self, monkeypatch, system):
        # no rival dominates w, but a beats w on their side {a, w}: that one tally
        # decides the mask, and the other side {b} is never tallied
        calls = count_kernel_calls(monkeypatch)
        inst = ControlInstance(base=election(2, ("a", "w", "b"), [(3, (2, 1, 0)), (1, (0, 2, 2))]),
                               family=RUNOFF_PARTITION_CANDIDATES, goal=CONSTRUCTIVE, system=system,
                               distinguished="w", tie_model=TIES_ELIMINATE)
        assert control._dominators(inst) == 0
        _, evaluate, _, _ = control._search_candidate_partitions(inst, 0)
        assert evaluate(0b011) is False
        assert len(calls) == 1


def test_only_solve_drives_the_scan_and_the_proof():
    # each family hands solve its walk, evaluator and witness decoder; a second
    # caller of either driver would be a second place to wire the budget, the
    # dominance short-cuts, the proof walk and the witness
    drivers = {"_scan", "_prove_no"}

    def uses(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in drivers
                or isinstance(node, ast.Attribute) and node.attr in drivers]

    users = {}
    for path in Path(control.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        users[path.name] = uses(tree)
        if path.name == "control.py":
            (solve_def,) = [node for node in tree.body
                            if isinstance(node, ast.FunctionDef) and node.name == "solve"]
            in_solve = uses(solve_def)
    assert len(in_solve) == 2
    assert {name: lines for name, lines in users.items() if lines} == {"control.py": in_solve}


class TestMarginLines:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_leader_and_top_tests_match_their_per_pair_definitions(self, n):
        # side 1 reads the falls table by rows, side 2 by columns (its transpose)
        rng = random.Random(f"margin-lines:{n}")
        leaders = tops = 0
        for _ in range(30):
            k = rng.randint(1, 7)
            vectors = [tuple(rng.randint(0, k) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            rows, _ = integer_rows(vectors, k, rng.choice((RV, NRV)))
            mults = [rng.choice((0, 1, 2, 5, 10**6, 10**12)) for _ in rows]
            ceiling = sum(m * max(row) for m, row in zip(mults, rows))
            deltas = [[row[a] - row[c] for a in range(n) for c in range(n)] for row in rows]
            falls = _suffix_falls(mults, deltas, n * n)
            for table, (lead_rows, lead_columns, top_rows, top_columns) in zip(
                falls, _margin_lines(rows, mults, n)
            ):
                transposed = [table[c * n + a] for a in range(n) for c in range(n)]
                for _ in range(8):
                    values = (0, ceiling, rng.randint(0, ceiling), rng.randint(0, ceiling))
                    totals = [rng.choice(values) for _ in range(n)]
                    for falls_of, lead, top in ((table, lead_rows, top_columns),
                                                (transposed, lead_columns, top_rows)):
                        leader = reference_lone_leader(totals, falls_of)
                        possible = reference_possible_lone_tops(totals, falls_of)
                        assert _lone_leader(totals, lead) == leader, (totals, falls_of)
                        assert _possible_lone_tops(totals, top) == possible, (totals, falls_of)
                        leaders += leader != 0
                        tops += 0 < len(possible) < n
        assert leaders and (tops or n == 1)


class TestPinnedOutputs:
    def test_solver_outputs_are_pinned(self):
        # decision, canonical witness and explored count of every family on
        # 300 seeded instances, unbudgeted and under a small budget
        digest = hashlib.sha256()
        for seed in range(300):
            inst = gen_random_control_instance(seed)
            out = solve(inst)
            digest.update(repr((
                inst.family, out.decision, out.witness, out.explored, search_space(inst)
            )).encode())
            budgeted = solve(inst, budget=seed % 20)
            digest.update(repr((budgeted.decision, budgeted.witness, budgeted.explored)).encode())
        assert digest.hexdigest() == (
            "b23848e752a09d08b6e0e56a1bf4b395226964765549d42f7df609e3fb6c8865"
        )

