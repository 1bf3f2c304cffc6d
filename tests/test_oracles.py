"""Ground-truth solvers for hitting set and exact cover by 3-sets."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangecontrol.gadgets import (
    GadgetError,
    HittingSetInstance,
    X3CInstance,
    satisfies_size_restriction,
)
from rangecontrol.harness import gen_random_hs
from rangecontrol.oracles import solve_hitting_set, solve_x3c

from helpers import brute_hitting_set, brute_x3c, hitting_set_exhaustive


def hs(universe, sets, k):
    return HittingSetInstance(tuple(universe), tuple(tuple(s) for s in sets), k)


class TestHittingSet:
    def test_two_disjoint_singletons(self):
        assert solve_hitting_set(hs("b1 b2".split(), [["b1"], ["b2"]], 1)).decision is False

    def test_budget_at_family_size_always_yes(self):
        inst = hs("b1 b2 b3".split(), [["b1", "b2"], ["b3"], ["b2"]], 3)
        assert inst.k >= inst.m
        assert solve_hitting_set(inst).decision is True

    def test_lexicographic_minimum_witness(self):
        out = solve_hitting_set(hs("b1 b2".split(), [["b1"], ["b1", "b2"]], 1))
        assert out.decision is True and out.witness == ("b1",) and out.optimum == 1

    def test_witness_hits_everything(self):
        inst = hs("b1 b2 b3 b4".split(), [["b2", "b3"], ["b1", "b4"], ["b3"]], 2)
        out = solve_hitting_set(inst)
        assert out.decision
        assert all(set(out.witness) & set(s) for s in inst.sets)

    @given(st.integers(0, 5000))
    @settings(max_examples=120, deadline=None)
    def test_branch_and_bound_matches_exhaustive(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 7)
        m = rng.randint(1, 5)
        k = rng.randint(1, n)
        inst = gen_random_hs(n, m, k, seed)
        bb = solve_hitting_set(inst)
        ex = hitting_set_exhaustive(inst)
        assert (bb.decision, bb.witness, bb.optimum) == (ex.decision, ex.witness, ex.optimum)
        assert bb.decision == brute_hitting_set(inst.universe, inst.sets, inst.k)

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_budget_monotonicity(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 6)
        inst = gen_random_hs(n, rng.randint(1, 4), rng.randint(1, n - 1), seed)
        if solve_hitting_set(inst).decision:
            bigger = HittingSetInstance(inst.universe, inst.sets, inst.k + 1)
            assert solve_hitting_set(bigger).decision is True

    def test_a_call_leaves_no_reference_cycle(self):
        inst = hs("b1 b2 b3 b4".split(), [["b2", "b3"], ["b1", "b4"], ["b3"], ["b1", "b2"]], 2)
        gc.collect()
        gc.disable()
        try:
            out = solve_hitting_set(inst)
            assert gc.collect() == 0  # nothing the call made needs the cyclic collector
        finally:
            gc.enable()
        assert out.witness == ("b1", "b3") and out.optimum == 2


class TestX3C:
    def test_single_covering_triple(self):
        inst = X3CInstance(("b1", "b2", "b3"), (("b1", "b2", "b3"),))
        out = solve_x3c(inst)
        assert out.decision is True and out.witness == (("b1", "b2", "b3"),)

    def test_disjoint_pair_found(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        inst = X3CInstance(
            elems,
            (("b1", "b2", "b3"), ("b3", "b4", "b5"), ("b4", "b5", "b6")),
        )
        out = solve_x3c(inst)
        assert out.decision is True
        assert out.witness == (("b1", "b2", "b3"), ("b4", "b5", "b6"))

    def test_uncovered_element_rejected_upstream(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        with pytest.raises(GadgetError):
            X3CInstance(
                elems,
                (("b1", "b2", "b3"), ("b2", "b3", "b4"), ("b1", "b2", "b4")),
            )

    def test_covered_but_no_exact_cover(self):
        elems = tuple(f"b{i}" for i in range(1, 7))
        inst = X3CInstance(
            elems,
            (("b1", "b2", "b3"), ("b3", "b4", "b5"), ("b3", "b5", "b6")),
        )
        assert solve_x3c(inst).decision is False

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        from rangecontrol.harness import gen_random_x3c

        import random

        rng = random.Random(seed)
        k = rng.randint(1, 2)
        count = rng.randint(k, k + 2)
        inst = gen_random_x3c(k, count, seed)
        out = solve_x3c(inst)
        assert out.decision == brute_x3c(inst.elements, inst.sets)
        if out.decision:
            covered = [e for s in out.witness for e in s]
            assert sorted(covered) == sorted(inst.elements)


class TestRestrictedValidation:
    def test_tight_case_valid(self):
        inst = hs([f"b{i}" for i in range(1, 7)], [["b1"]], 1)
        assert satisfies_size_restriction(inst) is True

    def test_two_sets_too_many(self):
        inst = hs([f"b{i}" for i in range(1, 7)], [["b1"], ["b2"]], 1)
        assert satisfies_size_restriction(inst) is False

    def test_empty_family_rejected_upstream(self):
        with pytest.raises(GadgetError):
            hs(["b1"], [], 1)
