"""Core election semantics: exact tallies, normalization, projections."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangecontrol.elections import (
    MAX_ROW_BITS,
    NRV,
    RV,
    BallotGroup,
    Election,
    InvalidElection,
    drop_voters,
    from_approval,
    integer_rows,
    project,
    scale_election,
    take_voters,
    tally,
    weighted_sums,
)

from helpers import brute_tally, brute_winners, normalized_row

TWO_RANGE = Election.from_rows(
    2, ("a", "b", "c"), [(5, (2, 0, 1)), (6, (0, 2, 0)), (4, (1, 2, 0))]
)
SHIFTY = Election.from_rows(
    2, ("a", "b", "c"), [(7, (2, 0, 0)), (4, (0, 2, 0)), (4, (0, 1, 2))]
)


def totals_as_ints(t):
    return {c: v for c, v in t.totals.items()}


class TestTally:
    def test_two_range_rv(self):
        # the table sums to b=20 even though the surrounding prose
        # announces a at 14; the arithmetic wins (see README)
        t = tally(TWO_RANGE, RV)
        assert totals_as_ints(t) == {"a": 14, "b": 20, "c": 5}
        assert t.unique_winner == "b"

    def test_shifty_nrv(self):
        t = tally(SHIFTY, NRV)
        assert totals_as_ints(t) == {"a": 14, "b": 12, "c": 8}
        assert t.unique_winner == "a"

    @pytest.mark.parametrize("system", [RV, NRV])
    def test_single_candidate_always_wins(self, system):
        e = Election.from_rows(3, ("x",), [(4, (0,)), (2, (3,))])
        t = tally(e, system)
        assert t.unique_winner == "x"

    def test_empty_candidate_set(self):
        e = Election(2, ())
        t = tally(e, RV)
        assert t.totals == {} and t.winners == frozenset() and t.unique_winner is None

    def test_zero_voters_full_tie(self):
        e = Election(2, ("a", "b"))
        t = tally(e, NRV)
        assert t.winners == frozenset({"a", "b"}) and t.unique_winner is None

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            tally(TWO_RANGE, "borda")


def counted(scores, k):
    """The one ballot ``scores`` as :func:`integer_rows` counts it under nrv:
    its integer row over the scale ``L``."""
    (row,), scale = integer_rows([scores], k, NRV)
    return tuple(Fraction(v, scale) for v in row)


class TestNormalizedRow:
    """The Fraction reference row, and ``integer_rows``' rows: ``L`` times the reference."""

    def test_scales_up(self):
        assert normalized_row((0, 1), 2) == (Fraction(0), Fraction(2))
        assert integer_rows([(0, 1)], 2, NRV) == ([(0, 2)], 1)

    def test_uniform_discarded(self):
        assert normalized_row((1, 1, 1), 7) is None
        assert integer_rows([(1, 1, 1)], 7, NRV) == ([(0, 0, 0)], 1)

    def test_already_spanning(self):
        assert normalized_row((0, 1, 2), 2) == (Fraction(0), Fraction(1), Fraction(2))
        assert integer_rows([(0, 1, 2)], 2, NRV) == ([(0, 2, 4)], 2)

    def test_shifts_minimum(self):
        assert normalized_row((1, 2), 2) == (Fraction(0), Fraction(2))
        assert integer_rows([(1, 2)], 2, NRV) == ([(0, 2)], 1)

    @given(
        st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=6), min_size=1, max_size=4),
        st.integers(1, 6),
    )
    def test_range_property(self, raw, k):
        ballots = [[s % (k + 1) for s in scores] for scores in raw]
        rows, scale = integer_rows(ballots, k, NRV)
        for scores, row in zip(ballots, rows):
            norm = normalized_row(scores, k)
            if norm is None:
                assert max(scores) == min(scores)
                assert row == (0,) * len(scores)
                continue
            assert min(norm) == 0 and max(norm) == k
            assert all(0 <= v <= k for v in norm)
            assert min(row) == 0 and max(row) == k * scale
            assert row == tuple(scale * v for v in norm)

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=6),
        st.integers(1, 5),
    )
    def test_idempotent(self, raw, k):
        scores = [s % (k + 1) for s in raw]
        norm = normalized_row(scores, k)
        if norm is not None:
            assert normalized_row(norm, k) == norm
            (row,), _ = integer_rows([scores], k, NRV)
            assert counted(row, k) == counted(scores, k) == norm

    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=5),
        st.integers(1, 4),
        st.integers(0, 4),
    )
    def test_affine_shift_invariance(self, raw, k, shift):
        scores = [s % (k + 1) for s in raw]
        if max(scores) + shift > k:
            shift = k - max(scores)
        shifted = [s + shift for s in scores]
        assert normalized_row(scores, k) == normalized_row(shifted, k)
        assert integer_rows([scores], k, NRV) == integer_rows([shifted], k, NRV)


class TestIntegerKernel:
    def test_rv_rows_are_raw_scores(self):
        assert integer_rows([(2, 0, 1), (0, 0, 0)], 2, RV) == ([(2, 0, 1), (0, 0, 0)], 1)

    def test_nrv_scale_is_lcm_of_spans(self):
        rows, scale = integer_rows([(0, 3), (0, 4), (1, 6), (7, 0), (2, 2)], 7, NRV)
        assert scale == 420
        assert rows == [(0, 2940), (0, 2940), (0, 2940), (2940, 0), (0, 0)]

    def test_partial_span_entries(self):
        # spans 2 and 3: L = 6, and 1 of span 2 at k = 4 is 2 = 12/6
        rows, scale = integer_rows([(0, 1, 2), (0, 3, 1)], 4, NRV)
        assert scale == 6
        assert rows == [(0, 12, 24), (0, 24, 8)]

    def test_no_counted_ballot_means_unit_scale(self):
        assert integer_rows([(1, 1), ()], 3, NRV) == ([(0, 0), ()], 1)

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            integer_rows([(0, 1)], 1, "borda")

    def test_an_oversized_scale_is_refused_before_any_row_is_built(self):
        # spans 1..20000: L = lcm(1..20000) has 28,820 bits, and 40,000 scores of
        # that length would take about 144 MB
        vectors = [(0, span) for span in range(1, 20_001)]
        bits = math.lcm(*range(1, 20_001)).bit_length()
        assert bits * 40_000 > MAX_ROW_BITS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                integer_rows(vectors, 20_000, NRV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (f"the nrv scale has {bits} bits: exact rows for 40000 scores "
                                  f"would exceed {MAX_ROW_BITS} bits")
        assert peak < 4 * 2**20
        assert integer_rows(vectors, 20_000, RV)[1] == 1  # rv rows are the raw scores

    def test_weighted_sums_skip_zero_weights(self):
        assert weighted_sums([(1, 2), (5, 5)], [3, 0], [1, 1]) == [4, 7]

    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([RV, NRV]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_fraction_boundary_matches_normalized_row(self, seed, k, system, data):
        from rangecontrol.harness import gen_random_election

        e = gen_random_election(seed, max_candidates=5, max_groups=6, k=k)
        mask = data.draw(st.integers(1, (1 << len(e.candidates)) - 1))
        sub = project(e, [c for i, c in enumerate(e.candidates) if mask >> i & 1])
        rows, scale = integer_rows([g.scores for g in sub.ballots], k, system)
        sums = weighted_sums(rows, [g.multiplicity for g in sub.ballots], [0] * len(sub.candidates))
        expected = [Fraction(0)] * len(sub.candidates)
        for g in sub.ballots:
            row = g.scores if system == RV else normalized_row(g.scores, k)
            if row is not None:
                expected = [t + g.multiplicity * s for t, s in zip(expected, row)]
        assert [Fraction(v, scale) for v in sums] == expected
        assert list(tally(sub, system).totals.values()) == expected


class TestProject:
    def test_shifty_projection_flips_winner(self):
        t = tally(project(SHIFTY, ("a", "b")), NRV)
        assert totals_as_ints(t) == {"a": 14, "b": 16}
        assert t.unique_winner == "b"

    def test_identity(self):
        assert project(TWO_RANGE, TWO_RANGE.candidates) == TWO_RANGE

    def test_empty(self):
        e = project(TWO_RANGE, ())
        assert e.candidates == ()
        assert e.total_voters == TWO_RANGE.total_voters
        assert tally(e, NRV).winners == frozenset()

    def test_unknown_candidate(self):
        with pytest.raises(InvalidElection):
            project(TWO_RANGE, ("a", "zz"))

    def test_keeps_raw_scores(self):
        # (0,1,2) restricted to the last two columns stays (1,2); the
        # rescaling to (0,2) happens at tally time only
        e = project(SHIFTY, ("b", "c"))
        assert BallotGroup((1, 2), 4) in e.ballots


class TestScale:
    def test_identity_scale(self):
        assert scale_election(TWO_RANGE, 1) == TWO_RANGE

    def test_two_range_by_three(self):
        t = tally(scale_election(TWO_RANGE, 3), RV)
        assert totals_as_ints(t) == {"a": 42, "b": 60, "c": 15}
        assert t.unique_winner == "b"

    def test_shifty_by_two_keeps_winners(self):
        assert tally(scale_election(SHIFTY, 2), NRV).winners == tally(SHIFTY, NRV).winners

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            scale_election(TWO_RANGE, 0)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 7]), st.sampled_from([RV, NRV]))
    @settings(max_examples=60, deadline=None)
    def test_totals_scale_exactly(self, seed, a, system):
        from rangecontrol.harness import gen_random_election

        e = gen_random_election(seed)
        before = tally(e, system)
        after = tally(scale_election(e, a), system)
        assert after.winners == before.winners
        assert all(after.totals[c] == a * before.totals[c] for c in e.candidates)


class TestFromApproval:
    IIA = (((1, 0, 0), 5), ((0, 1, 0), 4), ((0, 0, 1), 2))

    def test_iia_table(self):
        e = from_approval(("a", "b", "c"), self.IIA)
        t = tally(e, RV)
        assert totals_as_ints(t) == {"a": 5, "b": 4, "c": 2}
        assert t.unique_winner == "a"

    def test_all_approvers_discarded_under_nrv(self):
        e = from_approval(("a", "b"), (((1, 1), 1),))
        assert tally(e, NRV).winners == tally(e, RV).winners == frozenset({"a", "b"})

    def test_empty_voters(self):
        e = from_approval(("a", "b"), ())
        t = tally(e, RV)
        assert t.winners == frozenset({"a", "b"})

    def test_score_outside_01(self):
        with pytest.raises(InvalidElection):
            from_approval(("a",), (((2,), 1),))


class TestCanonicalization:
    def test_merges_identical_vectors(self):
        e = Election.from_rows(2, ("a", "b"), [(2, (1, 0)), (3, (1, 0)), (1, (0, 2))])
        assert len(e.ballots) == 2
        assert BallotGroup((1, 0), 5) in e.ballots

    def test_structural_equality(self):
        e1 = Election.from_rows(2, ("a", "b"), [(1, (0, 1)), (2, (2, 0))])
        e2 = Election.from_rows(2, ("a", "b"), [(2, (2, 0)), (1, (0, 1))])
        assert e1 == e2 and hash(e1) == hash(e2)

    @pytest.mark.parametrize(
        "k,cands,rows",
        [
            (0, ("a",), []),
            (2, ("a", "a"), []),
            (2, ("a", ""), []),
            (2, ("a", "b c"), []),
            (2, ("a",), [(1, (3,))]),
            (2, ("a",), [(0, (1,))]),
            (2, ("a", "b"), [(1, (1,))]),
        ],
    )
    def test_invalid_elections(self, k, cands, rows):
        with pytest.raises(InvalidElection):
            Election.from_rows(k, cands, rows)

    def test_from_maps_defaults_and_unknown(self):
        e = Election.from_maps(2, ("a", "b"), [({"a": 2}, 3)])
        assert e.ballots == (BallotGroup((2, 0), 3),)
        with pytest.raises(InvalidElection):
            Election.from_maps(2, ("a",), [({"zz": 1}, 1)])


class TestVoterSlicing:
    def test_take_and_drop_are_complements(self):
        counts = [2, 3, 0]
        taken = take_voters(TWO_RANGE, counts)
        dropped = drop_voters(TWO_RANGE, counts)
        assert taken.total_voters + dropped.total_voters == TWO_RANGE.total_voters

    def test_take_out_of_range(self):
        with pytest.raises(ValueError):
            take_voters(TWO_RANGE, [99, 0, 0])
        with pytest.raises(ValueError):
            take_voters(TWO_RANGE, [1])


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000), st.sampled_from([RV, NRV]))
    @settings(max_examples=80, deadline=None)
    def test_tally_matches_expanded_summation(self, seed, system):
        from rangecontrol.harness import gen_random_election

        e = gen_random_election(seed, max_candidates=4, max_groups=4, max_multiplicity=3)
        t = tally(e, system)
        assert t.totals == brute_tally(e, system)
        assert t.winners == brute_winners(e, system)

    @given(st.integers(0, 10_000), st.sampled_from([RV, NRV]), st.data())
    @settings(max_examples=50, deadline=None)
    def test_multiplicity_linearity(self, seed, system, data):
        from rangecontrol.harness import gen_random_election

        e = gen_random_election(seed, max_multiplicity=4)
        if not e.ballots:
            return
        idx = data.draw(st.integers(0, len(e.ballots) - 1))
        group = e.ballots[idx]
        if group.multiplicity < 2:
            return
        split = data.draw(st.integers(1, group.multiplicity - 1))
        rows = []
        for i, g in enumerate(e.ballots):
            if i == idx:
                rows.append((split, g.scores))
                rows.append((g.multiplicity - split, g.scores))
            else:
                rows.append((g.multiplicity, g.scores))
        again = Election.from_rows(e.k, e.candidates, rows)
        assert tally(again, system).totals == tally(e, system).totals
