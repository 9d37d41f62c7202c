import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeint.cube import (
    EnumerationBudgetError,
    LinearMap,
    ORACLE_WORK_BUDGET,
    evaluate_pattern,
    full_mask,
    intersection_closure,
    intersection_size,
    oracle_enumerate,
    row_mask,
    row_masks,
    _scaled_row,
)

from lemmas import fix_coordinate_count, restrict, support
from oracles import reference_row_mask


def lm(k, rows):
    return LinearMap.from_rows(k, rows)


def members(mask):
    """The points whose bits are set in a pattern mask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def all_sign_maps(k, m):
    rows = list(product((-1, 0, 1), repeat=k))
    for combo in product(rows, repeat=m):
        yield lm(k, combo)


class TestEvaluatePattern:
    def test_identity_single_coordinate(self):
        mask = evaluate_pattern(lm(1, [[1]]))
        assert mask.bit_count() == 2
        assert members(mask) == [0, 1]

    def test_difference_row(self):
        mask = evaluate_pattern(lm(2, [[1, -1]]))
        assert mask.bit_count() == 3
        assert members(mask) == [0b00, 0b01, 0b11]

    def test_doubled_entry_kills_the_one(self):
        mask = evaluate_pattern(lm(1, [[2]]))
        assert mask.bit_count() == 1
        assert members(mask) == [0]

    def test_rational_entries_exact(self):
        mask = evaluate_pattern(lm(2, [[Fraction(1, 2), Fraction(1, 2)]]))
        assert mask.bit_count() == 2  # 00 and 11

    def test_zero_rows_vacuous(self):
        mask = evaluate_pattern(lm(3, [[0, 0, 0], [0, 0, 0]]))
        assert mask.bit_count() == 8

    def test_no_rows_full_cube(self):
        mask = evaluate_pattern(LinearMap(3, ()))
        assert mask.bit_count() == 8


class TestSupportRestrict:
    def test_support_read_off(self):
        rows, total = support(lm(3, [[1, -1, 0], [0, 1, 1]]))
        assert rows == (frozenset({1, 2}), frozenset({2, 3}))
        assert total == frozenset({1, 2, 3})

    def test_zero_map_supports_empty(self):
        rows, total = support(lm(2, [[0, 0]]))
        assert rows == (frozenset(),)
        assert total == frozenset()

    def test_three_entry_row(self):
        rows, _ = support(lm(4, [[1, 1, -1, 0]]))
        assert rows == (frozenset({1, 2, 3}),)

    def test_restrict_picks_rows(self):
        m = lm(2, [[1, 0], [0, 1], [1, 1]])
        r = restrict(m, {1, 3})
        assert r.entries == (m.entries[0], m.entries[2])

    def test_restrict_everything_is_identity(self):
        m = lm(2, [[1, 0], [0, 1]])
        assert restrict(m, {1, 2}) == m

    def test_restrict_rejects_empty_or_bad(self):
        m = lm(2, [[1, 0]])
        with pytest.raises(ValueError):
            restrict(m, set())
        with pytest.raises(IndexError):
            restrict(m, {2})

    def test_restriction_monotone_exhaustive(self):
        for mp in all_sign_maps(2, 2):
            t_full = intersection_size(mp)
            for i in (1, 2):
                assert intersection_size(restrict(mp, {i})) >= t_full


class TestConditionRedundancy:
    """A condition is redundant when dropping it leaves the pattern as it was."""

    def test_duplicate_row(self):
        assert evaluate_pattern(lm(2, [[1, -1], [1, -1]])) == evaluate_pattern(
            lm(2, [[1, -1]])
        )

    def test_star_pair_all_needed(self):
        m = lm(4, [[1, 1, -1, 0], [0, 1, 1, -1]])
        both = evaluate_pattern(m)
        for i in (1, 2):
            assert evaluate_pattern(restrict(m, {i})) != both

    def test_zero_row_redundant(self):
        assert evaluate_pattern(lm(2, [[1, -1], [0, 0]])) == evaluate_pattern(
            lm(2, [[1, -1]])
        )

    def test_single_row(self):
        assert evaluate_pattern(lm(2, [[1, -1]])) != full_mask(2)
        assert evaluate_pattern(lm(2, [[1, 0]])) == full_mask(2)


class TestFreeCoordinates:
    """Coordinate i is bit i-1 of a point, so a pattern that ignores it holds
    x exactly when it holds x with that bit flipped."""

    def test_difference_row_with_free_coordinate(self):
        two = evaluate_pattern(lm(2, [[1, -1]]))
        three = evaluate_pattern(lm(3, [[1, -1, 0]]))
        assert three == two | two << 4
        assert three.bit_count() == two.bit_count() << 1 == 6

    def test_free_middle_coordinate(self):
        # x1 - x3 in {0,1}: (x1,x3) in {00, 10, 11}, x2 free
        assert members(evaluate_pattern(lm(3, [[1, 0, -1]]))) == [0, 1, 2, 3, 5, 7]

    def test_zero_map_fully_free(self):
        assert evaluate_pattern(lm(3, [[0, 0, 0]])) == full_mask(3)

    def test_support_coordinates_not_free(self):
        mask = evaluate_pattern(lm(2, [[1, -1]]))
        for c in (1, 2):
            flip = 1 << (c - 1)
            assert any(mask >> x & 1 != mask >> (x ^ flip) & 1 for x in range(4))


class TestFixCoordinateCount:
    def test_zero_column_halves(self):
        m = lm(3, [[1, -1, 0]])
        assert fix_coordinate_count(m, 3) == intersection_size(m) // 2

    def test_star_halves_everywhere(self):
        m = lm(4, [[1, 1, -1, 0], [1, 1, 0, -1]])
        t = intersection_size(m)
        for i in range(1, 5):
            assert fix_coordinate_count(m, i) == t // 2

    def test_difference_row_direct(self):
        m = lm(2, [[1, -1]])
        # members 00, 01, 11; only 00 has first coordinate zero
        assert fix_coordinate_count(m, 1) == 1

    def test_agrees_with_enumeration(self):
        for mp in all_sign_maps(3, 1):
            mask = evaluate_pattern(mp)
            for i in (1, 2, 3):
                direct = sum(
                    1 for x in members(mask) if not (x >> (i - 1)) & 1
                )
                assert fix_coordinate_count(mp, i) == direct


class TestOracle:
    def test_k2_single_row(self):
        assert oracle_enumerate(2, 1, (-1, 0, 1)).sizes == (1, 2, 3, 4)

    def test_k4_above_half(self):
        sizes = oracle_enumerate(4, 1, (-1, 0, 1), keep_above=Fraction(1, 2))
        assert sizes.sizes == (10, 12, 16)

    def test_zero_entries_only(self):
        assert oracle_enumerate(3, 2, (0,)).sizes == (8,)

    def test_matches_raw_sweep(self):
        raw = sorted({intersection_size(m) for m in all_sign_maps(2, 2)})
        assert list(oracle_enumerate(2, 2, (-1, 0, 1)).sizes) == raw

    def test_rejects_fewer_than_one_row(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                oracle_enumerate(2, m, (-1, 0, 1))

    def test_rejects_k_outside_dimension_range(self):
        for k in (0, -1, 25, 10**9):
            with pytest.raises(ValueError, match="outside 1..24"):
                oracle_enumerate(k, 1, (0, 1))

    def test_two_entries_run_past_k8(self):
        # 2^9 rows of 2^9 points fit the row budget that refuses 3^9 rows
        above_half = oracle_enumerate(9, 1, (0, 1), keep_above=Fraction(1, 2))
        assert above_half.sizes == (384, 512)
        with pytest.raises(EnumerationBudgetError):
            oracle_enumerate(9, 1, (-1, 0, 1))

    def test_closure_work_guard(self):
        # 723 distinct masks at k=6: the third row alone would cost ~1.4e8
        # intersections
        with pytest.raises(EnumerationBudgetError, match=str(ORACLE_WORK_BUDGET)):
            oracle_enumerate(6, 3, (-1, 0, 1))
        assert oracle_enumerate(5, 3, (-1, 0, 1)).sizes[-1] == 32

    def test_closure_saturates_before_a_huge_depth(self):
        # no mask is met first past depth 3 at k=3, so a million rows add nothing
        start = time.perf_counter()
        deep = oracle_enumerate(3, 10**6, (-1, 0, 1))
        assert time.perf_counter() - start < 1
        assert deep.sizes == oracle_enumerate(3, 3, (-1, 0, 1)).sizes

    def test_row_work_guard(self):
        # 4^8 rows of 256 points each: 16.8 million steps before any closure
        with pytest.raises(EnumerationBudgetError, match=str(ORACLE_WORK_BUDGET)):
            oracle_enumerate(8, 1, (-1, 0, 1, 2))
        assert oracle_enumerate(8, 1, (-1, 0, 1), keep_above=Fraction(1, 2)).sizes[-1] == 256


class TestIntersectionClosure:
    # the three faces x_i = 0 of the 3-cube; r of them meet in 2^(3-r) points
    FACES = [sum(1 << x for x in range(8) if not (x >> i) & 1) for i in range(3)]

    def sizes(self, **kwargs):
        reached = intersection_closure([(1 << 8) - 1], self.FACES, **kwargs)
        return sorted(mask.bit_count() for mask in reached)

    def test_depth_bound_counts_start_as_one_row(self):
        assert self.sizes(above=0, max_rows=1) == [8]
        assert self.sizes(above=0, max_rows=2) == [4, 4, 4, 8]
        assert self.sizes(above=0, max_rows=3) == [2, 2, 2, 4, 4, 4, 8]

    def test_unbounded_depth_reaches_every_intersection(self):
        assert self.sizes(above=0) == [1, 2, 2, 2, 4, 4, 4, 8]

    def test_bar_is_strict_and_drops_descendants(self):
        assert self.sizes(above=2) == [4, 4, 4, 8]
        assert self.sizes(above=8) == []

    def test_work_budget_counts_frontier_times_generators(self):
        # expanding the full cube, the faces, their pairs and the corner
        # costs 1 x 3, 3 x 3, 3 x 3 and 1 x 3 intersections
        assert self.sizes(above=0, max_work=24) == [1, 2, 2, 2, 4, 4, 4, 8]
        with pytest.raises(EnumerationBudgetError):
            self.sizes(above=0, max_work=23)
        assert self.sizes(above=0, max_rows=2, max_work=3) == [4, 4, 4, 8]
        with pytest.raises(EnumerationBudgetError):
            self.sizes(above=0, max_rows=3, max_work=11)


INTEGRALITY_ENTRIES = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scaled_row_matches_fraction_products(k):
    entries = sorted({Fraction(v) for v in INTEGRALITY_ENTRIES})
    for row, _mask in row_masks(k, entries):
        coeffs, unit = _scaled_row(row)
        assert coeffs == tuple(int(f * unit) for f in row)
        assert all(type(c) is int for c in coeffs)


def test_row_mask_matches_point_by_point_reference():
    entries = sorted({Fraction(v) for v in INTEGRALITY_ENTRIES})
    for k in (1, 2, 3):
        for row in product(entries, repeat=k):
            coeffs, unit = _scaled_row(row)
            assert row_mask(coeffs, unit) == reference_row_mask(coeffs, unit)
    rng = random.Random(12)
    for k in (10, 11, 12):
        for _ in range(10):
            coeffs = tuple(rng.choice((-1, 0, 1)) for _ in range(k))
            assert row_mask(coeffs, 1) == reference_row_mask(coeffs, 1)


class TestSerialization:
    def test_round_trip(self):
        m = lm(3, [[1, Fraction(-1, 2), 0]])
        data = json.loads(json.dumps(m.to_json_dict()))
        assert LinearMap.from_json_dict(data) == m

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            LinearMap.from_rows(25, [[0] * 25])


@given(st.integers(1, 4), st.data())
def test_permuting_columns_preserves_size(k, data):
    rows = data.draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k),
            min_size=1,
            max_size=3,
        )
    )
    perm = data.draw(st.permutations(range(k)))
    m = lm(k, rows)
    permuted = lm(k, [[row[perm[j]] for j in range(k)] for row in rows])
    assert intersection_size(m) == intersection_size(permuted)


@given(st.integers(1, 4), st.data())
def test_zero_column_doubles(k, data):
    rows = data.draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k),
            min_size=1,
            max_size=3,
        )
    )
    m = lm(k, rows)
    extended = lm(k + 1, [list(row) + [0] for row in rows])
    assert intersection_size(extended) == 2 * intersection_size(m)


@given(st.data())
def test_monotone_under_row_subsets(data):
    rows = data.draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
            min_size=2,
            max_size=3,
        )
    )
    m = lm(3, rows)
    indices = list(range(1, m.m + 1))
    for size_a in range(1, m.m):
        for subset_a in combinations(indices, size_a):
            t_a = intersection_size(restrict(m, subset_a))
            for extra in indices:
                if extra in subset_a:
                    continue
                t_b = intersection_size(restrict(m, subset_a + (extra,)))
                assert t_b <= t_a
