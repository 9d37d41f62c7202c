from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeint import theorems
from cubeint.codim1 import codim1_size
from cubeint.cube import (
    LinearMap,
    full_mask,
    intersection_closure,
    intersection_size,
    oracle_enumerate,
    row_masks,
)
from cubeint.theorems import (
    antichain_bound_check,
    antichain_expression,
    build_21_star_map,
    count_subset_sums_in,
    expected_h_n_window,
    h_n_window,
    ints_window_check,
    large_membership_witnesses,
    small_window_values,
    verify_large_sets,
    verify_small_window,
)
from lemmas import (
    build_32_star_map,
    build_zero_extension,
    condition_drop_bound_check,
    condition_drop_bound_sweep,
    drop_coordinate,
    fix_coordinate_count,
    sum_of_powers_members,
)
from oracles import counting_int, pairwise_ints_masks, per_row_masks


def lm(k, rows):
    return LinearMap.from_rows(k, rows)


class TestConstructions:
    def test_zero_extension_examples(self):
        base = lm(2, [[1, -1]])
        ext = build_zero_extension(base)
        assert ext.k == 3 and intersection_size(ext) == 6

        zero = lm(2, [[0, 0]])
        assert intersection_size(build_zero_extension(zero)) == 8

    def test_two_one_star(self):
        star = build_21_star_map(2)
        assert star.entries == ((1, 0, 1), (0, 1, 1))
        assert intersection_size(star) == 5
        assert intersection_size(build_21_star_map(5)) == 33
        assert intersection_size(build_21_star_map(7)) == 129

    def test_three_two_star(self):
        assert intersection_size(build_32_star_map(4)) == 10
        assert intersection_size(build_32_star_map(6)) == 34
        assert intersection_size(build_32_star_map(8)) == 130

    def test_drop_zero_column(self):
        m = lm(3, [[1, -1, 0]])
        dropped = drop_coordinate(m, 3)
        assert dropped.k == 2
        assert intersection_size(dropped) == intersection_size(m) // 2

    def test_drop_star_leaf(self):
        star = build_32_star_map(5)
        for coordinate in range(1, 6):
            dropped = drop_coordinate(star, coordinate)
            assert intersection_size(dropped) == intersection_size(star) // 2

    def test_drop_requires_half_split(self):
        with pytest.raises(ValueError):
            drop_coordinate(lm(1, [[-1]]), 1)

    def test_drop_cross_checked_small_maps(self):
        for rows in product(product((-1, 0, 1), repeat=3), repeat=2):
            m = lm(3, list(rows))
            t = intersection_size(m)
            for coordinate in (1, 2, 3):
                pattern_half = t % 2 == 0
                if pattern_half and fix_coordinate_count(m, coordinate) * 2 == t:
                    dropped = drop_coordinate(m, coordinate)
                    assert intersection_size(dropped) == t // 2


def claimed(k, extra_rows):
    return sorted(large_membership_witnesses(k, extra_rows))


class TestLargeChain:
    def test_claimed_sets_k6(self):
        assert claimed(6, 1) == [35, 40, 48, 64]
        assert claimed(6, 2) == [35, 36, 40, 48, 64]
        assert claimed(6, 3) == [35, 36, 40, 48, 64]
        assert claimed(6, 4) == [34, 35, 36, 40, 48, 64]
        assert claimed(6, 5) == [33, 34, 35, 36, 40, 48, 64]
        assert claimed(6, 9) == claimed(6, 5)

    def test_claimed_sets_k7(self):
        assert claimed(7, 1) == [70, 80, 96, 128]

    def test_witnesses_have_exact_row_counts(self):
        for extra in (1, 2, 4):
            for size, witness in large_membership_witnesses(6, extra).items():
                assert witness.m == extra
                assert intersection_size(witness) == size

    def test_verify_k6(self):
        report = verify_large_sets(6)
        assert report.passed, report.to_json_dict()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_large_sets(13)

    @pytest.mark.parametrize("k", [7, 8, 10])
    def test_star_lemma_depths(self, k):
        # the 2-1 star of d edges has d + 1 vertices and the 3-2 star d + 2,
        # so in dimension k they survive at depths 3..k-1 and 3..k-2
        report = verify_large_sets(k)
        name = "minimal survivors of three or more conditions are the 2-1 and 3-2 stars"
        (check,) = [c for c in report.checks if c.name == name]
        assert check.passed and check.details["failures"] == []
        assert check.details["star21_depths"] == list(range(3, k))
        assert check.details["star32_depths"] == list(range(3, k - 1))


class TestSmallWindow:
    def test_window_values(self):
        assert small_window_values(8) == (120, 126, 128)
        assert small_window_values(9) == (240, 252, 256)

    def test_membership_values_by_formula(self):
        assert codim1_size(4, 1, 3) == 120
        assert codim1_size(5, 3, 0) == 126

    def test_verify_k9(self):
        report = verify_small_window(9)
        details = {check.name: check.details for check in report.checks}
        assert report.passed
        assert details["window altogether"]["window"] == [240, 252, 256]
        assert details["strict interior of the window"]["found"] == [252]

    def test_verify_k10(self):
        # the search's default depth, k + 1, lets it end on its own past k = 9
        report = verify_small_window(10)
        details = {check.name: check.details for check in report.checks}
        assert report.passed, report.to_json_dict()
        assert details["search terminated before the condition budget"]["depths"] == 10
        assert details["window altogether"]["window"] == [480, 504, 512]

    @pytest.mark.parametrize("k", [7, 13])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ValueError):
            verify_small_window(k)

    def test_window_comes_from_the_constructions(self, monkeypatch):
        # the bottom value's map built with the middle's sign counts: the
        # constructions then reach 126 and 128 only, and the sweep adds 126
        single_row_map = theorems._single_row_map

        def wrong(plus, minus, zero):
            if (plus, minus) == (4, 1):
                return single_row_map(5, 3, zero - 3)
            return single_row_map(plus, minus, zero)

        monkeypatch.setattr(theorems, "_single_row_map", wrong)
        details = {c.name: c for c in verify_small_window(8).checks}
        assert not details["window altogether"].passed
        assert details["window altogether"].details["window"] == [126, 128]
        assert details["strict interior of the window"].passed


# Broken chain partitions for the antichain proof: two_element_step breaks
# only the one-element steps, a_subset_twice only the cover, split_the_longest
# only the bound, and drop_a_chain both the cover and the bound.
def drop_a_chain(chains):
    return chains[1:]


def two_element_step(chains):
    longest = max(chains, key=len)
    longest[1], longest[2] = longest[2], longest[1]
    return chains


def a_subset_twice(chains):
    first, second = [chain for chain in chains if len(chain) == 1][:2]
    second[0] = first[0]
    return chains


def split_the_longest(chains):
    longest = max(chains, key=len)
    chains.remove(longest)
    return chains + [longest[:2], longest[2:]]


class TestAntichain:
    def test_extremal_instance(self):
        count = count_subset_sums_in(
            [Fraction(1)] * 4, [Fraction(i) for i in range(4)]
        )
        assert count == 15

    def test_expression_values(self):
        assert antichain_expression(4) == 15
        assert antichain_expression(5) == 30

    def test_all_ones_ell5(self):
        count = count_subset_sums_in(
            [Fraction(1)] * 5, [Fraction(i) for i in (1, 2, 3, 4)]
        )
        assert count == 30
        assert Fraction(30) <= Fraction(15, 16) * 32

    def test_report_passes(self):
        report = antichain_bound_check(6)
        assert report.passed

    def test_rejects_out_of_range(self):
        for ell in (3, 17):
            with pytest.raises(ValueError):
                antichain_bound_check(ell)

    @pytest.mark.parametrize("ell", [4, 5, 6])
    def test_small_alphabet_never_beats_the_bound(self, ell):
        # the 4 best targets of an instance take its 4 largest subset-sum counts
        alphabet = [Fraction(n, 2) for n in (1, 2, 3, 4, 6)]
        best = {}
        for values in combinations_with_replacement(alphabet, ell):
            sums = [Fraction(0)]
            for a in values:
                sums.extend([s + a for s in sums])
            best[values] = sum(c for _, c in Counter(sums).most_common(4))
        assert max(best.values()) <= antichain_expression(ell)
        assert best[(Fraction(1),) * ell] == antichain_expression(ell)

    @pytest.mark.parametrize(
        "mutate",
        [drop_a_chain, two_element_step, a_subset_twice, split_the_longest],
        ids=lambda mutate: mutate.__name__,
    )
    def test_mutated_partition_fails(self, monkeypatch, mutate):
        build = theorems.symmetric_chain_partition
        monkeypatch.setattr(
            theorems, "symmetric_chain_partition", lambda ell: mutate(build(ell))
        )
        assert not antichain_bound_check(6).passed


class TestDropBound:
    def test_single_instance(self):
        # +x3 alone would be vacuous; -x3 actually cuts (6 -> 3, allowed 5)
        m = lm(3, [[1, -1, 0], [0, 0, -1]])
        result = condition_drop_bound_check(m)
        assert result.passed
        assert result.details["t_full"] == 3 and result.details["t_head"] == 6

    def test_vacuous_last_row_rejected(self):
        with pytest.raises(ValueError):
            condition_drop_bound_check(lm(3, [[1, -1, 0], [0, 0, 1]]))

    def test_redundant_rejected(self):
        m = lm(2, [[1, -1], [1, -1]])
        with pytest.raises(ValueError):
            condition_drop_bound_check(m)

    def test_sweep(self):
        report = condition_drop_bound_sweep(max_k=3, max_rows=3)
        assert report.passed


class TestIntsWindow:
    ENTRIES = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)

    def test_small_dimensions(self):
        for k in (1, 2, 3):
            report = ints_window_check(k)
            assert report.passed, report.to_json_dict()

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            ints_window_check(6)

    def test_rejects_k_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                ints_window_check(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_classification_matches_entry_sets(self, k):
        pure, bad = set(), set()
        entries = theorems.INTEGRALITY_ENTRIES
        for row, mask in zip(product(entries, repeat=k), per_row_masks(k, entries)):
            (pure if set(row) <= {-1, 0, 1} else bad).add(mask)
        assert theorems._pure_and_bad_masks(k) == (pure, bad)

    def test_k5_report_counts(self):
        report = ints_window_check(5)
        assert report.passed
        details = report.checks[0].details
        assert (details["pure_rows"], details["bad_rows"]) == (238, 6967)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_two_row_closure_matches_pair_sweep(self, k):
        pure, bad = set(), set()
        for row, mask in zip(product(self.ENTRIES, repeat=k), row_masks(k, self.ENTRIES)):
            (pure if set(row) <= {-1, 0, 1} else bad).add(mask)
        above = (15 << (k - 1)) // 16
        closure = intersection_closure(bad, pure | bad, above, max_rows=2)
        assert closure == pairwise_ints_masks(k, self.ENTRIES)

    def test_planted_stray_mask_is_reported(self, monkeypatch):
        # a mask past the 7^3 rows, so a bad one, that misses one point of
        # the 3-cube: 7 points, above the bar 15/16 * 4 and not exactly half
        planted = full_mask(3) ^ 1

        def with_planted(k, entries):
            yield from row_masks(k, entries)
            yield planted

        monkeypatch.setattr(theorems, "row_masks", with_planted)
        report = ints_window_check(3)
        assert not report.passed
        failures = report.checks[0].details["failures"]
        assert failures[0] == {"count": 7, "pattern_hex": "fe"}


class TestIntsClosureWork:
    def test_k5_closure_computes_no_intersection(self, monkeypatch):
        # Every bad mask above the bar 15 has exactly 16 points, one above it,
        # so the closure keeps the 230 such masks and expands none, where
        # expanding them against the 391 row masks above the bar would cost
        # 230 x 391 = 89,930 intersections.  The row masks are ints that count
        # each & they take part in, as in TestIntersectionClosure.
        Counted, count = counting_int()

        def counted_row_masks(k, entries):
            for mask in row_masks(k, entries):
                yield Counted(mask)

        closures = []

        def recorded_closure(start, generators, above):
            closures.append((start, generators, above))
            return intersection_closure(start, generators, above)

        monkeypatch.setattr(theorems, "row_masks", counted_row_masks)
        monkeypatch.setattr(theorems, "intersection_closure", recorded_closure)
        assert ints_window_check(5).passed
        [(start, generators, above)] = closures
        assert above == 15
        assert all(type(mask) is Counted for mask in generators)
        assert sum(mask.bit_count() > above for mask in start) == 230
        assert sum(mask.bit_count() > above for mask in generators) == 391
        assert len(count) == 0


class TestHnWindow:
    def test_values_n8_n10(self):
        assert tuple(sorted(h_n_window(8))) == (64, 70, 80, 96, 128, 256)
        assert tuple(sorted(h_n_window(10))) == (256, 280, 320, 384, 512, 1024)

    def test_witnesses_verified(self):
        witnesses = h_n_window(9)
        for size, witness in witnesses.items():
            assert intersection_size(witness) == size

    def test_formula_matches(self):
        for n in range(8, 14):
            assert tuple(sorted(h_n_window(n))) == expected_h_n_window(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            h_n_window(7)

    def test_rejects_n_past_max_dimension(self):
        for n in (25, 10**12):
            with pytest.raises(ValueError):
                h_n_window(n)


class TestSumsOfPowers:
    def test_examples(self):
        assert sum_of_powers_members(4, [3, 1]).passed
        assert sum_of_powers_members(3, [2]).passed
        assert sum_of_powers_members(5, [4, 2]).passed

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            sum_of_powers_members(4, [4, 1])


class TestOracleCrossChecks:
    def test_oracle_matches_search_at_k4(self):
        from cubeint.search import EXHAUSTIVE_LARGE, SearchConfig, bfs_search

        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 4, max_edges=2))
        via_search = {16} | result.all_values_scaled(max_depth=2)
        via_oracle = set(
            oracle_enumerate(4, 2, (-1, 0, 1), keep_above=Fraction(1, 2))
        )
        assert via_search == via_oracle

    def test_oracle_matches_search_at_k5(self):
        from cubeint.search import EXHAUSTIVE_LARGE, SearchConfig, bfs_search

        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 5, max_edges=3))
        for m in (1, 2, 3):
            via_oracle = set(
                oracle_enumerate(5, m, (-1, 0, 1), keep_above=Fraction(1, 2))
            )
            via_search = {32} | result.all_values_scaled(max_depth=m)
            assert via_search == via_oracle

    def test_full_star_value_needs_four_conditions(self):
        from cubeint.search import EXHAUSTIVE_LARGE, SearchConfig, bfs_search

        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 5, max_edges=4))
        assert 17 not in result.all_values_scaled(max_depth=3)
        assert 17 in result.all_values_scaled(max_depth=4)

    def test_small_sweep_matches_oracle(self):
        # the redundancy skip never loses an achievable value: the cumulative
        # survivor sweep equals the raw enumeration wherever both fit
        from cubeint.search import NON_REDUNDANT_SMALL, SearchConfig, bfs_search

        for k in (4, 5):
            result = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, k, max_edges=3))
            for m in (1, 2, 3):
                via_oracle = set(
                    oracle_enumerate(
                        k, m, (-1, 0, 1), keep_above=Fraction(15, 32)
                    )
                )
                via_search = {1 << k} | result.all_values_scaled(max_depth=m)
                assert via_search == via_oracle


class TestReports:
    def test_reports_serialise_deterministically(self):
        import json

        reports = [
            verify_large_sets(6),
            antichain_bound_check(5),
            ints_window_check(2),
            condition_drop_bound_sweep(max_k=2, max_rows=2),
        ]
        for report in reports:
            first = json.dumps(report.to_json_dict(), sort_keys=True)
            second = json.dumps(report.to_json_dict(), sort_keys=True)
            assert first == second
            assert json.loads(first)["passed"] is True


@given(st.integers(4, 10))
def test_expression_bound_fraction(ell):
    assert Fraction(antichain_expression(ell), 1 << ell) <= Fraction(15, 16)
