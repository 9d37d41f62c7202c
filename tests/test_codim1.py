from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeint.codim1 import (
    SignCount,
    binomial,
    closed_form_large_sizes,
    codim1_size,
    codim1_table,
    large_codim1_sizes,
    support_size_bound,
)
from cubeint.cube import LinearMap, intersection_size
from lemmas import central_ratio, central_ratio_nonincreasing
from oracles import level_count


class TestLevelCount:
    def test_balanced_pair(self):
        assert level_count(SignCount(1, 1, 0), 0) == 2

    def test_three_two_split(self):
        sc = SignCount(3, 2, 0)
        assert level_count(sc, 0) == 10
        assert level_count(sc, 1) == 10
        assert codim1_size(sc) == 20

    def test_zero_map_single_level(self):
        assert level_count(SignCount(0, 0, 5), 0) == 32

    def test_out_of_range_levels_vanish(self):
        assert level_count(SignCount(2, 1, 0), 5) == 0
        assert level_count(SignCount(2, 1, 0), -4) == 0


class TestCodim1Size:
    @pytest.mark.parametrize(
        "plus,minus,expected",
        [(3, 3, 35), (4, 3, 70), (2, 1, 6), (1, 1, 3), (2, 0, 3)],
    )
    def test_table_values(self, plus, minus, expected):
        assert codim1_size(SignCount(plus, minus, 0)) == expected

    def test_matches_level_sum(self):
        for plus in range(5):
            for minus in range(5):
                sc = SignCount(plus, minus, 1)
                assert codim1_size(sc) == level_count(sc, 0) + level_count(sc, 1)

    def test_agrees_with_enumeration(self):
        for k in range(1, 13):
            for plus in range(k + 1):
                for minus in range(k + 1 - plus):
                    sc = SignCount(plus, minus, k - plus - minus)
                    row = [1] * plus + [-1] * minus + [0] * sc.zero
                    m = LinearMap.from_rows(k, [row])
                    assert codim1_size(sc) == intersection_size(m)


class TestTable:
    def test_nine_rows_exact(self):
        assert codim1_table() == [
            (1, 1, 3),
            (2, 0, 3),
            (2, 1, 6),
            (2, 2, 10),
            (3, 1, 10),
            (3, 2, 20),
            (3, 3, 35),
            (4, 2, 35),
            (4, 3, 70),
        ]


class TestLargeSizes:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (6, (35, 40, 48, 64)),
            (7, (70, 80, 96, 128)),
            (8, (140, 160, 192, 256)),
        ],
    )
    def test_small_cases(self, k, expected):
        assert large_codim1_sizes(k).sizes == expected

    def test_closed_form_consistency(self):
        for k in range(6, 13):
            assert large_codim1_sizes(k).sizes == closed_form_large_sizes(k)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            large_codim1_sizes(5)

    def test_rejects_k_past_max_dimension(self):
        for k in (25, 2000):
            with pytest.raises(ValueError):
                large_codim1_sizes(k)

    def test_no_heavy_rows_above_half(self):
        # with eight or more nonzero entries a single row stays at half or below
        for k in range(8, 13):
            half = 1 << (k - 1)
            for plus in range(k + 1):
                minus = k - plus
                assert codim1_size(SignCount(plus, minus, 0)) <= half


class TestRatios:
    def test_nonincreasing_small(self):
        assert central_ratio_nonincreasing(8)
        assert central_ratio_nonincreasing(1)
        assert central_ratio_nonincreasing(64)

    def test_quarter_at_nine(self):
        assert central_ratio(9) == Fraction(126, 512)
        assert central_ratio(9) <= Fraction(1, 4)

    @pytest.mark.parametrize(
        "threshold,expected",
        [(Fraction(1, 2), 7), (Fraction(15, 32), 9)],
    )
    def test_support_bounds(self, threshold, expected):
        assert support_size_bound(threshold) == expected

    def test_quarter_threshold_exact(self):
        s = support_size_bound(Fraction(1, 4))
        assert Fraction(binomial(s + 1, (s + 1) // 2), 1 << s) > Fraction(1, 4)
        assert Fraction(binomial(s + 2, (s + 2) // 2), 1 << (s + 1)) <= Fraction(1, 4)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 4))
def test_levels_cover_the_cube(plus, minus, zero):
    sc = SignCount(plus, minus, zero)
    total = sum(level_count(sc, j) for j in range(-minus - 1, plus + 2))
    assert total == 1 << sc.k


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(-7, 7))
def test_level_symmetry(plus, minus, zero, level):
    left = level_count(SignCount(plus, minus, zero), level)
    right = level_count(SignCount(minus, plus, zero), -level)
    assert left == right
