from fractions import Fraction

import pytest

from cubeint.search import (
    EXHAUSTIVE_LARGE,
    MINIMAL_LARGE,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    _raw_children,
    bfs_search,
)
from cubeint.shapes import (
    STAR21,
    STAR32,
    Shape,
    canonical_form,
    classify_star,
    max_intersection,
)
from cubeint.theorems import expected_small_families
from oracles import assignment_intersection


def canonical_children(shape, config):
    """Canonical children of one survivor (one added condition), deduplicated."""
    return {canonical_form(c) for c, _ in _raw_children(shape, config)}


@pytest.fixture(scope="module")
def large8():
    return bfs_search(SearchConfig(MINIMAL_LARGE, 8, max_edges=3))


@pytest.fixture(scope="module")
def small8():
    return bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 8, max_edges=5))


class TestExpand:
    def test_single_pair_edge_children(self):
        config = SearchConfig(MINIMAL_LARGE, 6)
        children = canonical_children(Shape.from_edges([(1, 2)]), config)
        child_edge_sets = {c.edges for c in children}
        assert canonical_form(Shape.from_edges([(1, 2), (2, 3)])).edges in child_edge_sets
        assert canonical_form(Shape.from_edges([(1, 2), (3, 4)])).edges in child_edge_sets
        # duplicates break minimality in large mode
        assert all(len(set(c.edges)) == c.edge_count for c in children)

    def test_small_mode_allows_duplicates(self):
        config = SearchConfig(NON_REDUNDANT_SMALL, 8)
        children = canonical_children(Shape.from_edges([(1, 2, 3)]), config)
        dup = canonical_form(Shape.from_edges([(1, 2, 3), (1, 2, 3)]))
        assert dup.edges in {c.edges for c in children}

    def test_new_edges_never_grow(self):
        config = SearchConfig(NON_REDUNDANT_SMALL, 8)
        children = canonical_children(Shape.from_edges([(1, 2, 3), (1, 2)]), config)
        assert all(len(c.edges[-1]) == 2 for c in children)


class TestLargeSearch:
    def test_depth_two_unions_bounded(self, large8):
        for rec in large8.survivors(2):
            assert rec.shape.vertex_count <= 6

    def test_depth_two_exactly_the_seven_pairs(self, large8):
        profiles = sorted(
            (
                len(rec.shape.edges[0]),
                len(rec.shape.edges[1]),
                len(set(rec.shape.edges[0]) & set(rec.shape.edges[1])),
            )
            for rec in large8.survivors(2)
        )
        assert profiles == [
            (2, 2, 0),
            (2, 2, 1),
            (3, 2, 0),
            (3, 2, 1),
            (3, 3, 0),
            (3, 3, 1),
            (3, 3, 2),
        ]

    def test_depth_three_stars_only(self, large8):
        classes = {classify_star(rec.shape) for rec in large8.survivors(3)}
        assert classes == {STAR21, STAR32}
        for rec in large8.survivors(3):
            half = 1 << (rec.shape.vertex_count - 1)
            expected = half + (1 if classify_star(rec.shape) == STAR21 else 2)
            assert rec.max_size == expected

    def test_witnesses_reproduce_maxima(self, large8):
        for depth in (1, 2, 3):
            for rec in large8.survivors(depth):
                witness = max_intersection(rec.shape)[1]
                assert assignment_intersection(rec.shape, witness) == rec.max_size

    def test_fractions_beat_threshold(self, large8):
        for depth in (1, 2, 3):
            for rec in large8.survivors(depth):
                assert rec.fraction > Fraction(1, 2)


class TestSmallSearch:
    def test_eighteen_pair_options(self, small8):
        pairs = [
            rec for rec in small8.survivors(2) if len(set(rec.shape.edges)) == 2
        ]
        assert len(pairs) == 18
        assert all(rec.shape.vertex_count <= 6 for rec in pairs)

    def test_depth_four_counts(self, small8):
        assert small8.raw_survivor_count(4) == 10
        assert small8.canonical_survivor_count(4) == 6

    def test_depth_four_families(self, small8):
        got = sorted((rec.shape for rec in small8.survivors(4)), key=lambda s: s.edges)
        assert [s.edges for s in got] == [s.edges for s in expected_small_families()]


class TestExhaustiveSearch:
    def test_nonminimal_values_captured(self):
        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 4, max_edges=2))
        # the nested pair keeps an above-half value that minimal mode drops
        nested = canonical_form(Shape.from_edges([(1, 2, 3), (1, 2)]))
        nested_records = [
            rec for rec in result.survivors(2) if rec.shape == nested
        ]
        assert nested_records and 5 in nested_records[0].values

    def test_scaled_values_at_k4(self):
        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 4, max_edges=2))
        sizes = {16} | result.all_values_scaled(4, max_depth=2)
        # above-half sizes with two conditions in a 4-cube
        assert sizes == {9, 10, 12, 16}


class TestPruningSoundness:
    def test_children_of_a_pruned_shape_stay_pruned(self):
        # three disjoint pairs sit at 27/64 <= 1/2; nothing they grow into
        # can climb back over the threshold
        from cubeint.shapes import shape_fraction

        pruned = Shape.from_edges([(1, 2), (3, 4), (5, 6)])
        assert shape_fraction(pruned) <= Fraction(1, 2)
        config = SearchConfig(EXHAUSTIVE_LARGE, 8, max_edges=4)
        for child in canonical_children(pruned, config):
            assert shape_fraction(child) <= shape_fraction(pruned)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 6, max_edges=3))
        b = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 6, max_edges=3))
        for da, db in zip(a.depths, b.depths):
            assert [r.shape.edges for r in da] == [r.shape.edges for r in db]
            assert [r.max_size for r in da] == [r.max_size for r in db]
            assert [r.values for r in da] == [r.values for r in db]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig("bogus", 8, max_edges=3)
        with pytest.raises(ValueError):
            SearchConfig(MINIMAL_LARGE, 8, threshold=Fraction(3, 2), max_edges=3)
        # a 3/4 bar leaves only single-vertex edges, so the derived size is 1
        with pytest.raises(ValueError):
            SearchConfig(MINIMAL_LARGE, 8, threshold=Fraction(3, 4), max_edges=3)
        for max_edges in (0, -1):
            with pytest.raises(ValueError):
                SearchConfig(NON_REDUNDANT_SMALL, 8, max_edges=max_edges)

    def test_rejects_k_past_max_dimension(self):
        for k in (25, 10**9):
            with pytest.raises(ValueError, match="exceeds 24"):
                SearchConfig(MINIMAL_LARGE, k)

    def test_default_depths(self):
        assert SearchConfig(MINIMAL_LARGE, 8).max_edges == 7
        assert SearchConfig(EXHAUSTIVE_LARGE, 8).max_edges == 8
        assert SearchConfig(NON_REDUNDANT_SMALL, 8).max_edges == 9

    def test_small_search_ends_on_its_own_at_default_depth(self):
        result = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 8))
        assert result.terminated_naturally and len(result.depths) == 8

    def test_mode_constants_distinct(self):
        assert MINIMAL_LARGE != EXHAUSTIVE_LARGE
