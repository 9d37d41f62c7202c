from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from cubeint.search import (
    EXHAUSTIVE_LARGE,
    MINIMAL_LARGE,
    MODES,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    _bound,
    _dead_pairs,
    _raw_children,
    bfs_search,
)
from cubeint.shapes import (
    STAR21,
    STAR32,
    Shape,
    canonical_form,
    classify_star,
    intersection_value_set,
    max_intersection,
)
from cubeint.theorems import expected_small_families
from oracles import (
    assignment_intersection,
    brute_canonical_form,
    brute_frontier,
    labelled_children,
    shape_fraction,
    walked_dead_pairs,
)


def canonical_children(shape, config):
    """Canonical children of one survivor (one added condition), deduplicated."""
    return {canonical_form(c) for c, _ in labelled_children(shape, config)}


@lru_cache(maxsize=None)
def searched(config):
    return bfs_search(config)


def frontier_parents(config):
    """Every record of every depth of the search of config."""
    return [rec for records in searched(config).depths for rec in records]


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
        assert all(len(set(c.edges)) == len(c.edges) for c in children)

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
        sizes = {16} | result.all_values_scaled(max_depth=2)
        # above-half sizes with two conditions in a 4-cube
        assert sizes == {9, 10, 12, 16}


class TestClassGenerator:
    @pytest.mark.parametrize("mode", MODES)
    def test_weighted_children_match_labelled_oracle(self, mode):
        for k in range(2, 9):
            config = SearchConfig(mode, k)
            for rec in frontier_parents(config):
                labelled = Counter(
                    (canonical_form(child).edges, key)
                    for child, key in labelled_children(rec.shape, config)
                )
                weighted = Counter()
                for child, key, multiplicity in _raw_children(rec.shape, config):
                    weighted[canonical_form(child).edges, key] += multiplicity
                assert weighted == labelled, (mode, k, rec.shape.edges)

    def test_one_child_per_class_choice(self):
        # four disjoint private runs of sizes 3, 3, 3, 2: a new pair takes
        # two vertices from one run or one from each of two runs
        star = Shape.from_edges([(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11)])
        config = SearchConfig(EXHAUSTIVE_LARGE, 11)
        children = list(_raw_children(star, config))
        assert len(children) == 4 + 6
        assert sum(m for _c, _k, m in children) == len(list(labelled_children(star, config)))


SOUNDNESS_CONFIGS = [
    SearchConfig(mode, k) for mode in MODES for k in range(2, 9)
] + [SearchConfig(EXHAUSTIVE_LARGE, k, threshold=Fraction(7, 16)) for k in range(2, 8)]


class TestBound:
    @pytest.mark.parametrize(
        "config", SOUNDNESS_CONFIGS, ids=lambda c: f"{c.mode}-{c.k}-{c.threshold}"
    )
    def test_ruled_out_children_have_no_value_above_threshold(self, config):
        dead_pairs = _dead_pairs(config)
        ruled = 0
        for rec in frontier_parents(config):
            ruled_out = _bound(rec, config, dead_pairs)
            for child, key in labelled_children(rec.shape, config):
                if ruled_out(child, key):
                    ruled += 1
                    canon = canonical_form(child)
                    assert intersection_value_set(canon, floor=config.threshold) == ()
        # from k = 5 on every one of these searches has children to rule out
        assert ruled or config.k < 5

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(EXHAUSTIVE_LARGE, k) for k in range(6, 13)]
        + [SearchConfig(NON_REDUNDANT_SMALL, k) for k in range(8, 12)],
        ids=lambda c: f"{c.mode}-{c.k}",
    )
    def test_dead_pairs_match_the_max_walk(self, config):
        assert _dead_pairs(config) == walked_dead_pairs(config)

    def test_pair_bound_table(self):
        # (|e|, |new|, |e & new|): two disjoint triples keep 36/64 > 1/2 and
        # a repeated 4-edge keeps 10/16, but a 4-edge beside a disjoint pair
        # keeps only 30/64
        dead = _dead_pairs(SearchConfig(EXHAUSTIVE_LARGE, 8))
        assert (3, 3, 0) not in dead and (4, 4, 4) not in dead
        assert (4, 2, 0) in dead
        assert not any(a <= 3 for a, _b, _x in dead)

    @pytest.mark.parametrize(
        "mode, pruned",
        [
            (MINIMAL_LARGE, [24, 91, 219, 434]),
            (NON_REDUNDANT_SMALL, [550, 1139, 1795, 2684]),
            (EXHAUSTIVE_LARGE, [812, 2574, 5775, 9879]),
        ],
    )
    def test_golden_pruned_counts(self, mode, pruned):
        # one per labelled child, as the subset-by-subset generator counted
        assert [searched(SearchConfig(mode, k)).pruned_count for k in (5, 6, 7, 8)] == pruned


class TestFrontierCompleteness:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_exhaustive_frontier_equals_unordered_brute_force(self, k):
        frontier = [
            {brute_canonical_form(rec.shape).edges for rec in records}
            for records in searched(SearchConfig(EXHAUSTIVE_LARGE, k)).depths
        ]
        assert frontier == brute_frontier(k)


class TestPruningSoundness:
    def test_children_of_a_pruned_shape_stay_pruned(self):
        # three disjoint pairs sit at 27/64 <= 1/2; nothing they grow into
        # can climb back over the threshold
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
