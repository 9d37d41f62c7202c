from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from cubeint.search import (
    EXHAUSTIVE_LARGE,
    MODES,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    _bound,
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
    pair_types,
    shape_fraction,
    triple_types,
    walked_dead_pairs,
    walked_dead_triples,
)


def canonical_children(shape, config):
    """Canonical children of one survivor (one added condition), deduplicated."""
    return {canonical_form(c) for c, _key, _edge in labelled_children(shape, config)}


@lru_cache(maxsize=None)
def searched(config):
    return bfs_search(config)


def frontier_parents(config):
    """Every record of every depth of the search of config."""
    return [rec for records in searched(config).depths for rec in records]


@lru_cache(maxsize=None)
def filled_table(config):
    """The dead table of _bound after it is asked about every child of every
    record of the search of config: sub-shape type -> verdict."""
    dead = {}
    for rec in frontier_parents(config):
        ruled_out = _bound(rec, config, dead)
        for edge, key, _multiplicity in _raw_children(rec.shape, config):
            ruled_out(edge, key)
    return dead


def minimal_depths(result):
    """The survivors on which Shape.is_minimal holds, one list per depth."""
    return [[rec for rec in records if rec.shape.is_minimal()] for records in result.depths]


@pytest.fixture(scope="module")
def large8():
    return minimal_depths(searched(SearchConfig(EXHAUSTIVE_LARGE, 8)))


@pytest.fixture(scope="module")
def small8():
    return bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 8, max_edges=5))


class TestExpand:
    def test_single_pair_edge_children(self):
        config = SearchConfig(EXHAUSTIVE_LARGE, 6)
        children = canonical_children(Shape.from_edges([(1, 2)]), config)
        minimal = {c for c in children if c.is_minimal()}
        child_edge_sets = {c.edges for c in minimal}
        assert canonical_form(Shape.from_edges([(1, 2), (2, 3)])).edges in child_edge_sets
        assert canonical_form(Shape.from_edges([(1, 2), (3, 4)])).edges in child_edge_sets
        # duplicates break minimality
        assert Shape.from_edges([(1, 2), (1, 2)]) in children - minimal
        assert all(len(set(c.edges)) == len(c.edges) for c in minimal)

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
    @pytest.mark.parametrize(
        "k, counts",
        [(6, [5, 7, 2, 2, 1]), (7, [6, 7, 2, 2, 2, 1]), (8, [6, 7, 2, 2, 2, 2, 1])],
    )
    def test_minimal_survivor_counts(self, k, counts):
        # the per-depth counts of the minimal survivors, raw and canonical; a
        # minimal shape of k edges has k private vertices and a shared one,
        # so none fits in k vertices
        minimal = minimal_depths(searched(SearchConfig(EXHAUSTIVE_LARGE, k)))
        assert [len(records) for records in minimal] == counts + [0]
        assert [sum(rec.raw_count() for rec in records) for records in minimal] == counts + [0]

    def test_depth_two_unions_bounded(self, large8):
        for rec in large8[1]:
            assert rec.shape.vertex_count <= 6

    def test_depth_two_exactly_the_seven_pairs(self, large8):
        profiles = sorted(
            (
                len(rec.shape.edges[0]),
                len(rec.shape.edges[1]),
                len(set(rec.shape.edges[0]) & set(rec.shape.edges[1])),
            )
            for rec in large8[1]
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
        classes = {classify_star(rec.shape) for rec in large8[2]}
        assert classes == {STAR21, STAR32}
        for rec in large8[2]:
            half = 1 << (rec.shape.vertex_count - 1)
            expected = half + (1 if classify_star(rec.shape) == STAR21 else 2)
            assert rec.max_size == expected

    def test_witnesses_reproduce_maxima(self, large8):
        for records in large8[:3]:
            for rec in records:
                witness = max_intersection(rec.shape)[1]
                assert assignment_intersection(rec.shape, witness) == rec.max_size

    def test_fractions_beat_threshold(self, large8):
        for records in large8[:3]:
            for rec in records:
                assert rec.fraction > Fraction(1, 2)


class TestSmallSearch:
    def test_eighteen_pair_options(self, small8):
        pairs = [
            rec for rec in small8.depths[1] if len(set(rec.shape.edges)) == 2
        ]
        assert len(pairs) == 18
        assert all(rec.shape.vertex_count <= 6 for rec in pairs)

    def test_depth_four_counts(self, small8):
        assert sum(rec.raw_count() for rec in small8.depths[3]) == 10
        assert len(small8.depths[3]) == 6

    def test_depth_four_families(self, small8):
        got = sorted((rec.shape for rec in small8.depths[3]), key=lambda s: s.edges)
        assert [s.edges for s in got] == [s.edges for s in expected_small_families()]


class TestExhaustiveSearch:
    def test_nonminimal_values_captured(self):
        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, 4, max_edges=2))
        # the nested pair is not minimal, and keeps an above-half value
        nested = canonical_form(Shape.from_edges([(1, 2, 3), (1, 2)]))
        nested_records = [
            rec for rec in result.depths[1] if rec.shape == nested
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
                    for child, key, _edge in labelled_children(rec.shape, config)
                )
                weighted = Counter()
                for edge, key, multiplicity in _raw_children(rec.shape, config):
                    child = rec.shape.with_edge(edge)
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
        dead = {}
        ruled = 0
        for rec in frontier_parents(config):
            ruled_out = _bound(rec, config, dead)
            for child, key, edge in labelled_children(rec.shape, config):
                if ruled_out(edge, key):
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
        # the search asks for every pair type, so each verdict is checked
        dead = filled_table(config)
        pairs = {t for t in dead if len(t) == 3}
        assert pairs == set(pair_types(config))
        assert {t for t in pairs if dead[t]} == walked_dead_pairs(config)

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(EXHAUSTIVE_LARGE, k) for k in range(6, 9)]
        + [SearchConfig(NON_REDUNDANT_SMALL, k) for k in range(8, 10)],
        ids=lambda c: f"{c.mode}-{c.k}",
    )
    def test_dead_triples_match_the_max_walk(self, config):
        # the table a search fills asks only for these types; a type no search
        # asks for cannot reach a result
        dead = filled_table(config)
        asked = {t for t in dead if len(t) == 7}
        assert asked <= set(triple_types(config))
        walked = walked_dead_triples(config, asked)
        assert walked and {t for t in asked if dead[t]} == walked

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_large_search_labels_no_dead_child(self, k):
        # every child the exhaustive-large search labels has a size above the
        # threshold: its dead sub-shapes rule out all the others first
        config = SearchConfig(EXHAUSTIVE_LARGE, k)
        dead = {}
        labelled = 0
        for records in searched(config).depths[: config.max_edges - 1]:
            for rec in records:
                ruled_out = _bound(rec, config, dead)
                for edge, key, _multiplicity in _raw_children(rec.shape, config):
                    if not ruled_out(edge, key):
                        labelled += 1
                        canon = canonical_form(rec.shape.with_edge(edge))
                        assert intersection_value_set(canon, floor=config.threshold)
        assert labelled

    @pytest.mark.parametrize(
        "mode, labelled",
        [
            (NON_REDUNDANT_SMALL, {8: 362, 9: 401}),
            (EXHAUSTIVE_LARGE, {6: 290, 7: 470, 8: 711}),
        ],
    )
    def test_golden_labelled_counts(self, mode, labelled, monkeypatch):
        # bfs_search labels (canonicalises) each child it does not rule out,
        # one per vertex-class choice; a weaker bound labels more
        calls = []

        def counted(shape):
            calls.append(shape)
            return canonical_form(shape)

        monkeypatch.setattr("cubeint.search.canonical_form", counted)
        counts = {}
        for k in labelled:
            calls.clear()
            bfs_search(SearchConfig(mode, k))
            counts[k] = len(calls)
        assert counts == labelled

    def test_pair_bound_table(self):
        # (|e|, |new|, |e & new|): two disjoint triples keep 36/64 > 1/2 and
        # a repeated 4-edge keeps 10/16, but a 4-edge beside a disjoint pair
        # keeps only 30/64
        dead = filled_table(SearchConfig(EXHAUSTIVE_LARGE, 8))
        assert dead[3, 3, 0] is False and dead[4, 4, 4] is False
        assert dead[4, 2, 0] is True
        assert not any(verdict and len(t) == 3 and t[0] <= 3 for t, verdict in dead.items())

    @pytest.mark.parametrize(
        "mode, pruned",
        [
            (NON_REDUNDANT_SMALL, [550, 1139, 1795, 2684]),
            (EXHAUSTIVE_LARGE, [812, 2574, 5775, 9879]),
        ],
    )
    def test_golden_pruned_counts(self, mode, pruned):
        # one per labelled child, as the subset-by-subset generator counted
        assert [searched(SearchConfig(mode, k)).pruned_count for k in (5, 6, 7, 8)] == pruned


class TestSmallerSearches:
    @pytest.mark.parametrize(
        "mode, k, big",
        [(EXHAUSTIVE_LARGE, 6, 8), (EXHAUSTIVE_LARGE, 7, 8), (NON_REDUNDANT_SMALL, 8, 9)],
    )
    def test_search_is_the_larger_search_restricted(self, mode, k, big):
        # a shape's parents have no more vertices than it, so the search of k
        # is the search of big cut down to shapes of at most k vertices
        def view(records):
            return [(r.shape.edges, r.values, r.max_size, r.keys) for r in records]

        small = searched(SearchConfig(mode, k)).depths
        large = searched(SearchConfig(mode, big)).depths
        for depth in range(k):
            restricted = [
                r for r in (large[depth] if depth < len(large) else [])
                if r.shape.vertex_count <= k
            ]
            assert view(small[depth] if depth < len(small) else []) == view(restricted)


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
            SearchConfig(EXHAUSTIVE_LARGE, 8, threshold=Fraction(3, 2), max_edges=3)
        # a 3/4 bar leaves only single-vertex edges, so the derived size is 1
        with pytest.raises(ValueError):
            SearchConfig(EXHAUSTIVE_LARGE, 8, threshold=Fraction(3, 4), max_edges=3)
        for max_edges in (0, -1):
            with pytest.raises(ValueError):
                SearchConfig(NON_REDUNDANT_SMALL, 8, max_edges=max_edges)

    def test_rejects_k_past_max_dimension(self):
        for k in (25, 10**9):
            with pytest.raises(ValueError, match=f"k={k} is outside 2..24"):
                SearchConfig(EXHAUSTIVE_LARGE, k)

    def test_default_depths(self):
        assert SearchConfig(EXHAUSTIVE_LARGE, 8).max_edges == 8
        assert SearchConfig(NON_REDUNDANT_SMALL, 8).max_edges == 9

    def test_small_search_ends_on_its_own_at_default_depth(self):
        result = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 8))
        assert result.terminated_naturally and len(result.depths) == 8

    def test_mode_constants_distinct(self):
        assert len(set(MODES)) == len(MODES) == 2
        assert NON_REDUNDANT_SMALL != EXHAUSTIVE_LARGE

    def test_minimal_large_mode_is_gone(self):
        # minimal large shapes are read off the exhaustive-large survivors
        with pytest.raises(ValueError, match="unknown mode"):
            SearchConfig("minimal-large", 8)
