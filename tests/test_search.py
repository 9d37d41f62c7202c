from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from cubeint.search import (
    EXHAUSTIVE_LARGE,
    MODES,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    _arrangement_count,
    _arrangements,
    _children,
    _new_edge,
    _sub_shape,
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
    assert_normal_shape,
    assignment_intersection,
    brute_canonical_form,
    brute_frontier,
    labelled_children,
    pair_types,
    reference_sub_shape,
    reference_value_set,
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


def new_edges(shape, config, chosen, used):
    """(new size, new edge) for every new size a count vector of shape's
    children allows, ascending."""
    n = shape.vertex_count
    largest = min(len(shape.edges[-1]), config.max_edge_size)
    for new_size in range(max(2, used), min(largest, used + config.k - n) + 1):
        yield new_size, _new_edge(chosen, n, new_size - used)


@lru_cache(maxsize=None)
def filled_table(config):
    """The table of _children after it is asked about every count vector of
    every record of the search of config, with each (type, new size) it has
    asked turned into the full sub-shape type, (|e|, |new|, |e & new|) or
    (|new|, |a|, |b|, |new & a|, |new & b|, |a & b|, |new & a & b|): full type
    -> whether it is dead."""
    table = {}
    for rec in frontier_parents(config):
        for _child in _children(rec.shape, config, table):
            pass
    dead = {}
    for key, (asked, killed) in table.items():
        for new_size in range(asked.bit_length()):
            if asked >> new_size & 1:
                full = (key[0], new_size, key[1]) if len(key) == 2 else (new_size, *key)
                dead[full] = bool(killed >> new_size & 1)
    return dead


@lru_cache(maxsize=None)
def reference_dead(shape, threshold):
    """Whether the unreduced reference walk finds no size of shape above the
    threshold; shared by every search that meets shape."""
    return reference_value_set(shape, floor=threshold) == {}


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
        assert [sum(rec.raw for rec in records) for records in minimal] == counts + [0]

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
        assert sum(rec.raw for rec in small8.depths[3]) == 10
        assert len(small8.depths[3]) == 6

    def test_depth_four_families(self, small8):
        got = sorted((rec.shape for rec in small8.depths[3]), key=lambda s: s.edges)
        assert [s.edges for s in got] == [s.edges for s in expected_small_families()]


class TestScoreBeforeLabelling:
    @pytest.mark.parametrize("k", range(8, 13))
    def test_small_search_labels_what_the_label_first_rule_keeps(self, k, monkeypatch):
        # the small search scores each child as built and labels only those
        # with a value below the parent's scaled best; the oracle is the rule
        # it replaces, which labels first and scores the canonical form
        config = SearchConfig(NON_REDUNDANT_SMALL, k)
        built, labelled = [], []

        def spied(shape, config, table, known):
            for vector in _children(shape, config, table, known):
                built.append((shape, vector))
                yield vector

        def counted(shape):
            labelled.append(shape)
            return canonical_form(shape)

        monkeypatch.setattr("cubeint.search._children", spied)
        monkeypatch.setattr("cubeint.search.canonical_form", counted)
        result = bfs_search(config)
        best = {rec.shape.edges: rec.max_size for records in result.depths for rec in records}
        kept = []
        for parent, (chosen, used, *_rest, alive) in built:
            for new_size in range(alive.bit_length()):
                if not alive >> new_size & 1:
                    continue
                fresh = new_size - used
                child = parent.with_edge(_new_edge(chosen, parent.vertex_count, fresh))
                values = intersection_value_set(canonical_form(child), config.threshold)
                assert intersection_value_set(child, config.threshold) == values, child
                if any(v < best[parent.edges] << fresh for v in values):
                    kept.append(child)
        assert labelled == kept
        assert len(kept) < sum(alive.bit_count() for _parent, (*_rest, alive) in built)


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
        # each arrangement of a vector is counted as a child isomorphic to the
        # vector's own, under its own key
        for k in range(2, 9):
            config = SearchConfig(mode, k)
            table = {}
            for rec in frontier_parents(config):
                labelled = Counter(
                    (canonical_form(child).edges, key)
                    for child, key, _edge in labelled_children(rec.shape, config)
                )
                weighted = Counter()
                for chosen, used, overlap, swaps, multiplicity, _sizes, _alive in _children(
                    rec.shape, config, table
                ):
                    overlaps = _arrangements(overlap, swaps)
                    for new_size, edge in new_edges(rec.shape, config, chosen, used):
                        canon = canonical_form(rec.shape.with_edge(edge)).edges
                        for arranged in overlaps:
                            weighted[canon, (new_size, arranged)] += multiplicity
                assert weighted == labelled, (mode, k, rec.shape.edges)

    def test_one_child_per_class_choice(self):
        # four disjoint private runs of sizes 3, 3, 3, 2, the first three one
        # group: a new pair takes two vertices from the first run or the
        # last, or one from the first and one from the second or the last
        star = Shape.from_edges([(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11)])
        config = SearchConfig(EXHAUSTIVE_LARGE, 11)
        vectors = list(_children(star, config, {}))
        assert [overlap for _c, _u, overlap, _g, _m, _s, _a in vectors] == [
            (0, 0, 0, 2),
            (1, 0, 0, 1),
            (1, 1, 0, 0),
            (2, 0, 0, 0),
        ]
        weight = sum(
            m * len(_arrangements(overlap, swaps)) for _c, _u, overlap, swaps, m, _s, _a in vectors
        )
        assert weight == len(list(labelled_children(star, config))) == comb(11, 2)

    def test_one_vector_per_spoke_pattern_of_a_star(self):
        # five pairs through vertex 1 form one group: a vector takes the
        # centre or not and a number of spokes, and its arrangements put the
        # spokes it takes on every set of edges, each once
        star = Shape.from_edges([(1, v) for v in range(2, 7)])
        config = SearchConfig(EXHAUSTIVE_LARGE, 8)
        vectors = list(_children(star, config, {}))
        assert [overlap for _c, _u, overlap, _g, _m, _s, _a in vectors] == [
            (0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (1, 1, 0, 0, 0),
            (1, 1, 1, 1, 1),
            (2, 1, 1, 1, 1),
        ]
        arranged = [
            _arrangements(overlap, swaps) for _c, _u, overlap, swaps, _m, _s, _a in vectors
        ]
        assert [len(overlaps) for overlaps in arranged] == [1, 5, 10, 1, 5]
        keys = Counter()
        for (chosen, used, _o, _g, multiplicity, _s, _a), overlaps in zip(vectors, arranged):
            for new_size, _edge in new_edges(star, config, chosen, used):
                for overlap in overlaps:
                    keys[new_size, overlap] += multiplicity
        assert keys == Counter(key for _child, key, _edge in labelled_children(star, config))

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(EXHAUSTIVE_LARGE, k) for k in range(6, 13)]
        + [SearchConfig(NON_REDUNDANT_SMALL, k) for k in range(8, 13)],
        ids=lambda c: f"{c.mode}-{c.k}",
    )
    def test_weighted_vectors_count_every_subset_and_size(self, config):
        # a subset of u of a parent's n vertices and a new size in
        # max(2, u)..min(largest, u + k - n) make one labelled child, and
        # past a search of known vertices only the sizes above
        # u + known - n, whose children have more than known vertices; the
        # vectors, their arrangements and multiplicities count each once; the
        # closed form that weighs a ruled-out vector counts its arrangements
        table = {}
        k = config.k
        for rec in frontier_parents(config):
            n = rec.shape.vertex_count
            largest = min(len(rec.shape.edges[-1]), config.max_edge_size)
            # below n vertices known leaves every size, as known = 0 does
            for known in (0, *range(n, k)):
                expected = sum(
                    comb(n, u)
                    * max(0, min(largest, u + k - n) - max(2, u, u + known - n + 1) + 1)
                    for u in range(largest + 1)
                )
                weighted = 0
                for _c, _u, overlap, swaps, multiplicity, sizes, _a in _children(
                    rec.shape, config, table, known
                ):
                    count = len(_arrangements(overlap, swaps))
                    assert _arrangement_count(overlap, swaps) == count, (rec.shape.edges, overlap)
                    weighted += multiplicity * count * sizes.bit_count()
                assert weighted == expected, (rec.shape.edges, known)


SOUNDNESS_CONFIGS = [
    SearchConfig(mode, k) for mode in MODES for k in range(2, 9)
] + [SearchConfig(EXHAUSTIVE_LARGE, k, threshold=Fraction(7, 16)) for k in range(2, 8)]


class TestBound:
    @pytest.mark.parametrize(
        "config", SOUNDNESS_CONFIGS, ids=lambda c: f"{c.mode}-{c.k}-{c.threshold}"
    )
    def test_ruled_out_children_have_no_value_above_threshold(self, config):
        # every new size a count vector's mask drops has no size above the
        # threshold, by the unreduced reference walk, once per class of child
        table = {}
        ruled = 0
        for rec in frontier_parents(config):
            for chosen, used, _overlap, _swaps, _multiplicity, sizes, alive in _children(
                rec.shape, config, table
            ):
                expanded = list(new_edges(rec.shape, config, chosen, used))
                assert sizes == sum(1 << new_size for new_size, _edge in expanded)
                for new_size, edge in expanded:
                    if not alive >> new_size & 1:
                        ruled += 1
                        child = canonical_form(rec.shape.with_edge(edge))
                        assert reference_dead(child, config.threshold), child.edges
        # from k = 5 on every one of these searches has children to rule out
        assert ruled or config.k < 5

    @pytest.mark.parametrize(
        "config", SOUNDNESS_CONFIGS, ids=lambda c: f"{c.mode}-{c.k}-{c.threshold}"
    )
    def test_type_built_sub_shapes_match_the_edges_in_hand(self, config, monkeypatch):
        # every (type, new size) a fresh search asks is laid out from its type
        # alone, in normal form, and is isomorphic to the sub-shape of the
        # parent's edges and the new edge of the first vector that has it
        tables = []

        def spied(shape, config, table, known):
            tables.append(table)
            return _children(shape, config, table, known)

        monkeypatch.setattr("cubeint.search._children", spied)
        bfs_search(config)
        asked = {
            (key, new_size)
            for key, (sizes, _dead) in (tables[0] if tables else {}).items()
            for new_size in range(sizes.bit_length())
            if sizes >> new_size & 1
        }
        in_hand = {}
        for rec in frontier_parents(config):
            edges = rec.shape.edges
            n = rec.shape.vertex_count
            masks = [sum(1 << v for v in e) for e in edges]
            for chosen, used, overlap, _g, _m, sizes, _a in _children(rec.shape, config, {}):
                subs = [((len(e), x), (e,)) for e, x in zip(edges, overlap)]
                for j in range(len(edges)):
                    for i in range(j):
                        both = masks[i] & masks[j]
                        key = (
                            len(edges[i]),
                            len(edges[j]),
                            overlap[i],
                            overlap[j],
                            both.bit_count(),
                            (chosen & both).bit_count(),
                        )
                        subs.append((key, (edges[i], edges[j])))
                for new_size, _edge in new_edges(rec.shape, config, chosen, used):
                    for key, others in subs:
                        if (key, new_size) in asked and (key, new_size) not in in_hand:
                            fresh = new_size - used
                            in_hand[key, new_size] = reference_sub_shape(others, chosen, n, fresh)
        assert set(in_hand) == asked
        assert asked or config.k < 4
        for (key, new_size), reference in in_hand.items():
            built = _sub_shape(key, new_size)
            assert_normal_shape(built)
            assert canonical_form(built) == canonical_form(reference), (key, new_size)

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
        table = {}
        labelled = 0
        for records in searched(config).depths[: config.max_edges - 1]:
            for rec in records:
                for chosen, used, _overlap, _swaps, _multiplicity, _sizes, alive in _children(
                    rec.shape, config, table
                ):
                    for new_size, edge in new_edges(rec.shape, config, chosen, used):
                        if alive >> new_size & 1:
                            labelled += 1
                            canon = canonical_form(rec.shape.with_edge(edge))
                            assert intersection_value_set(canon, floor=config.threshold)
        assert labelled

    @pytest.mark.parametrize(
        "mode, labelled",
        [
            (NON_REDUNDANT_SMALL, {8: 74, 9: 80}),
            (EXHAUSTIVE_LARGE, {6: 263, 7: 420, 8: 624}),
        ],
    )
    def test_golden_labelled_counts(self, mode, labelled, monkeypatch):
        # bfs_search labels (canonicalises) each child it does not rule out,
        # one per orbit of count vectors, and in the small mode only those
        # with an admissible value (labelling every one read 284 and 299); a
        # weaker bound labels more
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

    @pytest.mark.parametrize(
        "mode, vectors",
        [
            (NON_REDUNDANT_SMALL, {8: 624, 9: 683}),
            (EXHAUSTIVE_LARGE, {6: 934, 7: 1667, 8: 2620}),
        ],
    )
    def test_golden_vector_counts(self, mode, vectors, monkeypatch):
        # bfs_search rules out or expands each count vector that allows a
        # new size once, for all its new sizes and arrangements
        calls = []

        def counted(shape, config, table, known):
            for vector in _children(shape, config, table, known):
                calls.append(vector)
                yield vector

        monkeypatch.setattr("cubeint.search._children", counted)
        counts = {}
        for k in vectors:
            calls.clear()
            bfs_search(SearchConfig(mode, k))
            counts[k] = len(calls)
        assert counts == vectors

    @pytest.mark.parametrize(
        "mode, arranged",
        [
            (NON_REDUNDANT_SMALL, {8: 255, 9: 268}),
            (EXHAUSTIVE_LARGE, {6: 238, 7: 382, 8: 569}),
        ],
    )
    def test_golden_arrangement_counts(self, mode, arranged, monkeypatch):
        # bfs_search lists the arrangements of each vector that keeps a new
        # size, once; a ruled-out vector's are counted in closed form
        calls = []

        def counted(overlap, groups):
            calls.append(overlap)
            return _arrangements(overlap, groups)

        monkeypatch.setattr("cubeint.search._arrangements", counted)
        counts = {}
        for k in arranged:
            calls.clear()
            bfs_search(SearchConfig(mode, k))
            counts[k] = len(calls)
        assert counts == arranged

    @pytest.mark.parametrize(
        "mode, built",
        [
            (NON_REDUNDANT_SMALL, {8: 249, 9: 277}),
            (EXHAUSTIVE_LARGE, {6: 132, 7: 161, 8: 180}),
        ],
    )
    def test_golden_sub_shape_counts(self, mode, built, monkeypatch):
        # the one table of a fresh search builds and tests a sub-shape once
        # per (type, new size) it is asked about; every other value set the
        # search takes is a first edge's or a built child's, one per new size
        # a count vector keeps alive; the large mode labels each child it
        # builds, the small mode only the ones it keeps
        tables, calls = [], Counter()

        def spied(shape, config, table, known):
            tables.append(table)
            for vector in _children(shape, config, table, known):
                calls["children"] += vector[-1].bit_count()
                yield vector

        def counted_form(shape):
            calls["canonical_form"] += 1
            return canonical_form(shape)

        def counted_values(shape, floor=0):
            calls["value_set"] += 1
            return intersection_value_set(shape, floor=floor)

        monkeypatch.setattr("cubeint.search._children", spied)
        monkeypatch.setattr("cubeint.search.canonical_form", counted_form)
        monkeypatch.setattr("cubeint.search.intersection_value_set", counted_values)
        counts = {}
        for k in built:
            tables.clear()
            calls.clear()
            config = SearchConfig(mode, k)
            bfs_search(config)
            assert all(table is tables[0] for table in tables)
            counts[k] = sum(asked.bit_count() for asked, _dead in tables[0].values())
            first_edges = config.max_edge_size - 1
            assert calls["value_set"] == first_edges + calls["children"] + counts[k]
            if mode == EXHAUSTIVE_LARGE:
                assert calls["canonical_form"] == calls["children"]
            else:
                assert calls["canonical_form"] < calls["children"]
        assert counts == built

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

    @pytest.mark.parametrize(
        "mode, raw, pruned",
        [
            (NON_REDUNDANT_SMALL, [8, 20, 35, 10, 12, 14, 16, 18, 20, 22, 23, 12], 8930),
            (EXHAUSTIVE_LARGE, [6, 17, 36, 52, 84, 116, 176, 242, 353, 488, 692, 933], 43828),
        ],
    )
    def test_golden_raw_and_pruned_counts_at_k12(self, mode, raw, pruned):
        # the raw survivors of each depth and the pruned children, as the
        # generator that labelled every count vector counted them
        result = searched(SearchConfig(mode, 12))
        assert [sum(rec.raw for rec in records) for records in result.depths] == raw
        assert result.pruned_count == pruned

    @pytest.mark.parametrize(
        "mode, raw",
        [(EXHAUSTIVE_LARGE, [3, 10, 41, 140]), (NON_REDUNDANT_SMALL, [3, 9, 30, 81, 6])],
    )
    def test_colliding_keys_count_once(self, mode, raw):
        # at 3/8 two children of one record can share a (new size, overlap)
        # key; each distinct key is one raw survivor, so keeping the repeats
        # would read 144 and 85 at depth 4
        result = searched(SearchConfig(mode, 4, threshold=Fraction(3, 8)))
        assert [sum(rec.raw for rec in records) for records in result.depths] == raw


class TestSmallerSearches:
    @pytest.mark.parametrize(
        "mode, k, big",
        [(EXHAUSTIVE_LARGE, 6, 8), (EXHAUSTIVE_LARGE, 7, 8), (NON_REDUNDANT_SMALL, 8, 9)],
    )
    def test_search_is_the_larger_search_restricted(self, mode, k, big):
        # a shape's parents have no more vertices than it, so the search of k
        # is the search of big cut down to shapes of at most k vertices
        def view(records):
            return [(r.shape.edges, r.values, r.max_size, r.raw) for r in records]

        small = searched(SearchConfig(mode, k)).depths
        large = searched(SearchConfig(mode, big)).depths
        for depth in range(k):
            restricted = [
                r for r in (large[depth] if depth < len(large) else [])
                if r.shape.vertex_count <= k
            ]
            assert view(small[depth] if depth < len(small) else []) == view(restricted)


def search_view(result):
    """What a search finds: each depth's records as (edges, max_size, values,
    raw), then pruned_count and terminated_naturally."""
    depths = [
        [(r.shape.edges, r.max_size, r.values, r.raw) for r in records]
        for records in result.depths
    ]
    return depths, result.pruned_count, result.terminated_naturally


GROWN_PAIRS = [
    (mode, known, k) for mode in MODES for k in range(3, 11) for known in range(2, k)
] + [(mode, 11, 12) for mode in MODES]


class TestGrownSearches:
    # a search grown from a smaller one expands only the children past the
    # smaller one's vertex count, and must find what a fresh search finds

    @pytest.mark.parametrize(
        "mode, known, k", GROWN_PAIRS, ids=lambda v: str(v) if isinstance(v, int) else v
    )
    def test_grown_search_equals_a_fresh_one(self, mode, known, k):
        base = searched(SearchConfig(mode, known))
        before = search_view(base), dict(base.table)
        grown = bfs_search(SearchConfig(mode, k), base=base)
        assert search_view(grown) == search_view(searched(SearchConfig(mode, k)))
        # the base's records are shared, not changed, and its table is copied
        assert (search_view(base), base.table) == before
        assert grown.table is not base.table

    @pytest.mark.parametrize("mode", MODES)
    def test_a_shallower_base_grows_in_full_past_its_depth(self, mode):
        base = bfs_search(SearchConfig(mode, 6, max_edges=3))
        grown = bfs_search(SearchConfig(mode, 8), base=base)
        assert search_view(grown) == search_view(searched(SearchConfig(mode, 8)))

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(NON_REDUNDANT_SMALL, 8),
            SearchConfig(EXHAUSTIVE_LARGE, 8, threshold=Fraction(7, 16)),
            SearchConfig(EXHAUSTIVE_LARGE, 7),
            SearchConfig(EXHAUSTIVE_LARGE, 6),
            SearchConfig(EXHAUSTIVE_LARGE, 8, max_edges=6),
        ],
        ids=["mode", "threshold", "same-k", "smaller-k", "fewer-edges"],
    )
    def test_refuses_a_base_it_cannot_grow(self, config):
        base = searched(SearchConfig(EXHAUSTIVE_LARGE, 7))
        with pytest.raises(ValueError, match="cannot grow into"):
            bfs_search(config, base=base)


class TestSmallAgainstExhaustive:
    # the small search's redundancy skip drops a state only when a search
    # with fewer conditions already reached its sizes, so up to every depth
    # it finds the values that the exhaustive search finds

    @pytest.mark.parametrize("k", range(6, 13))
    def test_half_threshold_values_match_at_every_depth(self, k):
        small = searched(SearchConfig(NON_REDUNDANT_SMALL, k, threshold=Fraction(1, 2)))
        large = searched(SearchConfig(EXHAUSTIVE_LARGE, k))
        assert small.terminated_naturally
        for m in range(1, k + 1):
            assert small.all_values_scaled(m) == large.all_values_scaled(m), m

    @pytest.mark.parametrize("k", [8, 9])
    def test_small_threshold_values_match_at_every_depth(self, k):
        small = searched(SearchConfig(NON_REDUNDANT_SMALL, k))
        large = searched(
            SearchConfig(EXHAUSTIVE_LARGE, k, threshold=Fraction(15, 32), max_edges=k)
        )
        for m in range(1, k + 1):
            assert small.all_values_scaled(m) == large.all_values_scaled(m), m


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

    def test_edge_bound_stops_at_k(self):
        # 1/100 is beaten by every support size up to 4,096; the scan stops at k
        assert SearchConfig(EXHAUSTIVE_LARGE, 4, threshold=Fraction(1, 100)).max_edge_size == 4
        assert SearchConfig(EXHAUSTIVE_LARGE, 12).max_edge_size == 7

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
