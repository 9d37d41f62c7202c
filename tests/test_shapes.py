import gc
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeint.cube import BudgetError, evaluate_pattern, row_masks
from cubeint.search import (
    EXHAUSTIVE_LARGE,
    MODES,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    bfs_search,
)
from cubeint.shapes import (
    CANONICAL_LEAF_BUDGET,
    OTHER,
    STAR21,
    STAR32,
    STAR32_CENTER_EDGES,
    Shape,
    _edge_candidates,
    _edge_choices,
    canonical_form,
    classify_star,
    intersection_value_set,
    max_intersection,
)
from cubeint import theorems
from cubeint.theorems import verify_large_sets, verify_small_window
from oracles import (
    assert_normal_shape,
    assignment_intersection,
    assignment_map,
    brute_canonical_form,
    labelled_children,
    naive_max_intersection,
    reference_edge_candidates,
    reference_value_set,
    shape_fraction,
    shared_vertices,
    unpruned_canonical_form,
)


def star21(edges, k=None):
    verts = k if k is not None else edges + 1
    return Shape.from_edges([(1, v) for v in range(2, min(edges + 2, verts + 1))])


def shape(*edges):
    return Shape.from_edges(edges)


class TestShapeBasics:
    def test_edges_sorted_and_relabelled(self):
        s = Shape.from_edges([(7, 9), (2, 7, 9)])
        assert s.edges == ((1, 2, 3), (2, 3))  # sizes descending, labels packed

    def test_rejects_singletons(self):
        for edges in ([(1,)], [(1, 1)], [(1, 2), (3,)]):
            with pytest.raises(ValueError, match="edges of size < 2 are excluded"):
                Shape.from_edges(edges)
        with pytest.raises(ValueError, match="a shape needs at least one edge"):
            Shape.from_edges([])

    def test_search_keeps_shapes_normal(self):
        # Shape(edges) does not check its input, so every shape the search
        # builds itself must already be in normal form
        for s in search_inputs(6):
            assert_normal_shape(s)
            assert_normal_shape(canonical_form(s))

    def test_duplicate_edges_allowed(self):
        s = Shape.from_edges([(1, 2), (1, 2)])
        assert len(s.edges) == 2 and len(set(s.edges)) == 1

    def test_json_round_trip(self):
        s = shape((1, 2, 3), (2, 3, 4))
        assert Shape.from_json_dict(s.to_json_dict()) == s


class TestMinimality:
    def test_private_vertices_minimal(self):
        assert shape((1, 2, 3), (3, 4)).is_minimal()

    def test_contained_support_not_minimal(self):
        assert not shape((1, 2, 3), (2, 3, 4), (4, 5)).is_minimal()

    def test_duplicate_edge_not_minimal(self):
        assert not shape((1, 2), (1, 2), (1, 3)).is_minimal()

    def test_single_edge_minimal(self):
        assert shape((1, 2)).is_minimal()

    def test_no_edge_inside_the_others(self):
        # a private vertex is the same as an edge not covered by the rest
        for s in small_shape_inputs(max_vertices=5, max_edges=3):
            covered = [
                set(edge) <= {v for j, e in enumerate(s.edges) if j != i for v in e}
                for i, edge in enumerate(s.edges)
            ]
            assert s.is_minimal() == (not any(covered)), s


class TestCanonicalForm:
    def test_relabelled_pairs_coincide(self):
        a = shape((1, 2), (1, 3))
        b = shape((2, 3), (2, 1))
        assert canonical_form(a) == canonical_form(b)

    def test_star_path_distinct(self):
        star = shape((1, 2), (1, 3), (1, 4))
        path = shape((1, 2), (2, 3), (3, 4))
        assert canonical_form(star) != canonical_form(path)

    def test_idempotent(self):
        s = shape((1, 2, 3), (1, 2, 4), (1, 2))
        assert canonical_form(canonical_form(s)) == canonical_form(s)

    def test_duplicate_multiplicity_preserved(self):
        s = shape((1, 2), (1, 2), (1, 3))
        c = canonical_form(s)
        assert len(c.edges) == 3 and len(set(c.edges)) == 2

    def test_distinguishes_pair_edge_placement(self):
        # a 2-edge touching the shared vertex vs. one that misses it
        a = shape((1, 2, 3), (3, 4, 5), (1, 3))
        b = shape((1, 2, 3), (3, 4, 5), (1, 4))
        assert canonical_form(a) != canonical_form(b)


class TestClassification:
    def test_examples(self):
        assert classify_star(shape((1, 2), (1, 3), (1, 4))) == STAR21
        assert classify_star(shape((1, 2))) == STAR21
        assert classify_star(shape((1, 2, 3), (1, 2, 4), (1, 2, 5))) == STAR32
        # a three-vertex core holds the 3-2 centre
        assert classify_star(shape((1, 2, 3), (1, 2, 3))) == STAR32
        assert (
            classify_star(shape((1, 2, 3), (1, 2, 4), (1, 2)))
            == STAR32_CENTER_EDGES
        )
        assert (
            classify_star(shape((1, 2, 3), (1, 2, 4), (1, 2), (1, 2)))
            == STAR32_CENTER_EDGES
        )

    def test_non_stars(self):
        assert classify_star(shape((1, 2), (3, 4))) == OTHER
        assert classify_star(shape((1, 2), (2, 3), (3, 4))) == OTHER
        assert classify_star(shape((1, 2, 3), (1, 4, 5), (1, 6, 7))) == OTHER
        # two distinct pairs, each inside every triple
        assert classify_star(shape((1, 2, 3), (1, 2, 3), (1, 2), (1, 3))) == OTHER
        # a pair inside one triple that misses the other
        assert classify_star(shape((1, 2, 3), (1, 2, 4), (1, 3))) == OTHER


class TestAssignmentIntersection:
    def test_agreeing_pair_scores_ten(self):
        s = shape((1, 2, 3), (2, 3, 4))
        # canonical labels: shared pair first, one private leaf per edge
        canon = canonical_form(s)
        assignment = ((1, 1, -1), (1, 1, -1))
        assert assignment_intersection(canon, assignment) == 10

    def test_disagreeing_pair_scores_eight(self):
        canon = canonical_form(shape((1, 2, 3), (2, 3, 4)))
        assignment = ((1, 1, -1), (-1, 1, 1))
        assert assignment_intersection(canon, assignment) == 8

    def test_triple_star_through_one_vertex(self):
        s = shape((1, 2, 3), (1, 4, 5), (1, 6, 7))
        signs = tuple((-1, 1, 1) for _ in range(3))
        assert assignment_intersection(s, signs) == 54

    def test_always_matches_map_evaluation(self):
        shapes = [
            shape((1, 2), (1, 3)),
            shape((1, 2, 3), (2, 3, 4)),
            shape((1, 2), (1, 2)),
            shape((1, 2, 3), (1, 2, 4), (1, 2)),
        ]
        for s in shapes:
            for combo in product(
                *[list(product((-1, 1), repeat=len(e))) for e in s.edges]
            ):
                size = evaluate_pattern(assignment_map(s, combo)).bit_count()
                assert assignment_intersection(s, combo) == size


class TestMaxIntersection:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_full_two_one_star(self, k):
        s = Shape.from_edges([(1, v) for v in range(2, k + 1)])
        best, witness = max_intersection(s)
        assert best == (1 << (k - 1)) + 1
        assert assignment_intersection(s, witness) == best

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_full_three_two_star(self, k):
        s = Shape.from_edges([(1, 2, v) for v in range(3, k + 1)])
        best, _ = max_intersection(s)
        assert best == (1 << (k - 1)) + 2

    def test_pair_star_max_ten(self):
        s = shape((1, 2, 3), (2, 3, 4))
        best, witness = max_intersection(s)
        assert best == 10
        # the witness agrees in sign across the shared pair
        for v in shared_vertices(s):
            first, second = s.edges[0], s.edges[1]
            assert witness[0][first.index(v)] == witness[1][second.index(v)]


class TestValueSets:
    def test_single_edge_values(self):
        # 2 is not achievable: an edge carries no zero entries, and both
        # nonzero sign choices on two coordinates give 1 or 3 points
        values = intersection_value_set(shape((1, 2)))
        assert sorted(values) == [1, 3]

    def test_values_match_assignments(self):
        assert_value_sets_match_reference([shape((1, 2, 3), (1, 2, 4))], [0])

    def test_floor_prunes(self):
        s = shape((1, 2, 3), (1, 2, 4))
        high = intersection_value_set(s, floor=Fraction(1, 2))
        assert all(v > 8 for v in high)
        assert max(high) == 10


class TestFractions:
    def test_examples(self):
        assert shape_fraction(shape((1, 2, 3), (2, 3, 4))) == Fraction(5, 8)
        assert shape_fraction(shape((1, 2))) == Fraction(3, 4)
        assert shape_fraction(
            shape((1, 2, 3), (1, 4, 5), (1, 6, 7))
        ) == Fraction(27, 64)

    def test_isolated_vertices_never_enter(self):
        # fractions are per covered vertex, so there is nothing to normalise
        s = shape((1, 2))
        assert shape_fraction(s).denominator == 4


def small_shape_inputs(max_vertices=5, max_edges=3):
    """Every shape with few vertices and distinct edges, in every labelling."""
    all_edges = [
        tuple(sorted(c))
        for size in (2, 3, 4, 5)
        for c in combinations(range(1, max_vertices + 1), size)
    ]
    for count in range(1, max_edges + 1):
        for combo in combinations(all_edges, count):
            covered = sorted({v for e in combo for v in e})
            if covered == list(range(1, len(covered) + 1)):
                yield Shape(tuple(sorted(combo, key=lambda e: (-len(e), e))))


def small_shapes(max_vertices=5, max_edges=3):
    """Every shape (up to isomorphism) with few vertices and edges."""
    seen = set()
    for s in small_shape_inputs(max_vertices, max_edges):
        canon = canonical_form(s)
        if canon.edges not in seen:
            seen.add(canon.edges)
            yield canon


def search_inputs(max_k=6):
    """Every state of the three search modes up to k, and every labelled child
    of each: a superset of what the searches pass to canonical_form."""
    for mode in MODES:
        for k in range(2, max_k + 1):
            config = SearchConfig(mode, k)
            result = bfs_search(config)
            for records in result.depths:
                for rec in records:
                    yield rec.shape
                    for child, _key, _edge in labelled_children(rec.shape, config):
                        yield child


def cycle_unions():
    """Unions of cycles of seven or fewer vertices in all, each under several
    relabellings: every vertex has degree two."""

    def cycles(*lengths):
        edges, start = [], 1
        for n in lengths:
            edges += [(start + i, start + (i + 1) % n) for i in range(n)]
            start += n
        return edges

    shapes = []
    for lengths in [(7,), (3, 4), (4, 3), (3, 3), (6,)]:
        edges = cycles(*lengths)
        n = max(v for e in edges for v in e)
        for step in (1, 2, 3, 5):
            if gcd(step, n) == 1:
                perm = [(step * v) % n + 1 for v in range(n)]
                shapes.append(Shape.from_edges([(perm[a - 1], perm[b - 1]) for a, b in edges]))
    return shapes


def assert_matches_brute_force(shapes):
    """canonical_form splits shapes into the oracle's classes and keeps each
    shape in its own class."""
    classes = {}
    for s in shapes:
        brute = brute_canonical_form(s)
        canon = canonical_form(s)
        assert brute_canonical_form(canon) == brute
        assert classes.setdefault(canon.edges, brute.edges) == brute.edges
    assert len(set(classes.values())) == len(classes)


class TestCanonicalAgainstBruteForce:
    def test_small_shapes(self):
        assert_matches_brute_force(small_shape_inputs(5, 3))

    def test_search_inputs_to_k6(self):
        assert_matches_brute_force(search_inputs(6))

    def test_ties_refinement_cannot_split(self):
        # every vertex of a union of cycles has degree two, so refinement
        # leaves one cell and only the least leaf tells C3+C4 from C7
        shapes = cycle_unions()
        assert_matches_brute_force(shapes)
        assert len({canonical_form(s) for s in shapes}) == 4

    def test_cycle_and_star_stay_cheap(self):
        # the oracle would try 10! edge orderings on each; refinement needs a few leaves
        cycle = Shape.from_edges([(v, v % 10 + 1) for v in range(1, 11)])
        shuffled = Shape.from_edges([(3 * v % 11, 3 * (v % 10 + 1) % 11) for v in range(1, 11)])
        canon = canonical_form(cycle)
        assert canon == canonical_form(shuffled) != cycle
        assert all(len(edges) == 2 for edges in canon.vertex_classes())
        assert len(canon.edges) == 10
        star = Shape.from_edges([(1, v) for v in range(2, 12)])
        assert canonical_form(star) == star

    def test_budget(self):
        # no transposition maps three disjoint 5-cycles onto themselves, so
        # nothing is pruned: 15 * 2 * 10 * 2 * 5 * 2 = 6,000 leaves
        five_cycles = Shape.from_edges(
            (5 * c + i, 5 * c + (i + 1) % 5) for c in range(3) for i in range(5)
        )
        with pytest.raises(BudgetError, match=str(CANONICAL_LEAF_BUDGET)):
            canonical_form(five_cycles)


class TestPruningAgainstUnpruned:
    """canonical_form skips the subtree of a vertex that a transposition
    automorphism swaps with one already explored; the unpruned tree must give
    the same representative."""

    def test_every_child_the_certificates_label(self, cold_certificates):
        shapes = {s.edges: s for run in cold_certificates.values() for s in run["labelled"]}
        assert len(shapes) > 2_000
        for s in shapes.values():
            assert canonical_form(s) == unpruned_canonical_form(s), s

    @pytest.mark.parametrize(
        "edges",
        [
            # 7! = 5,040 leaves unpruned, one leaf pruned
            combinations(range(1, 8), 2),
            # seven doubled spokes around one vertex, labelled by the large
            # search at k = 14
            [(0, v) for v in range(1, 8) for _ in range(2)],
        ],
        ids=["complete-graph-7", "seven-doubled-spokes"],
    )
    def test_symmetric_shapes_past_the_budget_unpruned(self, edges):
        s = Shape.from_edges(edges)
        assert canonical_form(s) == unpruned_canonical_form(s)

    def test_cycle_unions(self):
        for s in cycle_unions():
            assert canonical_form(s) == unpruned_canonical_form(s), s


FLOORS = (Fraction(0), Fraction(15, 32), Fraction(1, 2))


def reference_vertex_classes(s):
    """Every vertex class as (incident edge indices, ascending members): the
    vertices with the same incident edges, in order of their least vertex,
    found vertex by vertex and edge by edge."""
    classes = {}
    for v in range(1, s.vertex_count + 1):
        incident = tuple(j for j, edge in enumerate(s.edges) if v in edge)
        classes.setdefault(incident, []).append(v)
    return list(classes.items())


def assert_vertex_classes_match_reference(shapes):
    """Shape.vertex_classes gives the reference's classes in its order, and
    is_minimal holds iff every edge has a vertex of multiset degree one."""
    for s in shapes:
        assert list(s.vertex_classes().items()) == reference_vertex_classes(s), s
        degree = Counter(v for edge in s.edges for v in edge)
        assert s.is_minimal() == all(any(degree[v] == 1 for v in e) for e in s.edges), s


def packed_reference_candidates(s):
    """The reference's choices of every edge whose signs are non-decreasing
    (-1s first) on every vertex class whose first edge it is."""
    classes = reference_vertex_classes(s)
    return [
        [
            (signs, mask)
            for signs, mask in choices
            if all(
                (row := [signs[edge.index(v)] for v in members]) == sorted(row)
                for incident, members in classes
                if incident[0] == j
            )
        ]
        for j, (edge, choices) in enumerate(zip(s.edges, reference_edge_candidates(s)))
    ]


def mask_signs(edge, mask):
    """The signs on edge's vertices of the choice with this mask: v's is +1
    iff the point with only v set, 2^(v-1), lies in the mask."""
    return tuple(1 if mask >> (1 << (v - 1)) & 1 else -1 for v in edge)


def assert_value_sets_match_reference(shapes, floors=FLOORS):
    """The cached per-edge choices are the masks of the packed part of a
    fresh unreduced build, in its order, each mask giving back its choice's
    signs, and intersection_value_set gives the unreduced reference walk's
    values at every floor, each value proven achievable by a reference
    witness that scores it."""
    for s in shapes:
        packed = packed_reference_candidates(s)
        assert [list(c) for c in _edge_candidates(s)] == [
            [mask for _signs, mask in choices] for choices in packed
        ]
        for edge, choices in zip(s.edges, packed):
            for signs, mask in choices:
                assert mask_signs(edge, mask) == signs, (s, edge)
        for floor in floors:
            reference = reference_value_set(s, floor)
            assert intersection_value_set(s, floor) == tuple(reference)
            for value, witness in reference.items():
                assert assignment_intersection(s, witness) == value


# the code of canonical_form's nested refine, whose calls cold_certificates counts
REFINE_CODE = next(
    const
    for const in canonical_form.__wrapped__.__code__.co_consts
    if getattr(const, "co_name", None) == "refine"
)


@pytest.fixture(scope="module")
def cold_certificates():
    """For each certificate run from cold shape caches and with no earlier
    search to grow, verify_large_sets(6..12) and verify_small_window(8..12):
    every _edge_choices key it reaches with its choices, the (edge, groups)
    of every row_masks walk shapes makes, every shape it labels, the number
    of refine calls its labelling makes (counted by a trace function that
    is set only inside canonical_form), its search and its report."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:

        def recorded_choices(k, edge, groups):
            keys[k, edge, groups] = choices = _edge_choices(k, edge, groups)
            return choices

        def recorded_walk(k, entries, support, groups):
            walks.append((support, groups))
            return row_masks(k, entries, support, groups)

        def count_refine(frame, _event, _arg):
            if frame.f_code is REFINE_CODE:
                refines.append(None)

        def recorded_form(shape):
            labelled.append(shape)
            previous = sys.gettrace()
            sys.settrace(count_refine)
            try:
                return canonical_form(shape)
            finally:
                sys.settrace(previous)

        mp.setattr("cubeint.shapes._edge_choices", recorded_choices)
        mp.setattr("cubeint.shapes.row_masks", recorded_walk)
        mp.setattr("cubeint.search.canonical_form", recorded_form)
        mp.setattr("cubeint.theorems.canonical_form", recorded_form)
        for mode, search_mode, ks, verify in (
            ("large", EXHAUSTIVE_LARGE, range(6, 13), verify_large_sets),
            ("small", NON_REDUNDANT_SMALL, range(8, 13), verify_small_window),
        ):
            for k in ks:
                canonical_form.cache_clear()
                _edge_choices.cache_clear()
                intersection_value_set.cache_clear()
                theorems._last_search.clear()
                keys, walks, labelled, refines = {}, [], [], []
                report = verify(k)
                assert report.passed
                runs[mode, k] = {
                    "keys": keys,
                    "walks": walks,
                    "labelled": labelled,
                    "refines": len(refines),
                    "search": theorems._last_search[search_mode],
                    "report": report,
                }
    return runs


class TestColdCertificates:
    """Facts the certificates read many times, against their definitions."""

    def test_stored_vertex_count_is_the_largest_vertex(self, cold_certificates):
        for run in cold_certificates.values():
            for records in run["search"].depths:
                for rec in records:
                    assert rec.shape.vertex_count == max(edge[-1] for edge in rec.shape.edges)

    def test_minimal_is_every_edge_keeping_a_private_class(self, cold_certificates):
        for run in cold_certificates.values():
            for records in run["search"].depths:
                for rec in records:
                    classes = rec.shape.vertex_classes()
                    private = all((j,) in classes for j in range(len(rec.shape.edges)))
                    assert rec.shape.is_minimal() == private, rec.shape

    def test_folded_values_are_the_values_to_each_depth(self, cold_certificates):
        for k in range(6, 13):
            run = cold_certificates["large", k]
            computed = {
                check.details["n"] - k: check.details["computed"]
                for check in run["report"].checks
                if check.name.startswith("H+(")
            }
            for extra in range(1, k + 1):
                padded = {
                    v << (k - rec.shape.vertex_count)
                    for records in run["search"].depths[:extra]
                    for rec in records
                    for v in rec.values
                }
                assert padded == run["search"].all_values_scaled(max_depth=extra)
                assert computed[extra] == sorted({1 << k} | padded), (k, extra)
            assert len(computed) == k

    @pytest.mark.parametrize(
        "mode, refines",
        [
            ("large", {6: 264, 7: 433, 8: 667, 9: 1017, 10: 1524, 11: 2275, 12: 3338}),
            ("small", {8: 92, 9: 98, 10: 104, 11: 110, 12: 116}),
        ],
    )
    def test_golden_refine_counts(self, cold_certificates, mode, refines):
        # colour refinements per cold certificate; without the transposition
        # pruning they read 299, 522, 910, 1625, 3058, 5958 and 12508
        # (large) and 615, 634, 652, 670 and 688 (small), and with it but
        # with every small child labelled before it was scored, 406, 423,
        # 439, 455 and 471 (small)
        assert {k: cold_certificates[mode, k]["refines"] for k in refines} == refines


class TestValueSetAgainstReference:
    def test_small_shape_inputs(self):
        assert_value_sets_match_reference(small_shape_inputs(5, 3))

    def test_search_inputs_to_k6(self):
        # the searches' own floors: at floor 0 the unpruned reference walk
        # takes seconds on one five-edge shape
        distinct = {s.edges: s for s in search_inputs(6)}
        assert_vertex_classes_match_reference(distinct.values())
        assert_value_sets_match_reference(distinct.values(), FLOORS[1:])

    def test_edge_choices_are_keyed_on_the_reference_classes(self):
        assert_vertex_classes_match_reference(small_shapes(5, 3))
        for s in small_shapes(5, 3):
            classes = reference_vertex_classes(s)
            for j, (edge, choices) in enumerate(zip(s.edges, _edge_candidates(s))):
                groups = tuple(
                    tuple(m) for incident, m in classes if incident[0] == j and len(m) > 1
                )
                key = (s.vertex_count, edge, groups)
                assert _edge_choices(*key) is choices
                assert choices == tuple(row_masks(s.vertex_count, (-1, 1), edge, groups))

    def test_edge_choices_equal_a_fresh_build(self, cold_certificates):
        # every key the certificates reach, tiled ones included, against a
        # direct row_masks walk at its own k (up to 12)
        keys = {}
        for choices in cold_certificates.values():
            keys.update(choices["keys"])
        assert max(k for k, _edge, _groups in keys) == 12
        for (k, edge, groups), choices in keys.items():
            assert choices == tuple(row_masks(k, (-1, 1), edge, groups)), (k, edge, groups)

    @pytest.mark.parametrize(
        "mode, walks",
        [("large", {6: 70, 7: 98, 8: 122}), ("small", {8: 136, 9: 167})],
    )
    def test_golden_walk_counts(self, cold_certificates, mode, walks):
        # one row_masks walk per (edge, groups), whatever the vertex counts
        # it is asked at; walking each (k, edge, groups) read 130, 203 and
        # 277 (large) and 321 and 416 (small).  The small search scores each
        # child as it is built, not its canonical form, and so walks other
        # edges; scoring canonical forms it read 145 and 178
        for (run_mode, _k), run in cold_certificates.items():
            if run_mode == mode:
                assert len(run["walks"]) == len(set(run["walks"]))
                assert set(run["walks"]) == {(edge, groups) for _k, edge, groups in run["keys"]}
        assert {k: len(cold_certificates[mode, k]["walks"]) for k in walks} == walks

    def test_extreme_floors(self):
        s = shape((1, 2, 3), (1, 2, 4))
        assert intersection_value_set(s, 1) == tuple(reference_value_set(s, 1)) == ()
        assert sorted(intersection_value_set(s, Fraction(-1, 3))) == sorted(
            reference_value_set(s, Fraction(-1, 3))
        )


def assert_max_is_the_first_reference_witness(shapes):
    """max_intersection gives the unreduced reference's largest value M with
    its first witness.  The reference walks above (M - 1) / 2^k: that floor
    only drops partial intersections of M - 1 points or fewer, which hold no
    assignment of value M or more, so the first witness of M and any larger
    value stay."""
    for s in shapes:
        best, witness = max_intersection(s)
        reference = reference_value_set(s, Fraction(max(best - 1, 0), 1 << s.vertex_count))
        assert reference, s
        top = max(reference)
        assert (best, witness) == (top, reference[top]), s


class TestMaxWitnessAgainstReference:
    def test_small_shape_inputs(self):
        assert_max_is_the_first_reference_witness(small_shape_inputs(5, 3))

    def test_signs_past_level_set_bits(self):
        # vertex 15's sign is read from point 2^14, past the first
        # LEVEL_SET_BITS coordinates
        s = Shape.from_edges([range(1, 15), (1, 15)])
        assert s.vertex_count == 15
        assert_max_is_the_first_reference_witness([s])

    @pytest.mark.parametrize(
        "mode, k", [(EXHAUSTIVE_LARGE, 6), (NON_REDUNDANT_SMALL, 8)]
    )
    def test_search_survivors(self, mode, k):
        result = bfs_search(SearchConfig(mode, k))
        assert_max_is_the_first_reference_witness(
            rec.shape for records in result.depths for rec in records
        )


# a nested function that calls itself holds itself through its closure cell,
# so every call of a walk written that way leaves a cycle for the collector
CYCLE = Shape.from_edges([(v, v % 6 + 1) for v in range(1, 7)])
FRESH_CALLS = {
    "canonical_form": lambda: canonical_form.__wrapped__(CYCLE),
    "max_intersection": lambda: max_intersection(
        Shape.from_edges([(1, 2, 3, 4), (3, 4, 5), (1, 5, 6, 7), (2, 6)])
    ),
    "row_masks": lambda: list(row_masks(4, (-1, Fraction(1, 2), 1), (1, 2, 4), ((1, 4),))),
}


@pytest.mark.parametrize("name", FRESH_CALLS)
def test_walks_leave_no_garbage(name):
    gc.collect()
    gc.disable()
    try:
        FRESH_CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAgainstBruteForce:
    def test_reduced_max_equals_naive(self):
        for s in small_shapes(max_vertices=4, max_edges=2):
            assert max_intersection(s)[0] == naive_max_intersection(s)


@given(st.data())
def test_fraction_never_grows_with_an_edge(data):
    base_edges = data.draw(
        st.lists(
            st.lists(st.integers(1, 5), min_size=2, max_size=3, unique=True),
            min_size=1,
            max_size=2,
        )
    )
    extra = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=3, unique=True))
    try:
        base = Shape.from_edges([tuple(e) for e in base_edges])
        grown = Shape.from_edges([tuple(e) for e in base_edges] + [tuple(extra)])
    except ValueError:
        return
    assert shape_fraction(grown) <= shape_fraction(base)


@given(st.data())
def test_conditioning_formula_matches_mask_evaluation(data):
    edges = data.draw(
        st.lists(
            st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    try:
        s = Shape.from_edges([tuple(e) for e in edges])
    except ValueError:
        return
    signs = tuple(
        tuple(data.draw(st.sampled_from((-1, 1))) for _ in edge) for edge in s.edges
    )
    size = evaluate_pattern(assignment_map(s, signs)).bit_count()
    assert assignment_intersection(s, signs) == size


@given(st.data())
def test_canonical_form_is_label_invariant(data):
    edges = data.draw(
        st.lists(
            st.lists(st.integers(1, 6), min_size=2, max_size=3, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    try:
        s = Shape.from_edges([tuple(e) for e in edges])
    except ValueError:
        return
    k = s.vertex_count
    perm = data.draw(st.permutations(range(1, k + 1)))
    relabelled = Shape.from_edges(
        [tuple(perm[v - 1] for v in e) for e in s.edges]
    )
    assert canonical_form(s) == canonical_form(relabelled)
    assert max_intersection(canonical_form(s))[0] == max_intersection(s)[0]


@st.composite
def relabelled_pair(draw):
    """A small shape with duplicate edges and twin vertices, and a random
    relabelling of it."""
    edges = draw(
        st.lists(
            st.lists(st.integers(1, 5), min_size=2, max_size=3, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    twin_of = draw(st.integers(1, 5))
    if draw(st.booleans()):
        edges = [e + [6] if twin_of in e else e for e in edges]
    labels = sorted({v for e in edges for v in e})
    perm = dict(zip(labels, draw(st.permutations(labels))))
    relabelled = [[perm[v] for v in e] for e in edges]
    return Shape.from_edges(edges), Shape.from_edges(relabelled)


@given(relabelled_pair(), relabelled_pair())
def test_canonical_form_matches_brute_force_on_relabellings(first, second):
    a, a_relabelled = first
    b, _ = second
    for s in (a, a_relabelled, b, canonical_form(a), canonical_form(b)):
        assert_normal_shape(s)
    assert canonical_form(a) == canonical_form(a_relabelled)
    assert brute_canonical_form(canonical_form(a)) == brute_canonical_form(a)
    same = canonical_form(a) == canonical_form(b)
    assert same == (brute_canonical_form(a) == brute_canonical_form(b))


@given(relabelled_pair())
def test_value_set_matches_reference_on_relabellings(pair):
    a, a_relabelled = pair
    assert_normal_shape(a)
    assert_normal_shape(a_relabelled)
    assert_value_sets_match_reference([a, a_relabelled])
    for floor in FLOORS:
        assert list(intersection_value_set(a, floor)) == list(
            intersection_value_set(a_relabelled, floor)
        )
