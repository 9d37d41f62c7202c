"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every expected value is exact, no tolerances anywhere.
"""
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from cubeint.codim1 import codim1_table, large_codim1_sizes
from cubeint.cube import LinearMap, intersection_size, row_masks
from cubeint.search import EXHAUSTIVE_LARGE, NON_REDUNDANT_SMALL, SearchConfig, bfs_search
from cubeint.shapes import (
    STAR21,
    STAR32,
    Shape,
    canonical_form,
    classify_star,
    max_intersection,
)
from cubeint.theorems import (
    antichain_bound_check,
    build_21_star_map,
    count_subset_sums_in,
    expected_h_n_window,
    expected_small_families,
    h_n_window,
    ints_window_check,
    large_membership_witnesses,
    verify_large_sets,
    verify_small_window,
)
from lemmas import (
    build_32_star_map,
    build_zero_extension,
    condition_drop_bound_sweep,
    restrict,
)
from oracles import naive_max_intersection


def report(number: int, passed: bool, description: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {status} ({elapsed:.1f}s): {description}",
        file=sys.stderr,
        flush=True,
    )
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_codim1_table(capsys):
    start = time.time()
    expected = [
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
    ok = codim1_table() == expected

    from cubeint.cli import main as cli_main

    ok = ok and cli_main(["sizes", "codim1"]) == 0
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith("#")
    ]
    ok = ok and lines[0] == "a\tb\tt"
    ok = ok and [tuple(int(v) for v in line.split("\t")) for line in lines[1:]] == expected
    report(1, ok, "codim-1 (a,b,t) table has exactly the nine rows", time.time() - start)


def test_criterion_02_single_condition_large_sizes():
    start = time.time()
    ok = True
    for k in range(6, 25):
        sizes = large_codim1_sizes(k)
        ok = ok and sizes == tuple(sorted(large_membership_witnesses(k, 1)))
    ok = ok and large_codim1_sizes(6) == (35, 40, 48, 64)
    report(2, ok, "one extra condition: large sizes for k=6..24", time.time() - start)


def test_criterion_03_large_search_structure():
    start = time.time()

    def minimal(k):
        # the survivors of one to three edges in which every edge keeps a
        # private vertex
        result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, k, max_edges=3))
        return [[r for r in records if r.shape.is_minimal()] for records in result.depths]

    _singles, pairs, triples = minimal(12)
    ok = all(rec.shape.vertex_count <= 6 for rec in pairs)
    for rec in triples:
        family = classify_star(rec.shape)
        ok = ok and family in (STAR21, STAR32)
        half = 1 << (rec.shape.vertex_count - 1)
        ok = ok and rec.max_size == half + (1 if family == STAR21 else 2)
    # survivor structure is k-independent once k >= 7
    ok = ok and [r.shape.edges for r in minimal(7)[2]] == [r.shape.edges for r in triples]
    report(
        3,
        ok,
        "minimal survivors: pair unions <= 6, triples are the two stars",
        time.time() - start,
    )


@pytest.mark.parametrize("k", [6, 7, 8])
def test_criterion_04_large_chain(k):
    start = time.time()
    rep = verify_large_sets(k)
    report(
        4,
        rep.passed,
        f"full above-half chain for k={k} incl. the two/three-condition stall",
        time.time() - start,
    )


def test_criterion_05_small_search_and_window():
    start = time.time()
    search = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, 8, max_edges=4))
    families = sorted((r.shape for r in search.depths[3]), key=lambda s: s.edges)
    ok = (
        sum(r.raw_count() for r in search.depths[3]) == 10
        and len(search.depths[3]) == 6
        and [s.edges for s in families]
        == [s.edges for s in expected_small_families()]
    )
    window = verify_small_window(8)
    ok = ok and window.passed
    report(
        5,
        ok,
        "small search: 10 raw / 6 canonical survivors; window is {120,126,128}",
        time.time() - start,
    )


def test_criterion_06_antichain_bound():
    start = time.time()
    extremal = count_subset_sums_in(
        [Fraction(1)] * 4, [Fraction(i) for i in range(4)]
    )
    ok = extremal == 15
    for ell in range(4, 17):
        ok = ok and antichain_bound_check(ell).passed
    report(
        6,
        ok,
        "subset-sum bound: extremal 15 at ell=4, proved by symmetric chains for ell=4..16",
        time.time() - start,
    )


def _all_small_shapes(max_vertices=5, max_edges=3):
    all_edges = [
        tuple(sorted(c))
        for size in range(2, max_vertices + 1)
        for c in combinations(range(1, max_vertices + 1), size)
    ]
    seen = set()
    for count in range(1, max_edges + 1):
        for combo in combinations_with_replacement(all_edges, count):
            covered = sorted({v for e in combo for v in e})
            if covered != list(range(1, len(covered) + 1)):
                continue
            canon = canonical_form(Shape.from_edges(combo))
            if canon.edges in seen:
                continue
            seen.add(canon.edges)
            yield canon


def test_criterion_07_oracle_equivalence():
    start = time.time()
    ok = True
    for shape in _all_small_shapes():
        if max_intersection(shape)[0] != naive_max_intersection(shape):
            ok = False
            break

    # all sign maps with k <= 3, m <= 3: restriction monotonicity
    for k in range(1, 4):
        masks = dict(zip(product((-1, 0, 1), repeat=k), row_masks(k, (-1, 0, 1))))
        rows = list(masks)
        for m in (2, 3):
            for combo in combinations_with_replacement(rows, m):
                current = (1 << (1 << k)) - 1
                previous_count = 1 << k
                for row in combo:
                    current &= masks[row]
                    count = current.bit_count()
                    ok = ok and count <= previous_count
                    previous_count = count
    # spot-check the same fact through the public API
    sample = LinearMap.from_rows(3, [[1, -1, 0], [0, 1, 1], [1, 0, -1]])
    t3 = intersection_size(sample)
    ok = ok and all(
        intersection_size(restrict(sample, set(sub))) >= t3
        for r in (1, 2)
        for sub in combinations((1, 2, 3), r)
    )
    ok = ok and condition_drop_bound_sweep(max_k=3, max_rows=3).passed
    report(
        7,
        ok,
        "shape maxima match brute force; monotonicity and drop bound exhaustive",
        time.time() - start,
    )


def test_criterion_08_constructions():
    start = time.time()
    ok = True
    for k in range(2, 11):
        ok = ok and intersection_size(build_21_star_map(k)) == (1 << k) + 1
    for k in range(4, 11):
        ok = ok and intersection_size(build_32_star_map(k)) == (1 << (k - 1)) + 2
    # every {-1,0,1} map with k <= 3 and m <= 3, or k = 4 and m <= 2
    for k, max_m in ((1, 3), (2, 3), (3, 3), (4, 2)):
        rows = list(product((-1, 0, 1), repeat=k))
        for m in range(1, max_m + 1):
            for combo in product(rows, repeat=m):
                base = LinearMap.from_rows(k, combo)
                ok = ok and intersection_size(build_zero_extension(base)) == 2 * intersection_size(base)
    report(
        8,
        ok,
        "star constructions hit 2^k+1 and 2^(k-1)+2; zero columns double",
        time.time() - start,
    )


def test_criterion_09_whole_cube_window():
    start = time.time()
    witnesses8 = h_n_window(8)
    witnesses10 = h_n_window(10)
    ok = tuple(sorted(witnesses8)) == (64, 70, 80, 96, 128, 256)
    ok = ok and tuple(sorted(witnesses10)) == (256, 280, 320, 384, 512, 1024)
    ok = ok and tuple(sorted(witnesses8)) == expected_h_n_window(8)
    for witnesses in (witnesses8, witnesses10):
        for size in sorted(witnesses):
            ok = ok and intersection_size(witnesses[size]) == size
    report(
        9,
        ok,
        "top-quarter window of the whole cube for n=8 and n=10, witnessed",
        time.time() - start,
    )


def test_criterion_10_integrality_sweep():
    start = time.time()
    ok = True
    for k in range(1, 6):
        rep = ints_window_check(k)
        ok = ok and rep.passed
    report(
        10,
        ok,
        "entries beyond unit size never enter the window, k <= 5",
        time.time() - start,
    )
