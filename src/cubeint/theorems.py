"""Constructions, bounds and end-to-end verification at desk scale.

Each verify_* function returns a Report whose checks carry enough detail to
reconstruct a failure; every construction's claimed size is re-verified by
direct cube enumeration rather than trusted from a formula.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .codim1 import SignCount, binomial, closed_form_large_sizes
from .cube import (
    MAX_DIMENSION,
    LinearMap,
    SizeSet,
    intersection_closure,
    intersection_size,
    row_masks,
)
from .search import (
    EXHAUSTIVE_LARGE,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    SearchResult,
    bfs_search,
)
from .shapes import Shape, canonical_form, intersection_value_set

# Largest k that verify_large_sets and verify_small_window accept: the slower
# of the two, verify_large_sets(12), takes about 8 s in a fresh process on a
# 2-vCPU host (verify_small_window(12) about 5 s), and each step of k
# multiplies that by 1.6 to 1.8.
MAX_CERTIFIED_K = 12


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details) -> CheckResult:
        check = CheckResult(name, bool(passed), details)
        self.checks.append(check)
        return check

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": _jsonable(c.details)}
                for c in self.checks
            ],
        }


def _jsonable(value):
    """Check details with every dict key as a string, so that json.dumps sorts
    the keys as text (it would sort int keys by value)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def build_21_star_map(k: int) -> LinearMap:
    """k conditions on k+1 coordinates through a common last coordinate,
    achieving 2^k + 1."""
    if k < 2:
        raise ValueError("needs k >= 2")
    rows = []
    for j in range(k):
        row = [0] * (k + 1)
        row[j] = 1
        row[k] = 1
        rows.append(row)
    return LinearMap.from_rows(k + 1, rows)


def _single_row_map(k: int, sc: SignCount) -> LinearMap:
    if sc.k != k:
        raise ValueError("sign counts do not sum to k")
    row = [1] * sc.plus + [-1] * sc.minus + [0] * sc.zero
    return LinearMap.from_rows(k, [row])


def _padded(rows: list[list[int]], k: int, m: int) -> LinearMap:
    out = [row + [0] * (k - len(row)) for row in rows]
    while len(out) < m:
        out.append([0] * k)
    return LinearMap.from_rows(k, out)


# ---------------------------------------------------------------------------
# the large-size chain
# ---------------------------------------------------------------------------


def claimed_large_sizes(k: int, extra_rows: int) -> set[int]:
    """The predicted achievable sizes above half the cube for n = k + extra_rows."""
    sizes = set(closed_form_large_sizes(k))
    if extra_rows >= 2:
        sizes.add((1 << (k - 1)) + (1 << (k - 4)))
    for j in range(3, min(extra_rows, k - 1) + 1):
        sizes.add((1 << (k - 1)) + (1 << (k - j - 1)))
    return sizes


def large_membership_witnesses(k: int, extra_rows: int) -> dict[int, LinearMap]:
    """Explicit maps with exactly extra_rows conditions for every claimed size."""
    witnesses: dict[int, LinearMap] = {}
    m = extra_rows

    def put(size: int, rows: list[list[int]]):
        witnesses[size] = _padded(rows, k, m)

    put(1 << k, [])
    put((1 << (k - 1)) + (1 << (k - 2)), [[1, -1]])
    put((1 << (k - 1)) + (1 << (k - 3)), [[1, 1, -1, -1]])
    put(
        (1 << (k - 1)) + (1 << (k - 5)) + (1 << (k - 6)),
        [[1, 1, 1, -1, -1, -1]],
    )
    if m >= 2:
        put((1 << (k - 1)) + (1 << (k - 4)), [[1, -1, 0, 0], [0, 0, 1, -1]])
    for j in range(3, min(m, k - 1) + 1):
        star = build_21_star_map(j)
        rows = [list(row) for row in star.entries]
        put(((1 << j) + 1) << (k - j - 1), rows)
    return witnesses


def computed_large_sizes(result: SearchResult, k: int, extra_rows: int) -> set[int]:
    sizes = {1 << k}
    sizes.update(result.all_values_scaled(k, max_depth=extra_rows))
    return sizes


def verify_large_sets(k: int) -> Report:
    """Exact computation of the above-half size sets for n = k+1 .. 2k.

    Membership is witnessed by explicit maps (each re-verified by enumeration);
    exclusion comes from the exhaustive large-mode shape search, whose
    above-threshold value lists are complete for every map with the given
    number of conditions.
    """
    if not 6 <= k <= MAX_CERTIFIED_K:
        raise ValueError(f"the large chain is certified for k in 6..{MAX_CERTIFIED_K}")
    report = Report(f"large intersection sizes, k={k}")
    result = bfs_search(SearchConfig(EXHAUSTIVE_LARGE, k))

    for extra in range(1, k + 1):
        claimed = claimed_large_sizes(k, extra)
        computed = computed_large_sizes(result, k, extra)
        report.add(
            f"H+({k + extra},{k}) matches",
            computed == claimed,
            n=k + extra,
            computed=sorted(computed),
            claimed=sorted(claimed),
        )
        witnesses = large_membership_witnesses(k, extra)
        bad = {}
        for size in sorted(claimed):
            wit = witnesses.get(size)
            if wit is None:
                bad[size] = "no construction"
                continue
            actual = intersection_size(wit)
            if actual != size or wit.m != extra or wit.k != k:
                bad[size] = f"construction gives {actual}"
        report.add(
            f"witnesses for n={k + extra}",
            not bad,
            failures=bad,
        )
    report.add(
        "sizes stall between two and three extra conditions",
        claimed_large_sizes(k, 2) == claimed_large_sizes(k, 3)
        and computed_large_sizes(result, k, 2) == computed_large_sizes(result, k, 3),
    )
    return report


# ---------------------------------------------------------------------------
# the small window
# ---------------------------------------------------------------------------


def small_window_values(k: int) -> tuple[int, int, int]:
    return (15 << (k - 5), 126 << (k - 8), 1 << (k - 1))


def _saturated_small_families(k: int) -> list[Shape]:
    """The surviving four-condition families, extended to full support on k
    coordinates (stars saturated; duplicate and centre-pair extras kept)."""
    star21 = [tuple((1, v)) for v in range(2, k + 1)]
    star32 = [tuple((1, 2, v)) for v in range(3, k + 1)]
    return [
        Shape.from_edges(star21),
        Shape.from_edges(star32),
        Shape.from_edges(star21 + [star21[0]]),
        Shape.from_edges(star32 + [star32[0]]),
        Shape.from_edges(star32 + [(1, 2)]),
        Shape.from_edges(star32 + [(1, 2), (1, 2)]),
    ]


def expected_small_families() -> list[Shape]:
    """The six four-condition families the small search must end with."""
    star21 = [(1, 2), (1, 3), (1, 4), (1, 5)]
    star32 = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)]
    families = [
        Shape.from_edges(star21),
        Shape.from_edges(star32),
        Shape.from_edges(star21[:3] + [star21[0]]),
        Shape.from_edges(star32[:3] + [star32[0]]),
        Shape.from_edges(star32[:3] + [(1, 2)]),
        Shape.from_edges(star32[:2] + [(1, 2), (1, 2)]),
    ]
    return sorted((canonical_form(s) for s in families), key=lambda s: s.edges)


def verify_small_window(k: int = 8) -> Report:
    """The achievable sizes in [15/16 * 2^(k-1), 2^(k-1)] are exactly three.

    Membership: single-condition constructions.  Exclusion: the small-mode
    search, run to natural termination; every value of every survivor is
    swept, so any size strictly inside the window would show up.
    """
    if not 8 <= k <= MAX_CERTIFIED_K:
        raise ValueError(f"the small window is certified for k in 8..{MAX_CERTIFIED_K}")
    report = Report(f"small window, k={k}")
    bottom, middle, half = small_window_values(k)

    memberships = {
        bottom: _single_row_map(k, SignCount(4, 1, k - 5)),
        middle: _single_row_map(k, SignCount(5, 3, k - 8)),
        half: _single_row_map(k, SignCount(0, 1, k - 1)),
    }
    wrong = {
        size: intersection_size(m)
        for size, m in memberships.items()
        if intersection_size(m) != size
    }
    report.add("claimed window values constructed", not wrong, failures=wrong)

    result = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, k))
    report.add(
        "search terminated before the condition budget",
        result.terminated_naturally,
        depths=len(result.depths),
    )

    swept = result.all_values_scaled(k)
    inside = {v for v in swept if bottom < v < half}
    report.add(
        "strict interior of the window",
        inside == {middle},
        found=sorted(inside),
        expected=[middle],
    )
    report.add(
        "window altogether",
        sorted({bottom, middle, half}) == [bottom, middle, half]
        and inside == {middle},
        window=sorted({bottom, middle, half}),
    )

    if len(result.depths) >= 4:
        raw = result.raw_survivor_count(4)
        canonical = result.canonical_survivor_count(4)
        shapes = sorted(
            (rec.shape for rec in result.survivors(4)), key=lambda s: s.edges
        )
        report.add(
            "four-condition survivors",
            raw == 10 and canonical == 6 and shapes == expected_small_families(),
            raw=raw,
            canonical=canonical,
            shapes=[s.to_json_dict() for s in shapes],
        )

    cap = (1 << (k - 2)) + 4
    offenders = {}
    for family in _saturated_small_families(k):
        values = intersection_value_set(family, floor=Fraction(cap, 1 << k))
        bad = [v for v in values if v < half]
        if bad:
            offenders[str(family.to_json_dict())] = bad
    report.add(
        "star families below half stay under a quarter plus four",
        not offenders,
        cap=cap,
        offenders=offenders,
    )
    return report


# ---------------------------------------------------------------------------
# antichain-style subset-sum bound
# ---------------------------------------------------------------------------


def antichain_expression(ell: int) -> int:
    return sum(binomial(ell, ell // 2 + i) for i in (-1, 0, 1, 2))


def count_subset_sums_in(values: Sequence[Fraction], targets: Iterable[Fraction]) -> int:
    sums = [Fraction(0)]
    for a in values:
        sums.extend([s + a for s in sums])
    target_set = set(targets)
    return sum(1 for s in sums if s in target_set)


def symmetric_chain_partition(ell: int) -> list[list[int]]:
    """The subsets of {1..ell}, as bitmasks, split into symmetric chains
    (de Bruijn, Tengbergen & Kruyswijk, 1951)."""
    chains = [[0]]
    for i in range(ell):
        bit = 1 << i
        grown = []
        for chain in chains:
            grown.append(chain + [chain[-1] | bit])
            if len(chain) > 1:
                grown.append([s | bit for s in chain[:-1]])
        chains = grown
    return chains


def antichain_bound_check(ell: int) -> Report:
    """Proof that for ell nonzero reals and 4 targets, at most
    antichain_expression(ell) <= 15/16 * 2^ell subsets sum to a target
    (Erdős, "On a lemma of Littlewood and Offord", 1945).

    Negating a_i maps each subset T to T xor {i} and shifts every sum by
    -a_i, so positive values suffice.  Their sums strictly rise along a chain
    of one-element extensions, so a chain C meets 4 targets at most
    min(len(C), 4) times.  The check confirms that the chains cover every
    subset once, in one-element steps, and that the min(len(C), 4) sum to
    antichain_expression(ell), whose ratio to 2^ell falls from 15/16.
    """
    if not 4 <= ell <= 16:
        raise ValueError("ell must lie in 4..16")
    report = Report(f"four-target subset sums, ell={ell}")
    ratios = [Fraction(antichain_expression(n), 1 << n) for n in range(4, 17)]
    report.add(
        "four middle binomials never grow as a fraction",
        ratios[0] == Fraction(15, 16)
        and all(b <= a for a, b in zip(ratios, ratios[1:])),
    )

    extremal = count_subset_sums_in(
        [Fraction(1)] * 4, [Fraction(i) for i in range(4)]
    )
    report.add(
        "all-ones instance with targets 0..3 is extremal at ell=4",
        extremal == 15,
        count=extremal,
    )

    chains = symmetric_chain_partition(ell)
    covered = sorted(s for chain in chains for s in chain) == list(range(1 << ell))
    single_steps = all(
        (a & ~b) == 0 and (a ^ b).bit_count() == 1
        for chain in chains
        for a, b in zip(chain, chain[1:])
    )
    hits = sum(min(len(chain), 4) for chain in chains)
    report.add(
        "symmetric chains bound the subsets on four targets",
        covered and single_steps and hits == antichain_expression(ell),
        chains=len(chains),
        covers_each_subset_once=covered,
        single_steps=single_steps,
        hits=hits,
        expression=antichain_expression(ell),
    )
    return report


# ---------------------------------------------------------------------------
# integrality of entries near the top of the small range
# ---------------------------------------------------------------------------


# The entries ints_window_check sweeps: the units and the nearest non-units.
INTEGRALITY_ENTRIES = tuple(map(Fraction, ("-2", "-1", "-1/2", "0", "1/2", "1", "2")))


def ints_window_check(k: int) -> Report:
    """Maps over INTEGRALITY_ENTRIES with an entry outside {-1,0,1} never land
    strictly between 15/16 * 2^(k-1) and 2^(k-1), nor above 2^(k-1) except at
    exactly half.

    An exhaustive proof for any number of rows.  A map with a non-unit entry
    has a bad row, and its pattern is that row's mask intersected with the
    others'.  Intersecting never adds points, so a pattern above the bar
    15/16 * 2^(k-1) has every partial intersection above it too, and the
    closure of the bad masks under all row masks (intersection_closure, no
    depth bound) reaches it.  The check passes when every mask reached has
    exactly 2^(k-1) points.
    """
    if not 1 <= k <= 5:
        raise ValueError("the integrality sweep covers k in 1..5")
    report = Report(f"entry integrality window, k={k}")
    pure_masks: set[int] = set()
    bad_masks: set[int] = set()
    for row, mask in row_masks(k, INTEGRALITY_ENTRIES):
        if set(row) <= {-1, 0, 1}:
            pure_masks.add(mask)
        else:
            bad_masks.add(mask)

    half = 1 << (k - 1)
    reached = intersection_closure(bad_masks, pure_masks | bad_masks, (15 * half) // 16)
    failures = [
        {"count": mask.bit_count(), "pattern_hex": format(mask, "x")}
        for mask in sorted(reached, key=lambda mask: (-mask.bit_count(), mask))
        if mask.bit_count() != half
    ]
    report.add(
        "no stray sizes from non-unit entries",
        not failures,
        bad_rows=len(bad_masks),
        pure_rows=len(pure_masks),
        failures=failures[:5],
    )
    return report


# ---------------------------------------------------------------------------
# whole-cube window over all subspace dimensions
# ---------------------------------------------------------------------------


def h_n_window(n: int) -> tuple[SizeSet, dict[int, LinearMap]]:
    """Sizes achievable in a fixed n-cube within the top quarter, with
    witnesses; only subspace dimensions n, n-1, n-2 can reach that high."""
    if not 8 <= n <= MAX_DIMENSION:
        raise ValueError(f"window formula stated for n in 8..{MAX_DIMENSION}")
    quarter = 1 << (n - 2)
    witnesses: dict[int, LinearMap] = {}
    witnesses[1 << n] = LinearMap(n, ())
    witnesses[1 << (n - 1)] = _padded([[]], n - 1, 1)
    witnesses[quarter] = _padded([[]], n - 2, 2)
    k = n - 1
    for rows, size in (
        ([[1, -1]], (1 << (k - 1)) + (1 << (k - 2))),
        ([[1, 1, -1, -1]], (1 << (k - 1)) + (1 << (k - 3))),
        ([[1, 1, 1, -1, -1, -1]], (1 << (k - 1)) + (1 << (k - 5)) + (1 << (k - 6))),
    ):
        witnesses[size] = _padded(rows, k, 1)
    for size, wit in witnesses.items():
        actual = intersection_size(wit)
        if actual != size:
            raise AssertionError(f"witness for {size} evaluates to {actual}")
    sizes = tuple(sorted(witnesses))
    provenance = {s: "construction" for s in sizes}
    return SizeSet(n, n, sizes, provenance), witnesses


def expected_h_n_window(n: int) -> tuple[int, ...]:
    return tuple(
        sorted(
            {
                1 << (n - 2),
                35 << (n - 7),
                5 << (n - 4),
                3 << (n - 3),
                1 << (n - 1),
                1 << n,
            }
        )
    )
