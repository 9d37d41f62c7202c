"""Constructions, bounds and end-to-end verification at desk scale.

Each verify_* function returns a Report whose checks carry enough detail to
reconstruct a failure; every construction's claimed size is re-verified by
direct cube enumeration rather than trusted from a formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .codim1 import binomial
from .cube import (
    MAX_DIMENSION,
    LinearMap,
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
from .shapes import (
    STAR21,
    STAR32,
    Shape,
    canonical_form,
    classify_star,
    intersection_value_set,
)

# Largest k that verify_large_sets and verify_small_window accept: the slower
# of the two, verify_small_window(12), takes 1.0-2.2 s in a fresh process on
# a shared 2-vCPU host (five runs at each of two times; the host's speed
# drifts by a factor of two within a day), about three quarters of it in its
# saturated star families' value sets (verify_large_sets(12) 0.35-0.9 s); the
# step from k = 11 to 12 multiplies the small certificate's time by about 3.7
# and the large one's by about 1.2.
MAX_CERTIFIED_K = 12

# The last certificate search of each mode.  A search over k vertices holds
# every search over fewer, so the next certificate of a larger k grows it
# (bfs_search's base) instead of expanding all its parents again.
_last_search: dict[str, SearchResult] = {}


def _certificate_search(mode: str, k: int) -> SearchResult:
    """The default search of mode over k vertices, grown from the last one of
    mode when that has a smaller k, and kept as the last one."""
    config = SearchConfig(mode, k)
    last = _last_search.get(mode)
    if last is not None and last.config.k < k:
        result = bfs_search(config, base=last)
    else:
        result = bfs_search(config)
    _last_search[mode] = result
    return result


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

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks.append(CheckResult(name, bool(passed), details))

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


# The entries of the program's own witness maps: exact units, shared by every
# map, so no map the program builds goes through the input parser
# (LinearMap.from_rows).
_UNITS = {-1: Fraction(-1), 0: Fraction(0), 1: Fraction(1)}


def _unit_map(k: int, rows: Sequence[Sequence[int]]) -> LinearMap:
    """The map of rows of entries in -1..1, each padded with zeros to k."""
    zeros = (_UNITS[0],) * k
    return LinearMap(k, tuple(tuple([_UNITS[v] for v in row]) + zeros[len(row) :] for row in rows))


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
    return _unit_map(k + 1, rows)


def _single_row_map(plus: int, minus: int, zero: int) -> LinearMap:
    return _unit_map(plus + minus + zero, [[1] * plus + [-1] * minus])


def _padded(rows: list[list[int]], k: int, m: int) -> LinearMap:
    return _unit_map(k, rows + [[]] * (m - len(rows)))


# ---------------------------------------------------------------------------
# the large-size chain
# ---------------------------------------------------------------------------


def large_membership_witnesses(k: int, extra_rows: int) -> dict[int, LinearMap]:
    """The claimed large chain for n = k + extra_rows: its keys are every
    size above half the cube that maps with extra_rows conditions achieve,
    and each value is a map with exactly extra_rows conditions giving it.

    verify_large_sets checks each map by enumeration and the key set against
    the exhaustive search; no other list of the chain exists.
    """
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
        rows = [[int(v) for v in row] for row in star.entries]
        put(((1 << j) + 1) << (k - j - 1), rows)
    return witnesses


def verify_large_sets(k: int) -> Report:
    """Exact computation of the above-half size sets for n = k+1 .. 2k.

    Membership is witnessed by explicit maps (each re-verified by enumeration);
    exclusion comes from the exhaustive large-mode shape search, whose
    above-threshold value lists are complete for every map with the given
    number of conditions.  The same search's minimal survivors certify the
    star lemma (_check_minimal_stars).  The search grows the last large one
    this process ran when that has a smaller k (_certificate_search), so a
    chain of k = 6, 7, 8 labels each child once; the report is the same.
    """
    if not 6 <= k <= MAX_CERTIFIED_K:
        raise ValueError(f"the large chain is certified for k in 6..{MAX_CERTIFIED_K}")
    report = Report(f"large intersection sizes, k={k}")
    result = _certificate_search(EXHAUSTIVE_LARGE, k)

    pairs = {}
    # the values of at most `extra` conditions, folded in one depth at a time
    values = {1 << k}
    depth_values = iter(result.depth_values_scaled())
    for extra in range(1, k + 1):
        witnesses = large_membership_witnesses(k, extra)
        claimed = sorted(witnesses)
        values |= next(depth_values, set())
        computed = sorted(values)
        pairs[extra] = (claimed, computed)
        report.add(
            f"H+({k + extra},{k}) matches",
            computed == claimed,
            n=k + extra,
            computed=computed,
            claimed=claimed,
        )
        bad = {}
        for size, wit in sorted(witnesses.items()):
            actual = intersection_size(wit)
            if actual != size or wit.m != extra or wit.k != k:
                bad[str(size)] = f"construction gives {actual}"
        report.add(
            f"witnesses for n={k + extra}",
            not bad,
            failures=bad,
        )
    report.add(
        "sizes stall between two and three extra conditions",
        pairs[2] == pairs[3],
    )
    _check_minimal_stars(report, result)
    return report


def _check_minimal_stars(report: Report, result: SearchResult) -> None:
    """The paper's structural step, read off the exhaustive large search: a
    survivor of three or more edges in which every edge keeps a private vertex
    is a 2-1 star with maximum half + 1 or a 3-2 star with maximum half + 2.

    The search holds every shape above half, so its minimal survivors are all
    the minimal large shapes.  The 2-1 star of d edges has d + 1 vertices and
    the 3-2 star d + 2, so in dimension k they appear at every depth 3..k-1 and
    3..k-2; the details list those depths, which no representative choice
    moves.
    """
    k = result.config.k
    excess = {STAR21: 1, STAR32: 2}
    found = {STAR21: [], STAR32: []}
    failures = []
    for depth, records in enumerate(result.depths[2:], start=3):
        for rec in records:
            if not rec.shape.is_minimal():
                continue
            family = classify_star(rec.shape)
            half = 1 << (rec.shape.vertex_count - 1)
            if family in excess and rec.max_size == half + excess[family]:
                found[family].append(depth)
            else:
                failures.append(
                    {"shape": rec.shape.to_json_dict(), "family": family, "max": rec.max_size}
                )
    report.add(
        "minimal survivors of three or more conditions are the 2-1 and 3-2 stars",
        not failures
        and found[STAR21] == list(range(3, k))
        and found[STAR32] == list(range(3, k - 1)),
        star21_depths=found[STAR21],
        star32_depths=found[STAR32],
        failures=failures,
    )


# ---------------------------------------------------------------------------
# the small window
# ---------------------------------------------------------------------------


def small_window_values(k: int) -> tuple[int, int, int]:
    return (15 << (k - 5), 126 << (k - 8), 1 << (k - 1))


# The six four-condition families of the small window: a star on a centre,
# (1,) or (1, 2), with a spoke centre + (v,) on each later vertex v, plus
# extra edges (a repeat of the first spoke, or copies of the centre).
_SMALL_FAMILIES = (
    ((1,), ()),
    ((1, 2), ()),
    ((1,), ((1, 2),)),
    ((1, 2), ((1, 2, 3),)),
    ((1, 2), ((1, 2),)),
    ((1, 2), ((1, 2), (1, 2))),
)


def _small_families(k: int | None) -> list[Shape]:
    """_SMALL_FAMILIES in order, with spokes up to vertex k, or with k None
    each with the 4 - len(extras) spokes that give it four conditions."""
    families = []
    for centre, extras in _SMALL_FAMILIES:
        last = len(centre) + 4 - len(extras) if k is None else k
        spokes = [centre + (v,) for v in range(len(centre) + 1, last + 1)]
        families.append(Shape.from_edges(spokes + list(extras)))
    return families


def expected_small_families() -> list[Shape]:
    """The six four-condition families the small search must end with."""
    families = (canonical_form(s) for s in _small_families(None))
    return sorted(families, key=lambda s: s.edges)


def verify_small_window(k: int = 8) -> Report:
    """The achievable sizes in [15/16 * 2^(k-1), 2^(k-1)] are exactly three.

    Membership: single-condition constructions.  Exclusion: the small-mode
    search, run to natural termination; every value of every survivor is
    swept, so any size strictly inside the window would show up.  As in
    verify_large_sets, the search grows the last small one this process ran
    when that has a smaller k, and the report is the same.
    """
    if not 8 <= k <= MAX_CERTIFIED_K:
        raise ValueError(f"the small window is certified for k in 8..{MAX_CERTIFIED_K}")
    report = Report(f"small window, k={k}")
    bottom, middle, half = small_window_values(k)

    memberships = {
        bottom: _single_row_map(4, 1, k - 5),
        middle: _single_row_map(5, 3, k - 8),
        half: _single_row_map(0, 1, k - 1),
    }
    evaluated = {size: intersection_size(m) for size, m in memberships.items()}
    wrong = {str(size): actual for size, actual in evaluated.items() if actual != size}
    report.add("claimed window values constructed", not wrong, failures=wrong)

    result = _certificate_search(NON_REDUNDANT_SMALL, k)
    report.add(
        "search terminated before the condition budget",
        result.terminated_naturally,
        depths=len(result.depths),
    )

    swept = result.all_values_scaled()
    inside = {v for v in swept if bottom < v < half}
    report.add(
        "strict interior of the window",
        inside == {middle},
        found=sorted(inside),
        expected=[middle],
    )
    window = sorted(set(evaluated.values()) | inside)
    report.add(
        "window altogether",
        window == [bottom, middle, half],
        window=window,
    )

    # a search that stopped before depth 4 has no records there, and fails
    records = result.depths[3] if len(result.depths) >= 4 else []
    raw = sum(rec.raw for rec in records)
    shapes = sorted((rec.shape for rec in records), key=lambda s: s.edges)
    report.add(
        "four-condition survivors",
        raw == 10 and shapes == expected_small_families(),
        raw=raw,
        canonical=len(shapes),
        shapes=[s.to_json_dict() for s in shapes],
    )

    cap = (1 << (k - 2)) + 4
    offenders = {}
    for family in _small_families(k):
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

# The ranks in INTEGRALITY_ENTRIES of the units, the entries whose denominator
# is 1 and whose numerator lies in -1..1.
_UNIT_RANKS = tuple(
    r for r, e in enumerate(INTEGRALITY_ENTRIES) if e.denominator == 1 and -1 <= e.numerator <= 1
)


def _pure_and_bad_masks(k: int) -> tuple[set[int], set[int]]:
    """The masks of the rows over INTEGRALITY_ENTRIES with every entry in
    {-1, 0, 1}, and of those with another entry, from one row_masks walk.

    A row's class is read from its position in the walk, never from its
    entries: row_masks yields product(INTEGRALITY_ENTRIES, repeat=k) in
    order, so the row at position i has as its base-7 digits, first
    coordinate most significant, the ranks of its entries, and it is pure
    when every digit is in _UNIT_RANKS.  Any row past the product is bad.
    """
    pure_positions = {0}
    for _ in range(k):
        pure_positions = {
            p * len(INTEGRALITY_ENTRIES) + r for p in pure_positions for r in _UNIT_RANKS
        }
    pure_masks: set[int] = set()
    bad_masks: set[int] = set()
    for i, mask in enumerate(row_masks(k, INTEGRALITY_ENTRIES)):
        (pure_masks if i in pure_positions else bad_masks).add(mask)
    return pure_masks, bad_masks


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

    The masks of all 7^k rows come from one row_masks walk, sorted into pure
    and bad by their positions in it (_pure_and_bad_masks).  The closure
    never expands a mask one point above the bar, since each of its
    intersections is itself or at or below the bar; at k = 5 every bad mask
    above the bar 15 has 16 points, so no intersection is computed there.
    """
    if not 1 <= k <= 5:
        raise ValueError("the integrality sweep covers k in 1..5")
    report = Report(f"entry integrality window, k={k}")
    pure_masks, bad_masks = _pure_and_bad_masks(k)
    half = 1 << (k - 1)
    # the generators are chained, not united: a union would build one more
    # set of every row mask just to be read once
    reached = intersection_closure(
        bad_masks, itertools.chain(pure_masks, bad_masks), (15 * half) // 16
    )
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


def h_n_window(n: int) -> dict[int, LinearMap]:
    """Witness maps for the sizes achievable in a fixed n-cube within the top
    quarter, keyed by size; only subspace dimensions n, n-1, n-2 can reach
    that high, and dimension n-1 takes the large chain's one-row witnesses."""
    if not 8 <= n <= MAX_DIMENSION:
        raise ValueError(f"window formula stated for n in 8..{MAX_DIMENSION}")
    return {
        1 << n: LinearMap(n, ()),
        1 << (n - 2): _padded([], n - 2, 2),
        **large_membership_witnesses(n - 1, 1),
    }


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
