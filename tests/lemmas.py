"""The paper's lemma checks and constructions, checked by the test suite.

No certificate runs these: each checks a lemma of the paper on small maps (a
zero column doubles the size, the 3-2 star's size, halving along a coordinate,
the drop a non-redundant condition makes, the central binomial ratio, sums of
powers of two), and the acceptance criteria and unit tests assert them.
"""
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable

from cubeint.codim1 import binomial
from cubeint.cube import (
    LinearMap,
    evaluate_pattern,
    full_mask,
    intersection_closure,
    intersection_size,
    row_masks,
)
from cubeint.theorems import CheckResult, Report


# ---------------------------------------------------------------------------
# supports, restrictions and coordinate halves of a map
# ---------------------------------------------------------------------------


def support(linear_map: LinearMap) -> tuple[tuple[frozenset[int], ...], frozenset[int]]:
    """Per-row supports (1-based coordinate sets) and their union."""
    rows = tuple(
        frozenset(j + 1 for j, v in enumerate(row) if v != 0)
        for row in linear_map.entries
    )
    total = frozenset().union(*rows) if rows else frozenset()
    return rows, total


def restrict(linear_map: LinearMap, rows: Iterable[int]) -> LinearMap:
    """Keep only the rows with the given 1-based indices, ascending."""
    indices = sorted(set(rows))
    if not indices:
        raise ValueError("row subset must be nonempty")
    if indices[0] < 1 or indices[-1] > linear_map.m:
        raise IndexError("row index outside 1..m")
    return LinearMap(linear_map.k, tuple(linear_map.entries[i - 1] for i in indices))


def _coordinate_zero_mask(k: int, coordinate: int) -> int:
    """Bitmask selecting the points with the given 1-based coordinate = 0."""
    b = coordinate - 1
    period = 1 << (b + 1)
    block = (1 << (1 << b)) - 1
    repeats = (full_mask(k)) // ((1 << period) - 1)
    return block * repeats


def fix_coordinate_count(linear_map: LinearMap, coordinate: int) -> int:
    """Number of pattern members whose given coordinate equals zero."""
    if not 1 <= coordinate <= linear_map.k:
        raise IndexError("coordinate outside 1..k")
    mask = evaluate_pattern(linear_map)
    return (mask & _coordinate_zero_mask(linear_map.k, coordinate)).bit_count()


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def build_zero_extension(linear_map: LinearMap) -> LinearMap:
    """Append one zero column; the intersection size exactly doubles."""
    entries = tuple(row + (Fraction(0),) for row in linear_map.entries)
    return LinearMap(linear_map.k + 1, entries)


def build_32_star_map(k: int) -> LinearMap:
    """k-2 conditions through a common coordinate pair, achieving 2^(k-1)+2."""
    if k < 4:
        raise ValueError("needs k >= 4")
    rows = []
    for leaf in range(2, k):
        row = [0] * k
        row[0] = 1
        row[1] = 1
        row[leaf] = -1
        rows.append(row)
    return LinearMap.from_rows(k, rows)


def drop_coordinate(linear_map: LinearMap, coordinate: int) -> LinearMap:
    """Delete a coordinate along which the pattern splits exactly in half."""
    total = intersection_size(linear_map)
    zero_side = fix_coordinate_count(linear_map, coordinate)
    if 2 * zero_side != total:
        raise ValueError(
            f"coordinate {coordinate} does not split the pattern in half "
            f"({zero_side} of {total})"
        )
    entries = tuple(
        row[: coordinate - 1] + row[coordinate:] for row in linear_map.entries
    )
    return LinearMap(linear_map.k - 1, entries)


# ---------------------------------------------------------------------------
# the drop bound for a fresh non-redundant condition
# ---------------------------------------------------------------------------


def drop_bound(k: int, t_head: int, s: int) -> Fraction:
    """Most points a condition that cuts may leave of a head of t_head points
    over s of k coordinates: 3/4 of them, or all but a 2^(k-s-1) block."""
    return max(Fraction(3, 4) * t_head, Fraction(t_head) - Fraction(1 << k, 1 << (s + 1)))


def condition_drop_bound_check(linear_map: LinearMap) -> CheckResult:
    """For a map whose last condition genuinely cuts, the cut is as large as
    drop_bound says."""
    if linear_map.m < 2:
        raise ValueError("needs at least two conditions")
    head = restrict(linear_map, range(1, linear_map.m))
    t_full = intersection_size(linear_map)
    t_head = intersection_size(head)
    if t_full >= t_head:
        raise ValueError("last condition is redundant; bound does not apply")
    _, head_support = support(head)
    s = len(head_support)
    allowed = drop_bound(linear_map.k, t_head, s)
    return CheckResult(
        "non-redundant condition cuts deeply",
        Fraction(t_full) <= allowed,
        {
            "t_full": t_full,
            "t_head": t_head,
            "support": s,
            "allowed": str(allowed),
        },
    )


def condition_drop_bound_sweep(max_k: int = 4, max_rows: int = 3) -> Report:
    """Exhaustive sweep of the drop bound over all small sign matrices."""
    report = Report("non-redundant drop bound sweep")
    failures = []
    checked = 0
    for k in range(1, max_k + 1):
        rows = {}
        for row, mask in zip(product((-1, 0, 1), repeat=k), row_masks(k, (-1, 0, 1))):
            supp = frozenset(j + 1 for j, v in enumerate(row) if v != 0)
            rows.setdefault((mask, supp), row)
        row_items = sorted(rows.items(), key=lambda kv: kv[1])
        for m_head in range(1, max_rows):
            for head in combinations(row_items, m_head):
                head_mask = full_mask(k)
                head_support: frozenset = frozenset()
                for (mask, supp), _row in head:
                    head_mask &= mask
                    head_support |= supp
                t_head = head_mask.bit_count()
                allowed = drop_bound(k, t_head, len(head_support))
                for (mask, _supp), _row in row_items:
                    t_full = (head_mask & mask).bit_count()
                    if t_full >= t_head:
                        continue
                    checked += 1
                    if Fraction(t_full) > allowed:
                        failures.append(
                            {"k": k, "head": [kv[1] for kv in head], "row": _row}
                        )
    report.add(
        "bound holds on every instance",
        not failures,
        checked=checked,
        failures=failures[:3],
    )
    return report


# ---------------------------------------------------------------------------
# central binomial ratios and sums of powers of two
# ---------------------------------------------------------------------------


def central_ratio(n: int) -> Fraction:
    return Fraction(binomial(n, n // 2), 1 << n)


def central_ratio_nonincreasing(n_max: int) -> bool:
    """Exact check that C(n, n//2) / 2^n never increases up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    previous = central_ratio(1)
    for n in range(2, n_max + 1):
        current = central_ratio(n)
        if current > previous:
            return False
        previous = current
    return True


def sum_of_powers_members(k: int, exponents: Iterable[int]) -> Report:
    """Desk-scale membership check for a sum of distinct powers of two: some
    map of at most three sign rows has exactly that many points."""
    exps = sorted(set(exponents), reverse=True)
    if not exps or exps[-1] < 0:
        raise ValueError("exponents must be nonnegative")
    if exps[0] > k - (len(exps) - 1):
        raise ValueError("largest exponent too big for this dimension")
    if k > 5:
        raise ValueError("membership search intended for k <= 5")
    target = sum(1 << e for e in exps)
    report = Report(f"membership of {target} for k={k}")

    # the zero row's mask is the full cube, so no rows at all is covered too
    rows = set(row_masks(k, (-1, 0, 1)))
    reached = intersection_closure(rows, rows, target - 1, max_rows=3)
    found = target in {mask.bit_count() for mask in reached}
    report.add(
        "membership located by map search" if found else "membership not located",
        found,
        target=target,
        status="verified" if found else "unverified",
    )
    return report
