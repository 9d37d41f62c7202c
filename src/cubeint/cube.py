"""Exact linear maps acting on hypercube vertices.

Cube points x in {0,1}^k are encoded as integers with coordinate i (1-based)
stored in bit i-1.  A pattern over the cube is a single bitmask with bit x set
iff point x belongs to it.  All arithmetic is exact (ints and fractions), so a
membership test is never subject to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

# One bit per cube vertex; beyond this the masks no longer fit a sane budget.
MAX_DIMENSION = 24

# Most steps each stage of the oracle may take, about a second or two: building
# a row mask costs 2^k steps, and an intersection of two 2^k-bit masks in the
# closure max(1, 2^k // 256).  oracle --k 5 --m 3 needs 4.2 million
# intersections at one step each; --k 6 --m 3 and --k 8 --m 2 far more.
ORACLE_WORK_BUDGET = 5_000_000


class PatternFactorError(ValueError):
    """The pattern does not factor over the claimed support."""


class EnumerationBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


@dataclass(frozen=True)
class LinearMap:
    """An m-by-k matrix of exact rationals, acting on {0,1}^k row by row.

    m = 0 is allowed and denotes the empty condition list (the full cube);
    it is needed to witness the intersection of a space with itself.
    """

    k: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not 1 <= self.k <= MAX_DIMENSION:
            raise ValueError(f"dimension k={self.k} outside 1..{MAX_DIMENSION}")
        for row in self.entries:
            if len(row) != self.k:
                raise ValueError("row length does not match k")

    @property
    def m(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(k: int, rows: Iterable[Iterable]) -> "LinearMap":
        entries = tuple(tuple(_as_fraction(v) for v in row) for row in rows)
        return LinearMap(k, entries)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "entries": [[str(v) for v in row] for row in self.entries],
        }

    @staticmethod
    def from_json_dict(data) -> "LinearMap":
        if not isinstance(data, Mapping) or not {"k", "entries"} <= data.keys():
            raise ValueError("a map is a JSON object with 'k' and 'entries'")
        rows = data["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("map 'entries' must be a list of rows")
        try:
            lm = LinearMap.from_rows(int(data["k"]), rows)
            declared_m = int(data.get("m", lm.m))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"map k, m and entries must be numbers: {exc}") from exc
        if declared_m != lm.m:
            raise ValueError("declared m does not match entry rows")
        return lm


@lru_cache(maxsize=None)
def row_mask(coeffs: tuple[int, ...], unit: int) -> int:
    """Bitmask of points whose scaled row value lies in {0, unit}.

    Built by level sets: each value maps to the mask of the points taking it.
    Coefficient i adds c to the points with bit i set, which are the points
    seen so far shifted up by 2^i, so each coefficient doubles the width.
    """
    levels = {0: 1}
    width = 1
    for c in coeffs:
        grown = dict(levels)
        for value, mask in levels.items():
            grown[value + c] = grown.get(value + c, 0) | mask << width
        levels = grown
        width <<= 1
    return levels.get(0, 0) | levels.get(unit, 0)


# The former name, through which certbench reads the cache statistics.
_row_mask = row_mask


def _scaled_row(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    unit = lcm(*(f.denominator for f in row)) if row else 1
    return tuple(f.numerator * (unit // f.denominator) for f in row), unit


def row_masks(k: int, entries: Iterable) -> Iterator[tuple[tuple, int]]:
    """(row, mask) for every row in product(entries, repeat=k), in that order.

    Entries are ints or Fractions; the mask has bit x set iff the row's value
    at point x lies in {0, 1}.  Rows with equal masks are all yielded.
    """
    for row in product(entries, repeat=k):
        yield row, row_mask(*_scaled_row(row))


def intersection_closure(
    start: Iterable[int],
    generators: Iterable[int],
    above: int,
    max_rows: int | None = None,
    max_work: int | None = None,
) -> set[int]:
    """Every mask with more than `above` points that a start mask reaches by
    intersecting with at most max_rows - 1 generators (any number if None).

    Intersecting never adds points, so a mask at or below the bar is dropped
    with all its descendants, and a generator at or below it is never used.
    A breadth-first frontier expands each mask kept once, at the least depth
    it is met; nothing at or below the bar is stored.  Expanding a depth costs
    frontier x generators intersections; EnumerationBudgetError is raised,
    before a depth is expanded, once the total would pass max_work.
    """
    generators = sorted({mask for mask in generators if mask.bit_count() > above})
    reached = {mask for mask in start if mask.bit_count() > above}
    frontier = sorted(reached)
    depth = 1
    work = 0
    while frontier and (max_rows is None or depth < max_rows):
        work += len(frontier) * len(generators)
        if max_work is not None and work > max_work:
            raise EnumerationBudgetError(
                f"closure of {len(generators)} masks needs more than "
                f"{max_work} intersections"
            )
        depth += 1
        next_frontier = []
        for mask in frontier:
            for generator in generators:
                child = mask & generator
                if child not in reached and child.bit_count() > above:
                    reached.add(child)
                    next_frontier.append(child)
        frontier = next_frontier
    return reached


def full_mask(k: int) -> int:
    return (1 << (1 << k)) - 1


def evaluate_pattern(linear_map: LinearMap) -> int:
    """Mask of the points x with every row value in {0,1}."""
    mask = full_mask(linear_map.k)
    for row in linear_map.entries:
        coeffs, unit = _scaled_row(row)
        mask &= row_mask(coeffs, unit)
        if mask == 0:
            break
    return mask


def intersection_size(linear_map: LinearMap) -> int:
    return evaluate_pattern(linear_map).bit_count()


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


def is_minimal(linear_map: LinearMap) -> bool:
    """No row support inside the union of the others, and no vacuous row."""
    row_supports, _ = support(linear_map)
    m = linear_map.m
    for i in range(m):
        others = frozenset().union(
            *(row_supports[j] for j in range(m) if j != i)
        ) if m > 1 else frozenset()
        if row_supports[i] <= others:
            return False
        coeffs, unit = _scaled_row(linear_map.entries[i])
        if row_mask(coeffs, unit) == full_mask(linear_map.k):
            return False
    return True


def has_redundant_condition(linear_map: LinearMap) -> bool:
    """True iff dropping some row leaves the intersection size unchanged."""
    if linear_map.m == 0:
        raise ValueError("map has no conditions")
    total = intersection_size(linear_map)
    if linear_map.m == 1:
        return total == 1 << linear_map.k
    for i in range(1, linear_map.m + 1):
        rest = [j for j in range(1, linear_map.m + 1) if j != i]
        if intersection_size(restrict(linear_map, rest)) == total:
            return True
    return False


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


def factor_pattern(
    k: int, mask: int, support_set: Iterable[int]
) -> tuple[int, int]:
    """Split the pattern P = J x {0,1}^free of {0,1}^k over the claimed
    support, validating the split.

    Returns the mask of J over the support coordinates (bit i of a J point is
    the i-th support coordinate, ascending) and the count of free coordinates.
    Raises PatternFactorError when the pattern actually depends on a
    coordinate outside the support.
    """
    supp = sorted(set(support_set))
    if supp and (supp[0] < 1 or supp[-1] > k):
        raise ValueError("support coordinate outside 1..k")
    free = [c for c in range(1, k + 1) if c not in set(supp)]
    for c in free:
        zero_sel = _coordinate_zero_mask(k, c)
        half = 1 << (c - 1)
        low = mask & zero_sel
        high = (mask >> half) & zero_sel
        if low != high:
            raise PatternFactorError(
                f"pattern depends on coordinate {c} outside the claimed support"
            )
    j_mask = 0
    s = len(supp)
    for combo in range(1 << s):
        point = 0
        for bit_idx in range(s):
            if (combo >> bit_idx) & 1:
                point |= 1 << (supp[bit_idx] - 1)
        if (mask >> point) & 1:
            j_mask |= 1 << combo
    free_count = k - s
    if j_mask.bit_count() << free_count != mask.bit_count():
        raise PatternFactorError("pattern size does not match the product form")
    return j_mask, free_count


@dataclass
class SizeSet:
    """Achievable intersection sizes for fixed (n, k), with provenance."""

    n: int
    k: int
    sizes: tuple[int, ...]
    provenance: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        dedup = sorted(set(self.sizes))
        if any(s < 1 or s > (1 << self.k) for s in dedup):
            raise ValueError("size outside 1..2^k")
        self.sizes = tuple(dedup)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sizes": list(self.sizes),
            "provenance": {str(s): self.provenance.get(s, "") for s in self.sizes},
        }


def oracle_enumerate(
    k: int,
    m: int,
    entry_set: Iterable,
    keep_above: Fraction | int = 0,
) -> SizeSet:
    """Exact set of achievable sizes over all m-row maps with given entries.

    The distinct single-row masks are closed under intersection up to m rows
    (intersection_closure, with the bar keep_above * 2^k rounded down); the
    result is identical to the raw sweep over all |entries|^(k*m) matrices.
    Building the row masks and closing them may each take at most
    ORACLE_WORK_BUDGET steps, an intersection costing max(1, 2^k // 256) of
    them; either guard raises EnumerationBudgetError.
    Only sizes strictly above keep_above * 2^k are reported.  k must lie in
    1..MAX_DIMENSION and m be at least 1.
    """
    if not 1 <= k <= MAX_DIMENSION:
        raise ValueError(f"oracle dimension k={k} outside 1..{MAX_DIMENSION}")
    if m < 1:
        raise ValueError("the oracle needs at least one row (m >= 1)")
    entries = sorted(set(_as_fraction(v) for v in entry_set))
    if not entries:
        raise ValueError("entry set must be nonempty")
    if len(entries) ** k << k > ORACLE_WORK_BUDGET:
        raise EnumerationBudgetError(
            f"{len(entries)}^{k} rows of 2^{k} points exceed the work budget "
            f"{ORACLE_WORK_BUDGET}"
        )
    keep = _as_fraction(keep_above)
    above = (keep.numerator << k) // keep.denominator
    masks = {mask for _row, mask in row_masks(k, entries)}
    step = max(1, (1 << k) // 256)
    reached = intersection_closure(
        masks, masks, above, max_rows=m, max_work=ORACLE_WORK_BUDGET // step
    )
    result = tuple(sorted({mask.bit_count() for mask in reached}))
    return SizeSet(k + m, k, result, {s: "oracle" for s in result})
