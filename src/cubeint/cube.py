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
