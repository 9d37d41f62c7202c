"""Exact linear maps acting on hypercube vertices.

Cube points x in {0,1}^k are encoded as integers with coordinate i (1-based)
stored in bit i-1.  A pattern over the cube is a single bitmask with bit x set
iff point x belongs to it.  All arithmetic is exact (ints and fractions), so a
membership test is never subject to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

# One bit per cube vertex; beyond this the masks no longer fit a sane budget.
MAX_DIMENSION = 24

# Most steps each stage of the oracle may take, about a second or two: the row
# masks are charged 2^k steps per row, and an intersection of two 2^k-bit masks
# in the closure max(1, 2^k // 256).  The row charge is what building one row
# alone costs; row_masks shares each prefix's level sets between rows, so it
# spends less, but the charge, and with it every refusal, stays.  oracle --k 5
# --m 3 needs 4.2 million intersections at one step each; --k 6 --m 3 and
# --k 8 --m 2 far more.
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


def _grow(levels: dict[int, int], c: int, width: int) -> dict[int, int]:
    """Level sets over the first 2*width points from those over the first
    width: the new coefficient c adds c to the points with the new bit set,
    which are the points seen so far shifted up by width."""
    grown = dict(levels)
    for value, mask in levels.items():
        grown[value + c] = grown.get(value + c, 0) | mask << width
    return grown


# row_mask builds level sets over at most this many coefficients (2^12
# points): a row of (-2)^i has a level set for each of its 2^k points, which
# at k = 16 took 300 MB.
LEVEL_SET_BITS = 12


@lru_cache(maxsize=None)
def row_mask(coeffs: tuple[int, ...], unit: int) -> int:
    """Bitmask of points whose scaled row value lies in {0, unit}.

    Built by level sets over the first LEVEL_SET_BITS coefficients: each
    value maps to the mask of the points taking it, and each coefficient
    doubles the width (_grow).  Each setting of the remaining coefficients
    adds one offset v to the value of every point in its block of that
    width, so the block's mask is levels[-v] | levels[unit - v]; the blocks
    are joined in order as bytes.
    """
    levels = {0: 1}
    width = 1
    for c in coeffs[:LEVEL_SET_BITS]:
        levels = _grow(levels, c, width)
        width <<= 1
    tail = coeffs[LEVEL_SET_BITS:]
    if not tail:
        return levels.get(0, 0) | levels.get(unit, 0)
    offsets = [0]
    for c in tail:
        offsets += [v + c for v in offsets]
    blocks = {
        v: (levels.get(-v, 0) | levels.get(unit - v, 0)).to_bytes(width // 8, "little")
        for v in set(offsets)
    }
    return int.from_bytes(b"".join(blocks[v] for v in offsets), "little")


# The former name, through which certbench reads the cache statistics.
_row_mask = row_mask


def _scaled_row(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    unit = lcm(*(f.denominator for f in row)) if row else 1
    return tuple(f.numerator * (unit // f.denominator) for f in row), unit


def row_masks(k: int, entries: Iterable) -> Iterator[tuple[tuple, int]]:
    """(row, mask) for every row in product(entries, repeat=k), in that order.

    Entries are ints or Fractions; the mask has bit x set iff the row's value
    at point x lies in {0, 1}.  Rows with equal masks are all yielded.

    One depth-first walk over the rows: the entries are scaled once by their
    common denominator L, and each prefix's level sets are grown once, for
    every row under it.  L*v lies in {0, L} exactly when v lies in {0, 1}, so
    a row's mask is its level sets at 0 and L, as row_mask builds it.  Those
    two sets of a row ending in c read four of its prefix's, since _grow sets
    level v to levels[v] | levels[v - c] << width, so the last entry builds
    no level sets.  k must be at least 1.
    """
    if k < 1:
        raise ValueError(f"rows need at least one entry, not k={k}")
    entries = tuple(entries)
    unit = lcm(*(e.denominator for e in entries))
    scaled = [(e, e.numerator * (unit // e.denominator)) for e in entries]

    def walk(prefix: tuple, levels: dict[int, int], width: int):
        if len(prefix) < k - 1:
            for entry, c in scaled:
                yield from walk(prefix + (entry,), _grow(levels, c, width), width << 1)
            return
        low = levels.get(0, 0) | levels.get(unit, 0)
        for entry, c in scaled:
            high = levels.get(-c, 0) | levels.get(unit - c, 0)
            yield prefix + (entry,), low | high << width

    yield from walk((), {0: 1}, 1)


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
    frontier x generators intersections.  EnumerationBudgetError is raised
    once the total would pass max_work: before a depth is expanded, and,
    while one is expanded with another still due, as soon as the next
    depth's frontier so far no longer fits; that frontier only grows, so
    such a run would be refused before the next depth anyway.
    """
    generators = sorted({mask for mask in generators if mask.bit_count() > above})
    reached = {mask for mask in start if mask.bit_count() > above}
    frontier = sorted(reached)
    refusal = f"closure of {len(generators)} masks needs more than {max_work} intersections"
    depth = 1
    work = 0
    while frontier and (max_rows is None or depth < max_rows):
        work += len(frontier) * len(generators)
        if max_work is not None and work > max_work:
            raise EnumerationBudgetError(refusal)
        depth += 1
        guarded = max_work is not None and (max_rows is None or depth < max_rows)
        next_frontier = []
        for mask in frontier:
            for generator in generators:
                child = mask & generator
                if child not in reached and child.bit_count() > above:
                    reached.add(child)
                    next_frontier.append(child)
            if guarded and work + len(next_frontier) * len(generators) > max_work:
                raise EnumerationBudgetError(refusal)
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


def oracle_enumerate(
    k: int,
    m: int,
    entry_set: Iterable,
    keep_above: Fraction | int = 0,
) -> tuple[int, ...]:
    """Ascending achievable sizes over all m-row maps with given entries.

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
    return tuple(sorted({mask.bit_count() for mask in reached}))
