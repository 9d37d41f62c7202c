"""Exact linear maps acting on hypercube vertices.

Cube points x in {0,1}^k are encoded as integers with coordinate i (1-based)
stored in bit i-1.  A pattern over the cube is a single bitmask with bit x set
iff point x belongs to it.  All arithmetic is exact (ints and fractions), so a
membership test is never subject to rounding.
"""
from __future__ import annotations

import re
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


class BudgetError(ValueError):
    """A walk would pass its work budget: the oracle's rows or closure, a
    search depth's frontier, or canonical_form's leaves."""


# Largest decimal exponent a rational's text may carry, int()'s own limit on
# the digits of an integer's text: Fraction("1e999999999") would first build
# a billion-digit power of ten, which takes hours.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e\s*([-+]?[\d_]+)\s*$", re.IGNORECASE)


def as_fraction(value) -> Fraction:
    """The exact rational of a number or of a text such as "1/3", "0.1" or
    "5e-3"; a text that names no rational, or whose exponent is past
    MAX_EXPONENT, is a ValueError."""
    if isinstance(value, Fraction):
        return value
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError(f"exponent past {MAX_EXPONENT}: {value!r}")
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
        entries = tuple(tuple(as_fraction(v) for v in row) for row in rows)
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
        k, rows = data["k"], data["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("map 'entries' must be a list of rows")
        declared_m = data.get("m", len(rows))
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (k, declared_m)):
            raise ValueError("map 'k' and 'm' must be integers")
        if any(isinstance(v, bool) for row in rows for v in row):
            raise ValueError("map entries must be numbers, not booleans")
        try:
            lm = LinearMap.from_rows(k, rows)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"map entries must be numbers: {exc}") from exc
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


# row_mask(s) build level sets over at most this many coefficients (2^12
# points): a row of (-2)^i has a level set for each of its 2^k points, which
# at k = 16 took 300 MB.
LEVEL_SET_BITS = 12


def _step(state: tuple, c: int, v: int) -> tuple:
    """(levels, width, offsets) once coordinate v takes coefficient c: the
    first LEVEL_SET_BITS coordinates grow the level sets (_grow), each later
    one doubles the offsets that its settings add to the blocks of width
    points (None before)."""
    levels, width, offsets = state
    if v <= LEVEL_SET_BITS:
        return _grow(levels, c, width), width << 1, None
    offsets = offsets or [0]
    return levels, width, offsets + [o + c for o in offsets]


def _mask(state: tuple, unit: int) -> int:
    """The points whose value lies in {0, unit}: block v's are levels[-v] |
    levels[unit - v], and the blocks are joined in order as bytes."""
    levels, width, offsets = state
    if offsets is None:
        return levels.get(0, 0) | levels.get(unit, 0)
    blocks = {
        v: (levels.get(-v, 0) | levels.get(unit - v, 0)).to_bytes(width // 8, "little")
        for v in set(offsets)
    }
    return int.from_bytes(b"".join(blocks[v] for v in offsets), "little")


@lru_cache(maxsize=None)
def row_mask(coeffs: tuple[int, ...], unit: int) -> int:
    """Bitmask of points whose scaled row value lies in {0, unit}, built by
    level sets (each value maps to the mask of the points taking it) over
    the first LEVEL_SET_BITS coefficients and offsets over the rest."""
    state = ({0: 1}, 1, None)
    for v, c in enumerate(coeffs, 1):
        state = _step(state, c, v)
    return _mask(state, unit)


# The former name, through which certbench reads the cache statistics.
_row_mask = row_mask


def _scaled_row(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    unit = lcm(*(f.denominator for f in row))
    return tuple(f.numerator * (unit // f.denominator) for f in row), unit


def _tile(mask: int, bits: int, k: int) -> int:
    """A mask over `bits` coordinates, repeated over k of them."""
    for b in range(bits, k):
        mask |= mask << (1 << b)
    return mask


def row_masks(
    k: int,
    entries: Iterable,
    support: Sequence[int] | None = None,
    groups: Iterable[Sequence[int]] = (),
) -> Iterator[int]:
    """The mask of every row in product(entries, repeat=len(support)), in
    that order: a row puts its entries on support (ascending, 1..k by
    default) and 0 elsewhere, and its mask has bit x set iff its value at
    point x lies in {0, 1}; equal masks are all yielded.  Entries are
    distinct ints or Fractions: the oracle dedups its own, and
    theorems.INTEGRALITY_ENTRIES and shapes' signs (-1, 1) are distinct.
    Along each group (disjoint coordinates of support) a row's entries never
    come earlier in entries, so only the first row of each orbit under
    permutations within the groups is yielded.  Only masks are yielded; a
    caller that needs a mask's row takes the product's term at its position.

    One depth-first walk over entries scaled by their common denominator L
    (L*v lies in {0, L} iff v lies in {0, 1}), on a plain stack of
    (position, prefix state, ranks of the entries on its path): an entry is
    popped and its children, one per entry its position may take, are built
    (_step) and pushed in reverse product order, so each prefix's state is
    built once for every row under it.  At the last position a coordinate c
    within LEVEL_SET_BITS reads four of its prefix's level sets, since _grow
    sets level v to levels[v] | levels[v - c] << width.  Zero coordinates
    above the support repeat the mask (_tile).  A group bounds a position by
    the rank that an earlier one took on the path.  k must be at least 1.
    """
    if k < 1:
        raise ValueError(f"rows need at least one entry, not k={k}")
    scaled, unit = _scaled_row(tuple(entries))
    support = tuple(range(1, k + 1)) if support is None else tuple(support)
    # the support position whose entry bounds each position's from below
    follows: list[int | None] = [None] * len(support)
    position = {v: i for i, v in enumerate(support)}
    for group in groups:
        for a, b in zip(group, group[1:]):
            follows[position[b]] = position[a]
    last = len(support) - 1
    top = support[-1]
    state = ({0: 1}, 1, None)
    for v in range(1, support[0]):
        state = _step(state, 0, v)
    stack = [(0, state, ())]
    while stack:
        i, state, ranks = stack.pop()
        bound = follows[i]
        first = 0 if bound is None else ranks[bound]
        v = support[i]
        if i < last:
            for r in reversed(range(first, len(scaled))):
                child = _step(state, scaled[r], v)
                for zero in range(v + 1, support[i + 1]):
                    child = _step(child, 0, zero)
                stack.append((i + 1, child, ranks + (r,)))
        elif v <= LEVEL_SET_BITS:
            levels, width, _ = state
            low = levels.get(0, 0) | levels.get(unit, 0)
            for c in scaled[first:]:
                high = levels.get(-c, 0) | levels.get(unit - c, 0)
                mask = low | high << width
                yield mask if top == k else _tile(mask, top, k)
        else:
            for c in scaled[first:]:
                mask = _mask(_step(state, c, v), unit)
                yield mask if top == k else _tile(mask, top, k)


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
    it is met; nothing at or below the bar is stored.  A mask of exactly
    above + 1 points is kept but never expanded: each of its intersections is
    a subset of it, so the mask itself or at or below the bar.  Expanding a
    depth is charged frontier x generators intersections, such masks
    included, so the budget and every refusal do not depend on the rule.
    BudgetError is raised once the total would pass max_work: before a depth
    is expanded, and, while one is expanded with another still due, as soon
    as the next depth's frontier so far no longer fits; that frontier only
    grows, so such a run would be refused before the next depth anyway.
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
            raise BudgetError(refusal)
        depth += 1
        guarded = max_work is not None and (max_rows is None or depth < max_rows)
        next_frontier = []
        for mask in frontier:
            if mask.bit_count() == above + 1:
                continue
            for generator in generators:
                child = mask & generator
                if child not in reached and child.bit_count() > above:
                    reached.add(child)
                    next_frontier.append(child)
            if guarded and work + len(next_frontier) * len(generators) > max_work:
                raise BudgetError(refusal)
        frontier = next_frontier
    return reached


def full_mask(k: int) -> int:
    return (1 << (1 << k)) - 1


def evaluate_pattern(linear_map: LinearMap) -> int:
    """Mask of the points x with every row value in {0,1}.  A zero row holds
    every point, so it is skipped; witness maps are padded with them."""
    mask = full_mask(linear_map.k)
    for row in linear_map.entries:
        if not any(row):
            continue
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
    them; either guard raises BudgetError.
    Only sizes strictly above keep_above * 2^k are reported.  k must lie in
    1..MAX_DIMENSION and m be at least 1.
    """
    if not 1 <= k <= MAX_DIMENSION:
        raise ValueError(f"oracle dimension k={k} outside 1..{MAX_DIMENSION}")
    if m < 1:
        raise ValueError("the oracle needs at least one row (m >= 1)")
    entries = sorted(set(as_fraction(v) for v in entry_set))
    if not entries:
        raise ValueError("entry set must be nonempty")
    if len(entries) ** k << k > ORACLE_WORK_BUDGET:
        raise BudgetError(
            f"{len(entries)}^{k} rows of 2^{k} points exceed the work budget "
            f"{ORACLE_WORK_BUDGET}"
        )
    keep = as_fraction(keep_above)
    above = (keep.numerator << k) // keep.denominator
    masks = set(row_masks(k, entries))
    step = max(1, (1 << k) // 256)
    reached = intersection_closure(
        masks, masks, above, max_rows=m, max_work=ORACLE_WORK_BUDGET // step
    )
    return tuple(sorted({mask.bit_count() for mask in reached}))
