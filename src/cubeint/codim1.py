"""Closed-form counting for single-condition maps with entries in {-1,0,1}.

A single row is summarised by its sign counts; every level set of the row over
the cube is a binomial coefficient times a power of two, so the whole
codimension-1 theory reduces to exact integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cube import MAX_DIMENSION, SizeSet


def binomial(n: int, r: int) -> int:
    """C(n, r) with the convention that out-of-range arguments give 0."""
    if r < 0 or r > n or n < 0:
        return 0
    return comb(n, r)


@dataclass(frozen=True)
class SignCount:
    """Counts of +1, -1 and 0 entries of a single row."""

    plus: int
    minus: int
    zero: int

    def __post_init__(self):
        if min(self.plus, self.minus, self.zero) < 0:
            raise ValueError("sign counts must be nonnegative")

    @property
    def k(self) -> int:
        return self.plus + self.minus + self.zero


def codim1_size(sc: SignCount) -> int:
    """Intersection size of the single-row map with the given sign counts."""
    return (1 << sc.zero) * binomial(sc.plus + sc.minus + 1, sc.minus + 1)


def codim1_table() -> list[tuple[int, int, int]]:
    """All (plus, minus, size) rows with no zeros, 2..7 nonzero entries and a
    size exceeding half the cube, sorted lexicographically."""
    rows = []
    for total in range(2, 8):
        for minus in range(total + 1):
            plus = total - minus
            size = codim1_size(SignCount(plus, minus, 0))
            if size > 1 << (total - 1):
                rows.append((plus, minus, size))
    rows.sort()
    return rows


def closed_form_large_sizes(k: int) -> tuple[int, ...]:
    return tuple(
        sorted(
            {
                (1 << (k - 1)) + (1 << (k - 5)) + (1 << (k - 6)),
                (1 << (k - 1)) + (1 << (k - 3)),
                (1 << (k - 1)) + (1 << (k - 2)),
                1 << k,
            }
        )
    )


def large_codim1_sizes(k: int) -> SizeSet:
    """Single-row sizes above half the cube, checked against the closed form.

    Valid for k >= 6 only; below that the enumerated set genuinely differs
    from the closed form and callers should enumerate directly.
    """
    if not 6 <= k <= MAX_DIMENSION:
        raise ValueError(f"closed form checked for k in 6..{MAX_DIMENSION}")
    half = 1 << (k - 1)
    found = set()
    for plus in range(k + 1):
        for minus in range(k + 1 - plus):
            size = codim1_size(SignCount(plus, minus, k - plus - minus))
            if size > half:
                found.add(size)
    expected = set(closed_form_large_sizes(k))
    if found != expected:
        raise AssertionError(
            f"enumerated large sizes {sorted(found)} != closed form {sorted(expected)}"
        )
    sizes = tuple(sorted(found))
    return SizeSet(k + 1, k, sizes, {s: "construction" for s in sizes})


def support_size_bound(threshold: Fraction) -> int:
    """Largest row support size whose best single-row fraction beats threshold.

    The best fraction for support size s is C(s+1, floor((s+1)/2)) / 2^s, which
    is non-increasing in s, so a forward scan terminates.
    """
    threshold = Fraction(threshold)
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    best = None
    s = 1
    while True:
        ratio = Fraction(binomial(s + 1, (s + 1) // 2), 1 << s)
        if ratio <= threshold:
            if best is None:
                raise ValueError("no support size beats the threshold")
            return best
        best = s
        s += 1
        if s > 4096:
            raise ValueError(f"threshold {threshold} is too small to resolve")
