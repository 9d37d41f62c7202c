"""Closed-form counting for single-condition maps with entries in {-1,0,1}.

A single row is summarised by its sign counts; every level set of the row over
the cube is a binomial coefficient times a power of two, so the whole
codimension-1 theory reduces to exact integer arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .cube import MAX_DIMENSION


def binomial(n: int, r: int) -> int:
    """C(n, r) with the convention that out-of-range arguments give 0."""
    if r < 0 or r > n or n < 0:
        return 0
    return comb(n, r)


def codim1_size(plus: int, minus: int, zero: int) -> int:
    """Intersection size of the single-row map with plus +1s, minus -1s and
    zero 0s."""
    return (1 << zero) * binomial(plus + minus + 1, minus + 1)


def codim1_table() -> list[tuple[int, int, int]]:
    """All (plus, minus, size) rows with no zeros, 2..7 nonzero entries and a
    size exceeding half the cube, sorted lexicographically."""
    rows = []
    for total in range(2, 8):
        for minus in range(total + 1):
            plus = total - minus
            size = codim1_size(plus, minus, 0)
            if size > 1 << (total - 1):
                rows.append((plus, minus, size))
    rows.sort()
    return rows


def large_codim1_sizes(k: int) -> tuple[int, ...]:
    """Ascending single-row sizes above half the cube, enumerated over every
    sign count of a row with k entries.

    Accepts k in 6..MAX_DIMENSION; there the sizes are the large chain's
    one-row sizes, the keys of theorems.large_membership_witnesses(k, 1).
    """
    if not 6 <= k <= MAX_DIMENSION:
        raise ValueError(f"single-row large sizes are listed for k in 6..{MAX_DIMENSION}")
    half = 1 << (k - 1)
    found = set()
    for plus in range(k + 1):
        for minus in range(k + 1 - plus):
            size = codim1_size(plus, minus, k - plus - minus)
            if size > half:
                found.add(size)
    return tuple(sorted(found))


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
