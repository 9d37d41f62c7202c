"""Breadth-first search over shapes with exact fraction pruning.

States are edge multisets, grown one condition at a time in non-increasing
size order.  A state survives a round when it still admits a sign assignment
whose covered fraction beats the threshold; since adding a condition can only
shrink the pattern, pruned states can never spawn useful descendants.

Three modes:

* ``minimal-large``    -- only expansions that keep every edge a private
                          vertex; used for the structural star results.
* ``non-redundant-small`` -- duplicates allowed; when scoring a child, any
                          assignment at least as large as the parent's
                          recorded best (scaled for fresh vertices) is skipped,
                          because such an assignment repeats a value already
                          achievable with fewer conditions.  Some redundant
                          assignments below that bar survive; only the upper
                          bound is relied on.
* ``exhaustive-large`` -- duplicates allowed, no redundancy skip; every state
                          keeps its full list of above-threshold values, which
                          is what the large-size verification consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .codim1 import support_size_bound
from .cube import MAX_DIMENSION
from .shapes import Shape, canonical_form, intersection_value_set

MINIMAL_LARGE = "minimal-large"
NON_REDUNDANT_SMALL = "non-redundant-small"
EXHAUSTIVE_LARGE = "exhaustive-large"
MODES = (MINIMAL_LARGE, NON_REDUNDANT_SMALL, EXHAUSTIVE_LARGE)

# Most canonical states one depth may hold; the k <= 12 certificates need at
# most 421.
MAX_FRONTIER_STATES = 200_000


class SearchBudgetError(RuntimeError):
    """One depth held more than MAX_FRONTIER_STATES canonical states."""


@dataclass(frozen=True)
class SearchConfig:
    """One search run over k coordinates.

    threshold defaults to 1/2 in the large modes and 15/32 in the small one;
    max_edges defaults to k - 1 in minimal-large mode, k in exhaustive-large
    mode and k + 1 in the small one, the first depth its search must find
    empty.  The largest useful edge, min(support_size_bound(threshold), k), is
    derived here once; the vertex budget is k, at most MAX_DIMENSION.
    """

    mode: str
    k: int
    threshold: Fraction | None = None
    max_edges: int | None = None
    max_edge_size: int = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k > MAX_DIMENSION:
            raise ValueError(f"search dimension k={self.k} exceeds {MAX_DIMENSION}")
        if self.threshold is None:
            small = self.mode == NON_REDUNDANT_SMALL
            threshold = Fraction(15, 32) if small else Fraction(1, 2)
            object.__setattr__(self, "threshold", threshold)
        if self.max_edges is None:
            extra = {MINIMAL_LARGE: -1, EXHAUSTIVE_LARGE: 0, NON_REDUNDANT_SMALL: 1}
            object.__setattr__(self, "max_edges", self.k + extra[self.mode])
        if self.max_edges < 1:
            raise ValueError("max_edges must be at least 1")
        max_edge_size = min(support_size_bound(self.threshold), self.k)
        if max_edge_size < 2:
            raise ValueError("edges have at least two vertices")
        object.__setattr__(self, "max_edge_size", max_edge_size)


@dataclass
class ShapeRecord:
    """A surviving state: canonical shape plus everything the round measured.

    ``values`` are its sizes above the threshold, ascending, and ``max_size``
    the best admissible one; max_intersection(shape) gives a witness.
    ``keys`` distinguishes the inequivalent ways the state was produced (size
    of the added edge plus its overlap profile with the parent's edges); each
    counts as one raw survivor, which is how the historical raw counts arise.
    """

    shape: Shape
    max_size: int
    values: tuple[int, ...]
    keys: tuple

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.max_size, 1 << self.shape.vertex_count)

    def raw_count(self) -> int:
        return len(self.keys)


@dataclass
class SearchResult:
    config: SearchConfig
    depths: list[list[ShapeRecord]] = field(default_factory=list)
    pruned_count: int = 0
    terminated_naturally: bool = False

    def survivors(self, depth: int) -> list[ShapeRecord]:
        if depth < 1 or depth > len(self.depths):
            raise ValueError(f"search did not run to depth {depth}")
        return self.depths[depth - 1]

    def raw_survivor_count(self, depth: int) -> int:
        return sum(rec.raw_count() for rec in self.survivors(depth))

    def canonical_survivor_count(self, depth: int) -> int:
        return len(self.survivors(depth))

    def all_values_scaled(self, k: int, max_depth: int | None = None) -> set[int]:
        """Above-threshold values of every survivor, padded with isolated
        coordinates up to dimension k."""
        out: set[int] = set()
        limit = len(self.depths) if max_depth is None else min(max_depth, len(self.depths))
        for depth in range(1, limit + 1):
            for rec in self.depths[depth - 1]:
                shift = k - rec.shape.vertex_count
                if shift < 0:
                    continue
                out.update(v << shift for v in rec.values)
        return out


def _raw_children(shape: Shape, config: SearchConfig):
    """All admissible one-edge extensions, as (child shape, key) pairs.

    The new edge is a subset of the current vertices plus a run of fresh ones;
    its size may not exceed the smallest existing edge, which realises the
    non-increasing addition order.  The key records the new size and the
    overlap profile with the existing edges.
    """
    verts = list(range(1, shape.vertex_count + 1))
    smallest = len(shape.edges[-1])
    for new_size in range(2, min(smallest, config.max_edge_size) + 1):
        for used in range(min(new_size, len(verts)) + 1):
            fresh = new_size - used
            if shape.vertex_count + fresh > config.k:
                continue
            fresh_verts = tuple(range(len(verts) + 1, len(verts) + 1 + fresh))
            for chosen in combinations(verts, used):
                new_edge = tuple(sorted(chosen + fresh_verts))
                child = shape.with_edge(new_edge)
                if config.mode == MINIMAL_LARGE and not child.is_minimal():
                    continue
                vec = tuple(len(set(chosen) & set(e)) for e in shape.edges)
                yield child, (new_size, vec)


def bfs_search(config: SearchConfig) -> SearchResult:
    result = SearchResult(config)
    frontier: dict[tuple, ShapeRecord] = {}
    for size in range(2, config.max_edge_size + 1):
        shape = Shape((tuple(range(1, size + 1)),))
        values = intersection_value_set(shape, floor=config.threshold)
        if not values:
            result.pruned_count += 1
            continue
        frontier[shape.edges] = ShapeRecord(
            shape=shape,
            max_size=max(values),
            values=values,
            keys=((size, ()),),
        )
    result.depths.append(_sorted_records(frontier))

    for _depth in range(2, config.max_edges + 1):
        new_frontier: dict[tuple, ShapeRecord] = {}
        for parent in frontier.values():
            for child, key in _raw_children(parent.shape, config):
                canon = canonical_form(child)
                values = intersection_value_set(canon, floor=config.threshold)
                if config.mode == NON_REDUNDANT_SMALL:
                    fresh = canon.vertex_count - parent.shape.vertex_count
                    bound = parent.max_size << fresh
                    admissible = [v for v in values if v < bound]
                else:
                    admissible = values
                if not admissible:
                    result.pruned_count += 1
                    continue
                best = max(admissible)
                record = new_frontier.get(canon.edges)
                if record is None:
                    new_frontier[canon.edges] = ShapeRecord(
                        shape=canon,
                        max_size=best,
                        values=values,
                        keys=(key,),
                    )
                else:
                    record.max_size = max(record.max_size, best)
                    if key not in record.keys:
                        record.keys = record.keys + (key,)
                if len(new_frontier) > MAX_FRONTIER_STATES:
                    raise SearchBudgetError(
                        f"frontier exceeded {MAX_FRONTIER_STATES} states"
                    )
        if not new_frontier:
            result.terminated_naturally = True
            break
        result.depths.append(_sorted_records(new_frontier))
        frontier = new_frontier
    return result


def _sorted_records(frontier: dict) -> list[ShapeRecord]:
    return [frontier[key] for key in sorted(frontier, key=lambda e: (len(e), e))]
