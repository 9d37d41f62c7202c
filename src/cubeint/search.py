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

Children are generated once per vertex class, with a multiplicity.  Vertices
with the same incident edges (one edge's private run, twin shared vertices)
are interchangeable: swapping two of them is an automorphism that fixes every
edge, so it maps a child to an isomorphic one with the same key (new size,
overlap vector).  Choosing a count from each class, in place of a labelled
subset, therefore loses nothing, and the multiplicity prod C(|class|, count)
keeps ``pruned_count`` and the raw survivor counts equal to a subset-by-subset
enumeration's.

A child is ruled out before it is labelled when one of two upper bounds on
its best size is at or below the threshold:

* ``max(parent.values) * C(f+1, floor((f+1)/2))`` for f fresh vertices: over
  any parent point, the new condition a.x + b.y in {0, 1} with b in {-1, 1}^f
  keeps two adjacent levels of y, at most C(f, j) + C(f, j+1) <= that
  binomial points; a parent assignment at or below the threshold stays there,
  since the binomial is at most 2^f.
* the best fraction of the two-edge shape (e, new) for each parent edge e:
  the child's intersection lies inside that shape's, times a free cube.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

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
    the best admissible one; shapes.max_intersection gives a witness.
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

    def all_values_scaled(self, max_depth: int | None = None) -> set[int]:
        """Above-threshold values of every survivor, padded with isolated
        coordinates up to dimension config.k."""
        k = self.config.k
        return {
            v << (k - rec.shape.vertex_count)
            for records in self.depths[:max_depth]
            for rec in records
            for v in rec.values
        }


def _raw_children(shape: Shape, config: SearchConfig):
    """Every admissible one-edge extension, once per vertex-class choice, as
    (child shape, key, multiplicity) triples.

    The new edge takes some current vertices plus a run of fresh ones; its
    size may not exceed the smallest existing edge, which realises the
    non-increasing addition order.  The key records the new size and the
    overlap vector (|chosen & e| for every edge e).  A vertex class is the set
    of vertices with the same incident edge indices.  Swapping two vertices of
    one class fixes every edge, so the labelled subsets that take the same
    count from every class give isomorphic children with one key.  Each count
    vector is yielded once, on the lowest-labelled members of each class, with
    its multiplicity prod C(|class|, count), the number of labelled subsets it
    stands for.

    Both bounds of _bound then read only the fresh count and the key, which
    every member of a class shares:
    * f fresh vertices multiply any parent size by at most
      C(f+1, floor((f+1)/2)), the two adjacent levels of one +-1 row over them;
    * the child's intersection lies inside that of each two-edge shape
      (e, new), so it is at most that shape's best fraction.
    """
    n = shape.vertex_count
    incident: dict[int, list[int]] = {}
    for i, edge in enumerate(shape.edges):
        for v in edge:
            incident.setdefault(v, []).append(i)
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, n + 1):
        classes.setdefault(tuple(incident[v]), []).append(v)
    members = list(classes.values())
    sizes = [len(m) for m in members]
    smallest = len(shape.edges[-1])
    for new_size in range(2, min(smallest, config.max_edge_size) + 1):
        for used in range(max(0, new_size - (config.k - n)), min(new_size, n) + 1):
            fresh_verts = tuple(range(n + 1, n + 1 + new_size - used))
            for counts in _count_vectors(sizes, used):
                chosen = [v for m, c in zip(members, counts) for v in m[:c]]
                child = shape.with_edge(tuple(sorted(chosen)) + fresh_verts)
                if config.mode == MINIMAL_LARGE and not child.is_minimal():
                    continue
                vec = [0] * len(shape.edges)
                multiplicity = 1
                for edges, size, c in zip(classes, sizes, counts):
                    for i in edges:
                        vec[i] += c
                    multiplicity *= comb(size, c)
                yield child, (new_size, tuple(vec)), multiplicity


def _count_vectors(sizes: list[int], total: int):
    """Every tuple of counts 0 <= c_i <= sizes[i] summing to total, in
    lexicographic order."""
    if not sizes:
        yield ()
        return
    rest = sum(sizes) - sizes[0]
    for c in range(max(0, total - rest), min(sizes[0], total) + 1):
        for tail in _count_vectors(sizes[1:], total - c):
            yield (c,) + tail


def _dead_pairs(config: SearchConfig) -> frozenset:
    """(|e|, |new|, |e & new|) of every two-edge shape of at most k vertices
    with no size above the threshold; computed once per search."""
    dead = set()
    for a in range(2, config.max_edge_size + 1):
        for b in range(2, a + 1):
            for x in range(max(0, a + b - config.k), b + 1):
                pair = Shape.from_edges([range(1, a + 1), range(a - x + 1, a - x + b + 1)])
                if not intersection_value_set(pair, floor=config.threshold):
                    dead.add((a, b, x))
    return frozenset(dead)


def _bound(parent: ShapeRecord, config: SearchConfig, dead_pairs: frozenset):
    """ruled_out(child, key) for the children of parent: whether either bound
    of the module docstring puts every size of the child at or below the
    threshold.  The fresh-vertex ratio C(f+1, floor((f+1)/2)) / 2^f does not
    grow with f, so one least dead f, found per parent, serves every child.
    """
    n = parent.shape.vertex_count
    top = max(parent.values)
    num, den = config.threshold.numerator, config.threshold.denominator
    least_dead = next(
        (f for f in range(config.k - n + 1)
         if top * comb(f + 1, (f + 1) // 2) * den <= num << (n + f)),
        config.k - n + 1,
    )
    edge_sizes = [len(e) for e in parent.shape.edges]

    def ruled_out(child: Shape, key: tuple) -> bool:
        new_size, vec = key
        return child.vertex_count - n >= least_dead or any(
            (a, new_size, x) in dead_pairs for a, x in zip(edge_sizes, vec)
        )

    return ruled_out


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
    dead_pairs = _dead_pairs(config)

    for _depth in range(2, config.max_edges + 1):
        new_frontier: dict[tuple, ShapeRecord] = {}
        for parent in frontier.values():
            ruled_out = _bound(parent, config, dead_pairs)
            for child, key, multiplicity in _raw_children(parent.shape, config):
                if ruled_out(child, key):
                    result.pruned_count += multiplicity
                    continue
                canon = canonical_form(child)
                values = intersection_value_set(canon, floor=config.threshold)
                if config.mode == NON_REDUNDANT_SMALL:
                    fresh = canon.vertex_count - parent.shape.vertex_count
                    bound = parent.max_size << fresh
                    admissible = [v for v in values if v < bound]
                else:
                    admissible = values
                if not admissible:
                    result.pruned_count += multiplicity
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
