"""Breadth-first search over shapes with exact fraction pruning.

States are edge multisets, grown one condition at a time in non-increasing
size order.  A state survives a round when it still admits a sign assignment
whose covered fraction beats the threshold; since adding a condition can only
shrink the pattern, pruned states can never spawn useful descendants.

Two modes:

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
                          Its survivors on which Shape.is_minimal holds (every
                          edge keeps a private vertex) are the minimal large
                          shapes that the paper's star lemma is about.

Children are generated once per vertex class, with a multiplicity.  Vertices
with the same incident edges (one edge's private run, twin shared vertices)
are interchangeable: swapping two of them is an automorphism that fixes every
edge, so it maps a child to an isomorphic one with the same key (new size,
overlap vector).  Choosing a count from each class, in place of a labelled
subset, therefore loses nothing, and the multiplicity prod C(|class|, count)
keeps ``pruned_count`` and the raw survivor counts equal to a subset-by-subset
enumeration's.

A child is ruled out before it is built or labelled when one of its
sub-shapes, made of the new edge and one or two parent edges, has no size
above the threshold.  Adding a condition can only shrink the pattern, so for
every sign choice the child's pattern lies inside that of any of its
sub-shapes, times a free cube over the vertices outside it, and a dead
sub-shape kills the child (the downward closure of Agrawal & Srikant's
Apriori).  A two-edge type (|e|, |new|, |e & new|) or a three-edge type
(|new|, |a|, |b|, |new & a|, |new & b|, |a & b|, |new & a & b|) fixes the
Venn-region counts of its edges, and so the sub-shape up to isomorphism.  One
table per search, keyed by type, holds whether each type is dead: the first
edges met with a type are built into its sub-shape, and their verdict holds
for every later child of that type.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .codim1 import support_size_bound
from .cube import MAX_DIMENSION
from .shapes import Shape, canonical_form, intersection_value_set

NON_REDUNDANT_SMALL = "non-redundant-small"
EXHAUSTIVE_LARGE = "exhaustive-large"
MODES = (NON_REDUNDANT_SMALL, EXHAUSTIVE_LARGE)

# Most canonical states one depth may hold; the k <= 12 certificates need at
# most 421.
MAX_FRONTIER_STATES = 200_000


class SearchBudgetError(RuntimeError):
    """One depth held more than MAX_FRONTIER_STATES canonical states."""


@dataclass(frozen=True)
class SearchConfig:
    """One search run over k coordinates.

    threshold defaults to 1/2 in the large mode and 15/32 in the small one;
    max_edges defaults to k in the large mode and k + 1 in the small one, the
    first depth its search must find empty.  The largest useful edge,
    min(support_size_bound(threshold), k), is derived here once; the vertex
    budget is k, at most MAX_DIMENSION.
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
        small = self.mode == NON_REDUNDANT_SMALL
        if self.threshold is None:
            threshold = Fraction(15, 32) if small else Fraction(1, 2)
            object.__setattr__(self, "threshold", threshold)
        if self.max_edges is None:
            object.__setattr__(self, "max_edges", self.k + small)
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
    """Every admissible new edge, once per vertex-class choice, as
    (new edge, key, multiplicity) triples; shape.with_edge(new edge) is the
    child.

    The new edge takes some current vertices plus a run of fresh ones; its
    size may not exceed the smallest existing edge, which realises the
    non-increasing addition order.  The key records the new size and the
    overlap vector (|chosen & e| for every edge e).  A vertex class is the set
    of vertices with the same incident edge indices.  Swapping two vertices of
    one class fixes every edge, so the labelled subsets that take the same
    count from every class give isomorphic children with one key.  The count
    vectors are built in one pass, class by class, keeping only those that
    take at most as many vertices as the largest new edge; each one's chosen
    vertices (the lowest-labelled members of each class), overlap vector and
    multiplicity prod C(|class|, count), the number of labelled subsets it
    stands for, are built once and shared by every new size it allows.

    The sub-shape types of _bound read only the key and |new & a & b| for
    pairs of edges (a, b), which every member of a class shares, since a
    class's vertices lie in the same edges.
    """
    n = shape.vertex_count
    largest = min(len(shape.edges[-1]), config.max_edge_size)
    incident: dict[int, list[int]] = {}
    for i, edge in enumerate(shape.edges):
        for v in edge:
            incident.setdefault(v, []).append(i)
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, n + 1):
        classes.setdefault(tuple(incident[v]), []).append(v)
    # every count vector taking at most `largest` vertices in all, built one
    # class at a time beside its running total
    vectors = [((), 0)]
    for members in classes.values():
        vectors = [
            (counts + (c,), used + c)
            for counts, used in vectors
            for c in range(min(len(members), largest - used) + 1)
        ]
    for counts, used in vectors:
        chosen = []
        vec = [0] * len(shape.edges)
        multiplicity = 1
        for (edges, members), c in zip(classes.items(), counts):
            chosen += members[:c]
            for i in edges:
                vec[i] += c
            multiplicity *= comb(len(members), c)
        chosen, overlap = tuple(sorted(chosen)), tuple(vec)
        for new_size in range(max(2, used), min(largest, used + config.k - n) + 1):
            edge = chosen + tuple(range(n + 1, n + 1 + new_size - used))
            yield edge, (new_size, overlap), multiplicity


def _bound(parent: ShapeRecord, config: SearchConfig, dead: dict):
    """ruled_out(new edge, key) for the children of parent: whether some
    sub-shape made of the new edge and one or two parent edges is dead.  The
    pairs of parent edges (a, b), a before b, and |a & b| are found once per
    parent; dead, one per search, maps each sub-shape type to its verdict.
    The first time a type is asked for, its sub-shape is built from the edges
    in hand and its value set above the threshold decides the verdict.
    """
    edges = parent.shape.edges
    edge_sizes = [len(e) for e in edges]
    # (i, j, |a|, |b|, |a & b|, a & b as a vertex bitmask) for a = edges[i],
    # b = edges[j], i < j
    pairs = []
    for j, b in enumerate(edges):
        for i in range(j):
            common = set(edges[i]) & set(b)
            pairs.append((i, j, edge_sizes[i], len(b), len(common), sum(1 << v for v in common)))

    def ruled_out(edge: tuple, key: tuple) -> bool:
        new_size, vec = key
        for e, size, x in zip(edges, edge_sizes, vec):
            sub_type = (size, new_size, x)
            verdict = dead.get(sub_type)
            if verdict is None:
                sub = Shape.from_edges((e, edge))
                verdict = dead[sub_type] = not intersection_value_set(sub, floor=config.threshold)
            if verdict:
                return True
        new = sum(1 << v for v in edge)
        for i, j, a, b, ab, both in pairs:
            sub_type = (new_size, a, b, vec[i], vec[j], ab, (new & both).bit_count())
            verdict = dead.get(sub_type)
            if verdict is None:
                sub = Shape.from_edges((edges[i], edges[j], edge))
                verdict = dead[sub_type] = not intersection_value_set(sub, floor=config.threshold)
            if verdict:
                return True
        return False

    return ruled_out


def bfs_search(config: SearchConfig) -> SearchResult:
    result = SearchResult(config)
    frontier: dict[tuple, ShapeRecord] = {}
    for size in range(2, config.max_edge_size + 1):
        shape = Shape((tuple(range(1, size + 1)),))
        values = intersection_value_set(shape, floor=config.threshold)
        frontier[shape.edges] = ShapeRecord(
            shape=shape,
            max_size=max(values),
            values=values,
            keys=((size, ()),),
        )
    result.depths.append(_sorted_records(frontier))
    dead: dict[tuple, bool] = {}

    for _depth in range(2, config.max_edges + 1):
        new_frontier: dict[tuple, ShapeRecord] = {}
        for parent in frontier.values():
            ruled_out = _bound(parent, config, dead)
            for edge, key, multiplicity in _raw_children(parent.shape, config):
                if ruled_out(edge, key):
                    result.pruned_count += multiplicity
                    continue
                canon = canonical_form(parent.shape.with_edge(edge))
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
