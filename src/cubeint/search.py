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

Children are generated once per count vector: a count of chosen vertices
from each vertex class (Shape.vertex_classes), with a multiplicity.  Swapping
two vertices of a class maps a child to an isomorphic one with the same key
(new size, overlap vector), so choosing a count from each class, in place of
a labelled subset, loses nothing, and the multiplicity prod C(|class|, count)
keeps ``pruned_count`` and the raw survivor counts equal to a
subset-by-subset enumeration's.

Edges whose private runs have one nonzero size and which lie in the same
shared classes are interchangeable: swapping two of their private runs is an
automorphism of the parent, and maps a count vector to one with those two
private counts swapped and an isomorphic child.  So one count vector stands
for each orbit of such swaps, the one whose private counts do not increase
along each group of interchangeable edges (the edge-interchange half of the
lex-leader rule of Crawford, Ginsberg, Luks & Roy, KR 1996).  It is labelled
once; every distinct arrangement of its counts is a child of its own, with
its own key and the same multiplicity, so the keys, raw survivor counts and
``pruned_count`` stay those of the subset-by-subset enumeration.  Only a
vector that keeps a new size lists its arrangements, for their keys; a
ruled-out one is weighed by their number, a product of multinomial
coefficients over the groups (_arrangement_count).  Automorphisms that move
a shared class are not used.

One pass per parent (_children) yields each orbit's count vector with the
new sizes it allows and those that survive: a child is ruled out before it
is built or labelled when one of its sub-shapes, made of the new edge and
one or two parent edges, has no size above the threshold.  Adding a
condition can only shrink the pattern, so for every sign choice the child's
pattern lies inside that of any of its sub-shapes, times a free cube over
the vertices outside it, and a dead sub-shape kills the child (the downward
closure of Agrawal & Srikant's Apriori).  A two-edge type (|e|, |e & new|) or a three-edge type
(|a|, |b|, |new & a|, |new & b|, |a & b|, |new & a & b|), together with the
new size, fixes the Venn-region counts of its edges, and so the sub-shape up
to isomorphism: it is laid out from the type alone (_sub_shape), without the
parent's edges.  Fresh vertices lie in no parent edge, so a count vector
fixes every type whatever its new size, and is ruled out for all its new
sizes at once, from one table per search of each type's verdicts.

A search over k vertices holds every search over fewer: a child has at least
as many vertices as its parent, and the largest edge, min(k, the threshold's
bound), is the same below k, so the records and pruned children of at most
k' < k vertices are those of the search over k'.  bfs_search(config, base)
grows such a finished base instead of starting over: up to base's depth each
depth starts from base's records, and each parent yields only the children
past k' vertices (_children's known), with base's pruned count and a copy of
its verdict table.  A search with no base is the one pass described above.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .codim1 import support_size_bound
from .cube import MAX_DIMENSION, BudgetError
from .shapes import Shape, canonical_form, intersection_value_set

NON_REDUNDANT_SMALL = "non-redundant-small"
EXHAUSTIVE_LARGE = "exhaustive-large"
MODES = (NON_REDUNDANT_SMALL, EXHAUSTIVE_LARGE)

# Most canonical states one depth may hold; the k <= 12 certificates need at
# most 421.
MAX_FRONTIER_STATES = 200_000


@dataclass(frozen=True)
class SearchConfig:
    """One search run over k coordinates.

    threshold defaults to 1/2 in the large mode and 15/32 in the small one;
    max_edges defaults to k in the large mode and k + 1 in the small one, the
    first depth its search must find empty.  The largest useful edge,
    support_size_bound(threshold, k), is derived here once with a scan that
    stops at k; the vertex budget is k, at most MAX_DIMENSION.
    """

    mode: str
    k: int
    threshold: Fraction | None = None
    max_edges: int | None = None
    max_edge_size: int = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 2 <= self.k <= MAX_DIMENSION:
            raise ValueError(f"search dimension k={self.k} is outside 2..{MAX_DIMENSION}")
        small = self.mode == NON_REDUNDANT_SMALL
        if self.threshold is None:
            threshold = Fraction(15, 32) if small else Fraction(1, 2)
            object.__setattr__(self, "threshold", threshold)
        if self.max_edges is None:
            object.__setattr__(self, "max_edges", self.k + small)
        if self.max_edges < 1:
            raise ValueError("max_edges must be at least 1")
        max_edge_size = support_size_bound(self.threshold, self.k)
        if max_edge_size < 2:
            raise ValueError(
                f"threshold {self.threshold} leaves edges of at most {max_edge_size} "
                "vertex, and edges have at least two vertices"
            )
        object.__setattr__(self, "max_edge_size", max_edge_size)


@dataclass
class ShapeRecord:
    """A surviving state: canonical shape plus everything the round measured.

    ``values`` are its sizes above the threshold, ascending, and ``max_size``
    the best admissible one; shapes.max_intersection gives a witness.
    ``keys`` holds the distinct ways the state was produced (size of the
    added edge plus its overlap profile with the parent's edges), ascending;
    each counts as one raw survivor, which is how the historical raw counts
    arise.  It is a tuple, not a set, because records outlive their search
    (a certificate keeps the last one to grow) and most hold one key: a
    one-key set takes 216 bytes, a one-key tuple 48.
    """

    shape: Shape
    max_size: int
    values: tuple[int, ...]
    keys: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.max_size, 1 << self.shape.vertex_count)

    def raw_count(self) -> int:
        return len(self.keys)


@dataclass
class SearchResult:
    """A finished search: its records depth by depth, the children it ruled
    out, and table, the sub-shape verdicts its _children pass filled in
    (type -> (sizes asked, sizes dead) bitmasks), which a search grown from it
    starts with."""

    config: SearchConfig
    depths: list[list[ShapeRecord]] = field(default_factory=list)
    pruned_count: int = 0
    terminated_naturally: bool = False
    table: dict[tuple, tuple[int, int]] = field(default_factory=dict, compare=False, repr=False)

    def all_values_scaled(self, max_depth: int | None = None) -> set[int]:
        """Above-threshold values of every survivor, padded with isolated
        coordinates up to dimension config.k."""
        return set().union(*self.depth_values_scaled()[:max_depth])

    def depth_values_scaled(self) -> list[set[int]]:
        """all_values_scaled of each depth alone, in depth order."""
        k = self.config.k
        return [
            {v << (k - rec.shape.vertex_count) for rec in records for v in rec.values}
            for records in self.depths
        ]


def _new_edge(chosen: int, n: int, fresh: int) -> tuple[int, ...]:
    """The chosen vertices (bit v for vertex v of 1..n) followed by the next
    `fresh` new ones, ascending."""
    return tuple(v for v in range(1, n + 1) if chosen >> v & 1) + tuple(range(n + 1, n + 1 + fresh))


def _sizes(mask: int):
    """The new sizes in a bitmask (bit s for size s), ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _orders(values: tuple):
    """Every distinct ordering of values, once, from the non-increasing one."""
    if len(values) < 2:
        yield values
        return
    for value in sorted(set(values), reverse=True):
        i = values.index(value)
        for rest in _orders(values[:i] + values[i + 1 :]):
            yield (value,) + rest


def _arrangement_count(overlap: tuple, groups: list) -> int:
    """How many arrangements _arrangements lists, without listing them: the
    product over the groups of the multinomial coefficient of how often each
    value stands at the group's edge positions."""
    count = 1
    for group in groups:
        placed = 0
        for run in Counter([overlap[j] for j in group]).values():
            placed += run
            count *= comb(placed, run)
    return count


def _arrangements(overlap: tuple, groups: list) -> list[tuple]:
    """overlap with the entries at each group's edge positions put in every
    distinct order; the first is overlap itself when they do not increase
    along each group."""
    found = [overlap]
    for group in groups:
        arranged = []
        for base in found:
            for order in _orders(tuple([base[j] for j in group])):
                vector = list(base)
                for j, x in zip(group, order):
                    vector[j] = x
                arranged.append(tuple(vector))
        found = arranged
    return found


def _sub_shape(key: tuple, new_size: int) -> Shape:
    """The sub-shape of one type (see _children) and new size, in normal
    form.  Its Venn regions are consecutive runs of vertices, those of the
    first parent edge first: that edge holds 1..|e|, and each later edge
    holds runs of the vertices before it and then the next fresh ones, so
    Shape.with_edge sorts it into place."""
    if len(key) == 2:
        size, x = key
        edges = ([], [])
        regions = [(x, (0, 1)), (size - x, (0,)), (new_size - x, (1,))]
    else:
        a, b, na, nb, ab, nab = key
        edges = ([], [], [])
        regions = [
            (nab, (0, 1, 2)),
            (ab - nab, (0, 1)),
            (na - nab, (0, 2)),
            (a - na - ab + nab, (0,)),
            (nb - nab, (1, 2)),
            (b - nb - ab + nab, (1,)),
            (new_size - na - nb + nab, (2,)),
        ]
    start = 1
    for count, members in regions:
        for j in members:
            edges[j].extend(range(start, start + count))
        start += count
    shape = Shape((tuple(edges[0]),))
    for edge in edges[1:]:
        shape = shape.with_edge(tuple(edge))
    return shape


def _children(shape: Shape, config: SearchConfig, table: dict, known: int = 0):
    """One count vector of shape's children per orbit of interchangeable
    edges, for every orbit that allows a new size, as (chosen, used,
    overlap, swaps, multiplicity, sizes, alive).

    A vector takes the lowest-labelled vertices of each vertex class, at
    most as many in all as the largest new edge: chosen is their bitmask
    (bit v for vertex v), used their number and multiplicity
    prod C(|class|, count).  The new edge of a new size s is
    _new_edge(chosen, n, s - used), no larger than the smallest edge (the
    non-increasing addition order); sizes is the bitmask (bit s for size s)
    of those that fit, and alive the part that no dead sub-shape kills.

    known is the vertex count of a finished smaller search that holds every
    child of at most known vertices (bfs_search's base), or 0.  A child of
    size s has n + s - used vertices, so only the new sizes
    s > used + known - n are yielded, and a vector is grown only while used
    leaves room for one: used <= largest - (known - n + 1).  With known < n,
    and so with known = 0, every size that fits is yielded.

    Edges whose private runs have one nonzero size and which lie in the same
    shared classes (keys of two or more edges) form a group of
    interchangeable edges: the vectors that differ only in how a group's
    private counts are arranged give isomorphic children, with the same new
    sizes, sub-shape verdicts and canonical form.  Each grouped edge's
    private count is capped, class by class, by the group's previous edge's,
    so one vector stands for its orbit: overlap holds |new & e| for every
    edge e, and swaps, the same list for every vector of shape, holds the
    groups' edge positions.  Each distinct arrangement of overlap along the
    groups (_arrangements, its own first) weighs multiplicity; the caller
    lists them only for a vector with a surviving size, and otherwise counts
    them (_arrangement_count).

    table, one per search, maps each sub-shape type less the new size,
    (|e|, |e & new|) or (|a|, |b|, |new & a|, |new & b|, |a & b|,
    |new & a & b|), to two new-size bitmasks, asked and dead; a check is one
    lookup and one AND.  |new & a & b| is |chosen & a & b|, since fresh
    vertices lie in no parent edge.  The first time a size of a type is
    asked for, its sub-shape is laid out from the type and that size
    (_sub_shape), and its value set above the threshold decides the verdict.
    """
    edges = shape.edges
    n = shape.vertex_count
    largest = min(len(edges[-1]), config.max_edge_size)
    spare = config.k - n
    # the fewest fresh vertices a child must add to be past known
    least = max(0, known - n + 1)
    if least > largest:
        return
    edge_sizes = [len(e) for e in edges]
    masks = [sum(1 << v for v in e) for e in edges]
    # (i, j, |a|, |b|, |a & b|, a & b as a vertex bitmask) for a = edges[i],
    # b = edges[j], i < j
    pairs = []
    for j in range(len(edges)):
        for i in range(j):
            both = masks[i] & masks[j]
            pairs.append((i, j, edge_sizes[i], edge_sizes[j], both.bit_count(), both))

    def ask(key: tuple, todo: int) -> int:
        """Test the sub-shape that key and each new size in todo lay out
        (_sub_shape); record them under key and return its dead sizes."""
        asked, dead = table.get(key, (0, 0))
        for new_size in _sizes(todo):
            if not intersection_value_set(_sub_shape(key, new_size), floor=config.threshold):
                dead |= 1 << new_size
        table[key] = asked | todo, dead
        return dead

    def survivors(chosen: int, overlap: tuple, alive: int) -> int:
        """alive less every new size that a dead sub-shape of the vector kills."""
        for size, x in zip(edge_sizes, overlap):
            key = size, x
            asked, dead = table.get(key, (0, 0))
            if alive & ~asked:
                dead = ask(key, alive & ~asked)
            alive &= ~dead
            if not alive:
                return 0
        for i, j, a, b, ab, both in pairs:
            key = a, b, overlap[i], overlap[j], ab, (chosen & both).bit_count()
            asked, dead = table.get(key, (0, 0))
            if alive & ~asked:
                dead = ask(key, alive & ~asked)
            alive &= ~dead
            if not alive:
                return 0
        return alive

    classes = shape.vertex_classes()
    groups: dict[tuple, list[int]] = {}
    for key, members in classes.items():
        if len(key) == 1:
            (j,) = key
            common = tuple(other for other in classes if len(other) > 1 and j in other)
            groups.setdefault((len(members), common), []).append(j)
    # the private run of each grouped edge's previous edge, as a vertex bitmask
    previous = {}
    for group in groups.values():
        for i, j in zip(group, group[1:]):
            previous[j,] = sum(1 << v for v in classes[i,])
    swaps = [group for group in groups.values() if len(group) > 1]

    vectors = [(0, 0, 1)]
    for key, members in classes.items():
        options = [(0, 0, 1)]
        for c, v in enumerate(members, 1):
            options.append((c, options[-1][1] | 1 << v, comb(len(members), c)))
        run = previous.get(key)
        grown = []
        for used, chosen, multiplicity in vectors:
            cap = largest - least - used
            if run is not None:
                cap = min(cap, (chosen & run).bit_count())
            grown += [
                (used + c, chosen | mask, multiplicity * ways) for c, mask, ways in options[: cap + 1]
            ]
        vectors = grown
    for used, chosen, multiplicity in vectors:
        top = min(largest, used + spare)
        low = max(2, used + least)
        # an edge of two or more vertices must fit in the fresh ones left
        if top >= low:
            sizes = (2 << top) - (1 << low)
            overlap = tuple([(chosen & m).bit_count() for m in masks])
            alive = survivors(chosen, overlap, sizes)
            yield chosen, used, overlap, swaps, multiplicity, sizes, alive


def _check_base(config: SearchConfig, base: SearchResult) -> None:
    """Refuse a base that does not hold every record and pruned child of at
    most base.config.k vertices that the search of config has."""
    theirs = base.config
    if (theirs.mode, theirs.threshold) != (config.mode, config.threshold):
        raise ValueError(
            f"a search in mode {theirs.mode} at threshold {theirs.threshold} cannot grow "
            f"into one in mode {config.mode} at {config.threshold}"
        )
    if theirs.k >= config.k or theirs.max_edges > config.max_edges:
        raise ValueError(
            f"a search of k={theirs.k} and {theirs.max_edges} edges cannot grow into "
            f"one of k={config.k} and {config.max_edges} edges"
        )


def bfs_search(config: SearchConfig, base: SearchResult | None = None) -> SearchResult:
    """The search of config, depth by depth up to config.max_edges, or until
    a depth is empty (terminated_naturally).

    base, when given, is a finished search of the same mode and threshold, a
    smaller k and no more edges (any other is a ValueError), and the search
    grows it instead of starting over.  The largest edge, min(k, the
    threshold's bound), agrees with base's below base's k, so up to depth
    base.config.max_edges every record and pruned child of at most
    base.config.k vertices is base's.  The single edges of depth 1 are laid
    out again; each later such depth starts from base's records, shared and
    never modified, since every child _children(..., known=base.config.k)
    yields has more vertices than any of them.  pruned_count adds to base's,
    the sub-shape table starts as a copy of base's, and deeper depths run in
    full.  The result equals the search of config without a base.
    """
    result = SearchResult(config)
    known_k = known_depths = 0
    if base is not None:
        _check_base(config, base)
        known_k, known_depths = base.config.k, base.config.max_edges
        result.pruned_count = base.pruned_count
        result.table = dict(base.table)
    table = result.table
    # one tuple per distinct key, shared by every record that has it (the
    # large search's 3,195 keys at k = 12 are 771 distinct ones)
    shared: dict[tuple, tuple] = {}
    frontier: dict[tuple, ShapeRecord] = {}
    for size in range(2, config.max_edge_size + 1):
        shape = Shape((tuple(range(1, size + 1)),))
        values = intersection_value_set(shape, floor=config.threshold)
        frontier[shape.edges] = ShapeRecord(shape, max(values), values, ((size, ()),))
    result.depths.append(_sorted_records(frontier))

    for depth in range(2, config.max_edges + 1):
        new_frontier: dict[tuple, ShapeRecord] = {}
        # the keys of this depth's new records, merged here and stored sorted
        found: dict[tuple, set] = {}
        known = 0
        if depth <= known_depths:
            # base holds this depth's records of at most known_k vertices,
            # and none past the depth at which it ended on its own
            known = known_k
            if depth <= len(base.depths):
                new_frontier = {rec.shape.edges: rec for rec in base.depths[depth - 1]}
        for parent in frontier.values():
            n = parent.shape.vertex_count
            for chosen, used, overlap, swaps, multiplicity, sizes, alive in _children(
                parent.shape, config, table, known
            ):
                # each arrangement is a child of its own, isomorphic to chosen's;
                # a ruled-out vector's are counted, not listed
                if not alive:
                    count = _arrangement_count(overlap, swaps)
                    result.pruned_count += multiplicity * count * sizes.bit_count()
                    continue
                overlaps = _arrangements(overlap, swaps)
                weight = multiplicity * len(overlaps)
                result.pruned_count += weight * (sizes & ~alive).bit_count()
                for new_size in _sizes(alive):
                    fresh = new_size - used
                    canon = canonical_form(parent.shape.with_edge(_new_edge(chosen, n, fresh)))
                    values = intersection_value_set(canon, floor=config.threshold)
                    if config.mode == NON_REDUNDANT_SMALL:
                        bound = parent.max_size << fresh
                        admissible = [v for v in values if v < bound]
                    else:
                        admissible = values
                    if not admissible:
                        result.pruned_count += weight
                        continue
                    record = new_frontier.setdefault(canon.edges, ShapeRecord(canon, 0, values, ()))
                    record.max_size = max(record.max_size, max(admissible))
                    found.setdefault(canon.edges, set()).update(
                        [(new_size, overlap) for overlap in overlaps]
                    )
                    if len(new_frontier) > MAX_FRONTIER_STATES:
                        raise BudgetError(
                            f"frontier exceeded {MAX_FRONTIER_STATES} states"
                        )
        if not new_frontier:
            result.terminated_naturally = True
            break
        for edges, keys in found.items():
            new_frontier[edges].keys = tuple(sorted([shared.setdefault(key, key) for key in keys]))
        result.depths.append(_sorted_records(new_frontier))
        frontier = new_frontier
    return result


def _sorted_records(frontier: dict) -> list[ShapeRecord]:
    return [frontier[key] for key in sorted(frontier)]
