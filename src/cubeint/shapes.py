"""Support hypergraphs (shapes) and the best intersection over sign choices.

A shape records only which coordinates each condition touches; the actual map
is fixed by assigning +1/-1 to every incidence.  Isolated coordinates are never
stored: they would double every achievable size without changing fractions.
Edges form a multiset (a condition may repeat another's support), stored
sorted by (size descending, lexicographic), and vertices are the integers
1..vertex_count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .cube import MAX_DIMENSION, BudgetError, full_mask, row_masks

Edge = tuple[int, ...]


def _edge_key(edge: Edge):
    return (-len(edge), edge)


@dataclass(frozen=True, slots=True)
class Shape:
    """Multiset of condition supports over vertices 1..vertex_count.

    Shape(edges) trusts its caller to pass the module's normal form, with
    edges of two or more vertices; input goes through from_edges (or
    from_json_dict), the one place it is validated.  Slotted, with no
    __dict__: the caches and a kept search hold thousands of shapes, and a
    slot stores vertex_count in less memory than an instance dict.
    """

    edges: tuple[Edge, ...]
    # vertex_count, once it has been read
    _vertex_count: int | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_edges(edges: Iterable[Iterable[int]]) -> "Shape":
        """Build a shape from arbitrary labels, compressing them to 1..k;
        no edges, an edge of < 2 distinct vertices, or more than
        MAX_DIMENSION vertices is a ValueError."""
        raw = [tuple(sorted(set(e))) for e in edges]
        if not raw:
            raise ValueError("a shape needs at least one edge")
        if any(len(edge) < 2 for edge in raw):
            raise ValueError("edges of size < 2 are excluded from shapes")
        raw.sort(key=_edge_key)
        labels: dict[int, int] = {}
        for edge in raw:
            for v in edge:
                if v not in labels:
                    labels[v] = len(labels) + 1
        if len(labels) > MAX_DIMENSION:
            raise ValueError(
                f"a shape has at most {MAX_DIMENSION} vertices, not {len(labels)}"
            )
        relabelled = tuple(
            tuple(sorted(labels[v] for v in edge)) for edge in raw
        )
        return Shape(tuple(sorted(relabelled, key=_edge_key)))

    @property
    def vertex_count(self) -> int:
        """The largest vertex, stored on the shape on first use: a search
        reads it many times per shape.  (functools.cached_property would
        need a __dict__, and takes a lock on every first access.)"""
        count = self._vertex_count
        if count is None:
            count = max([edge[-1] for edge in self.edges])
            object.__setattr__(self, "_vertex_count", count)
        return count

    def vertex_classes(self) -> dict[tuple[int, ...], list[int]]:
        """Each tuple of incident edge indices, mapped to the ascending
        vertices that lie in exactly those edges, in order of least vertex.

        The vertices of one class (an edge's private run, twin shared
        vertices) are interchangeable: swapping two of them fixes every edge
        as a set, so it is an automorphism of the shape.  Child generation,
        sign packing and canonical labelling each act once per class on
        this ground.
        """
        incident: dict[int, list[int]] = {}
        for j, edge in enumerate(self.edges):
            for v in edge:
                incident.setdefault(v, []).append(j)
        classes: dict[tuple[int, ...], list[int]] = {}
        for v in sorted(incident):
            classes.setdefault(tuple(incident[v]), []).append(v)
        return classes

    def with_edge(self, edge: Edge) -> "Shape":
        """This shape with one more edge, kept in (size desc, lex) order; the
        edge is sorted, of size >= 2, over old vertices and the next fresh ones."""
        return Shape(tuple(sorted(self.edges + (edge,), key=_edge_key)))

    def is_minimal(self) -> bool:
        """Every edge keeps a private vertex (multiset degree one): its
        vertex class (j,) is not empty."""
        classes = self.vertex_classes()
        return all((j,) in classes for j in range(len(self.edges)))

    def to_json_dict(self) -> dict:
        return {"k": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_dict(data) -> "Shape":
        edges = data.get("edges") if isinstance(data, dict) else None
        if not isinstance(edges, list) or not all(
            isinstance(edge, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)
            for edge in edges
        ):
            raise ValueError("a shape is a JSON object with 'edges': lists of integers")
        return Shape.from_edges(edges)


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------

# Most leaves the pruned individualisation tree of one canonical_form call may
# reach.  The k <= 12 certificates need at most 2 (720 unpruned).  Pruning
# leaves only symmetry that no transposition shows: three disjoint 5-cycles
# have 6,000 leaves and are refused, while the complete graph on 7 vertices
# (7! leaves unpruned) labels in one.
CANONICAL_LEAF_BUDGET = 5_000


@lru_cache(maxsize=None)
def canonical_form(shape: Shape) -> Shape:
    """Canonical representative of the isomorphism class of a shape.

    The shape is first reduced to the part that symmetry can act on: each
    vertex class (Shape.vertex_classes) in two or more edges becomes one
    weighted vertex, and each edge becomes (the weighted vertices it holds,
    the size of its private class), equal reduced edges merging into one
    with a multiplicity.  Colour refinement on the vertex-edge incidence
    graph then splits the weighted vertices by weight and by the edges
    around them, and individualisation (McKay & Piperno's scheme) branches
    only on the cells that stay tied.  Refinement stops once the colouring
    is equitable, and so as soon as it is discrete: another pass would keep
    a discrete colouring as it is.  Every leaf orders the weighted
    vertices; the least encoding over the leaves is canonical.  The
    representative lists the shared vertices first, in that order, then
    each edge's private run.

    The tree is pruned by transpositions.  In a tied cell, a vertex is
    branched on only when no vertex already kept from that cell is swapped
    with it by a transposition that maps every reduced edge, with its
    (private, multiplicity) label, onto a reduced edge.  Such a swap is an
    automorphism that fixes every cell, since both vertices share one, and
    refinement reads only colours, so the skipped subtree is the swap's
    image of the kept one and its leaves repeat encodings already explored.
    The least encoding, and with it the representative, cannot move.

    Raises cube.BudgetError past CANONICAL_LEAF_BUDGET leaves.  Cached,
    like _edge_choices: the result depends only on the shape.
    """
    classes = shape.vertex_classes()
    held: list[list[int]] = [[] for _ in shape.edges]
    private = [0] * len(shape.edges)
    weights = []
    for edges, members in classes.items():
        if len(edges) > 1:
            for j in edges:
                held[j].append(len(weights))
            weights.append(len(members))
        else:
            private[edges[0]] = len(members)
    # (weighted vertices, private size) of each reduced edge -> multiplicity
    reduced: dict[tuple[tuple[int, ...], int], int] = {}
    for members, size in zip(held, private):
        key = tuple(members), size
        reduced[key] = reduced.get(key, 0) + 1
    edge_members = [members for members, _size in reduced]
    edge_labels = [(size, mult) for (_members, size), mult in reduced.items()]
    vertex_edges: list[list[int]] = [[] for _ in weights]
    for j, members in enumerate(edge_members):
        for c in members:
            vertex_edges[c].append(j)

    def refine(colours: list[int]) -> list[int]:
        """Split colour classes until they are equitable.  New colours are
        ranks of (old colour, incident edge colours), so the old order is
        kept and nothing depends on the labels.  A discrete colouring is
        equitable, so refinement ends as soon as one is reached."""
        cells = len(set(colours))
        while True:
            edge_colours = [
                (label, tuple(sorted([colours[c] for c in members])))
                for label, members in zip(edge_labels, edge_members)
            ]
            signatures = [
                (colour, tuple(sorted([edge_colours[j] for j in edges])))
                for colour, edges in zip(colours, vertex_edges)
            ]
            rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
            colours = [rank[sig] for sig in signatures]
            if len(rank) == cells or len(rank) == len(colours):
                return colours
            cells = len(rank)

    reduced_edges = set(zip(edge_members, edge_labels))

    def swaps(a: int, b: int) -> bool:
        """Whether the transposition of weighted vertices a and b maps every
        reduced edge, with its label, onto a reduced edge."""
        image = {a: b, b: a}
        return all(
            (tuple(sorted([image.get(c, c) for c in edge_members[j]])), edge_labels[j])
            in reduced_edges
            for j in vertex_edges[a] + vertex_edges[b]
        )

    best = None
    leaves = 0
    # the individualisation tree, depth first on an explicit stack
    stack = [weights]
    while stack:
        colours = refine(stack.pop())
        if len(set(colours)) < len(colours):
            # the least tied colour; colours are ranks 0, 1, ...
            sizes = [0] * len(colours)
            for x in colours:
                sizes[x] += 1
            target = next(x for x, size in enumerate(sizes) if size > 1)
            kept: list[int] = []
            for c, x in enumerate(colours):
                if x == target and not any(swaps(k, c) for k in kept):
                    kept.append(c)
            # the chosen vertex goes before the rest of its cell
            stack.extend(
                [
                    2 * x + (x == target and c != chosen)
                    for c, x in enumerate(colours)
                ]
                for chosen in reversed(kept)
            )
            continue
        leaves += 1
        if leaves > CANONICAL_LEAF_BUDGET:
            raise BudgetError(
                f"shape too symmetric to label: more than "
                f"{CANONICAL_LEAF_BUDGET} refinement leaves"
            )
        # a discrete colouring: the weighted vertices in colour order
        order = [0] * len(colours)
        for c, x in enumerate(colours):
            order[x] = c
        encoding = (
            tuple([weights[c] for c in order]),
            sorted(
                [
                    (tuple(sorted([colours[c] for c in members])), label)
                    for label, members in zip(edge_labels, edge_members)
                ]
            ),
        )
        if best is None or encoding < best:
            best = encoding

    ordered_weights, ordered_edges = best
    starts = [1]
    for weight in ordered_weights:
        starts.append(starts[-1] + weight)
    fresh = starts[-1]
    result_edges: list[Edge] = []
    for members, (private, mult) in ordered_edges:
        shared = tuple([v for p in members for v in range(starts[p], starts[p + 1])])
        if not private:
            result_edges.extend([shared] * mult)
            continue
        for _ in range(mult):
            result_edges.append(shared + tuple(range(fresh, fresh + private)))
            fresh += private
    return Shape(tuple(sorted(result_edges, key=_edge_key)))


# ---------------------------------------------------------------------------
# star classification
# ---------------------------------------------------------------------------

STAR21 = "star21"
STAR32 = "star32"
STAR32_CENTER_EDGES = "star32_center_edges"
OTHER = "other"


# the stars by their set of edge sizes
_STARS = {(2,): STAR21, (3,): STAR32, (2, 3): STAR32_CENTER_EDGES}


def classify_star(shape: Shape) -> str:
    """One rule on the common core, the vertices that lie in every edge: a
    shape whose edge sizes are {2}, {3} or {2, 3} is that star when its core
    holds all but one vertex of a largest edge, and OTHER otherwise.

    With pair edges and triples, a two-vertex core is every pair edge and
    lies inside every triple, so those are the 3-2 stars with centre edges.
    """
    sizes = tuple(sorted({len(e) for e in shape.edges}))
    common = set.intersection(*(set(e) for e in shape.edges))
    if sizes in _STARS and len(common) >= sizes[-1] - 1:
        return _STARS[sizes]
    return OTHER


# ---------------------------------------------------------------------------
# intersection values over sign choices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _edge_choices(k: int, edge: Edge, groups: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The masks of one edge's sign choices in a k-vertex shape, in
    ascending sign order.

    Each group is a vertex class (see _edge_candidates) whose first edge this
    is: only its count of -1s varies, on its low vertices first.  Every other
    vertex takes both signs.  A choice is its mask: the point with only
    vertex v set lies in the mask iff v's sign is +1, so distinct signs give
    distinct masks and the signs are read back off the mask
    (max_intersection).  The masks come from one cube.row_masks walk at
    k = edge[-1]; a vertex above the edge is a zero coordinate, so for a
    larger k each (k - 1)-vertex mask is repeated over the new coordinate,
    the step row_masks takes above its support (cube._tile).  Cached, as
    row_mask is: the result depends only on the arguments and is shared
    between shapes, so each (edge, groups) is walked once for every k.
    """
    if k == edge[-1]:
        return tuple(row_masks(k, (-1, 1), edge, groups))
    shift = 1 << (k - 1)
    return tuple(mask | mask << shift for mask in _edge_choices(k - 1, edge, groups))


def _edge_candidates(shape: Shape) -> list[tuple[int, ...]]:
    """The cached _edge_choices of every edge, in edge order; an edge's
    choices are walked once for all vertex counts (_edge_choices).

    A vertex class (Shape.vertex_classes) has a first edge, the first one
    that holds it.  Its permutations fix the signs of every edge before that
    one, so signs packed on each class at its first edge (-1s on its low
    vertices) reach every size, and the first assignment in ascending sign
    order that reaches a size is already packed.  A class of one vertex is
    no group.
    """
    groups: list[list[tuple[int, ...]]] = [[] for _ in shape.edges]
    for edges, members in shape.vertex_classes().items():
        if len(members) > 1:
            groups[edges[0]].append(tuple(members))
    k = shape.vertex_count
    return [
        _edge_choices(k, edge, tuple(edge_groups))
        for edge, edge_groups in zip(shape.edges, groups)
    ]


@lru_cache(maxsize=None)
def intersection_value_set(
    shape: Shape, floor: Fraction | int = 0
) -> tuple[int, ...]:
    """All achievable sizes above floor * 2^k, in ascending order.

    Only the sizes are kept; max_intersection gives a witness for the best
    one.  The partial intersections are closed one edge at a time as a set,
    so equal ones are extended once, and one at or below the floor is never
    extended.  Cached on (shape, floor).
    """
    floor = Fraction(floor)
    points = 1 << shape.vertex_count
    # an integer size is above floor * points iff it is above this
    bar = (floor.numerator * points) // floor.denominator
    masks = {full_mask(shape.vertex_count)}
    for choices in _edge_candidates(shape):
        masks = {
            child
            for mask in masks
            for cand_mask in choices
            if (child := mask & cand_mask).bit_count() > bar
        }
    return tuple(sorted({mask.bit_count() for mask in masks}))


def max_intersection(shape: Shape) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Best achievable size over sign assignments, with a deterministic witness.

    The witness holds one sign row per edge: row i gives the +-1 on the
    vertices of edge i, ascending.  One branch-and-bound walk, on an explicit
    stack, over the cached edge choices in ascending sign order (signs packed
    on each vertex class at its first edge, -1 before +1); the chosen masks
    are recorded whenever the best size rises, so they are the first
    assignment in that order reaching the maximum, which is also the first
    over every sign assignment (_edge_candidates).  Every choice holds point
    0, where each row is 0, so the first assignment already scores 1 and
    there is always a witness.  Its signs are read off its masks once, at
    the end (_edge_choices).
    """
    cands = _edge_candidates(shape)
    best = 0
    witness: tuple[int, ...] = ()
    # one (mask, chosen masks, remaining choices of the next edge) per open edge
    stack = [(full_mask(shape.vertex_count), (), iter(cands[0]))]
    while stack:
        mask, chosen, choices = stack[-1]
        cand_mask = next(choices, None)
        if cand_mask is None:
            stack.pop()
            continue
        child = mask & cand_mask
        count = child.bit_count()
        if count <= best:
            continue
        if len(stack) == len(cands):
            best, witness = count, chosen + (cand_mask,)
        else:
            stack.append((child, chosen + (cand_mask,), iter(cands[len(stack)])))
    return best, tuple(
        tuple(1 if edge_mask >> (1 << (v - 1)) & 1 else -1 for v in edge)
        for edge, edge_mask in zip(shape.edges, witness)
    )
