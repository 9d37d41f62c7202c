"""Support hypergraphs (shapes) and the best intersection over sign choices.

A shape records only which coordinates each condition touches; the actual map
is fixed by assigning +1/-1 to every incidence.  Isolated coordinates are never
stored: they would double every achievable size without changing fractions.
Edges form a multiset (a condition may repeat another's support), stored
sorted by (size descending, lexicographic), and vertices are the integers
1..vertex_count.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .cube import row_mask

Edge = tuple[int, ...]


def _edge_key(edge: Edge):
    return (-len(edge), edge)


@dataclass(frozen=True)
class Shape:
    """Multiset of condition supports over vertices 1..vertex_count.

    Shape(edges) trusts its caller to pass the module's normal form, with
    edges of two or more vertices; input goes through from_edges (or
    from_json_dict), the one place it is validated.
    """

    edges: tuple[Edge, ...]

    @staticmethod
    def from_edges(edges: Iterable[Iterable[int]]) -> "Shape":
        """Build a shape from arbitrary labels, compressing them to 1..k;
        no edges, or an edge of < 2 distinct vertices, is a ValueError."""
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
        relabelled = tuple(
            tuple(sorted(labels[v] for v in edge)) for edge in raw
        )
        return Shape(tuple(sorted(relabelled, key=_edge_key)))

    @property
    def vertex_count(self) -> int:
        return max(v for edge in self.edges for v in edge)

    def degrees(self) -> Counter:
        deg: Counter = Counter()
        for edge in self.edges:
            deg.update(edge)
        return deg

    def shared_vertices(self) -> tuple[int, ...]:
        deg = self.degrees()
        return tuple(sorted(v for v, d in deg.items() if d >= 2))

    def with_edge(self, edge: Edge) -> "Shape":
        """This shape with one more edge, kept in (size desc, lex) order; the
        edge is sorted, of size >= 2, over old vertices and the next fresh ones."""
        return Shape(tuple(sorted(self.edges + (edge,), key=_edge_key)))

    def is_minimal(self) -> bool:
        """Every edge keeps a private vertex (multiset degree one)."""
        deg = self.degrees()
        return all(any(deg[v] == 1 for v in edge) for edge in self.edges)

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

# Most leaves the individualisation tree of one canonical_form call may reach.
# The k <= 12 certificates need at most 720; a shape past this one is so
# symmetric (the complete graph on 7 vertices has 7! leaves) that it is refused.
CANONICAL_LEAF_BUDGET = 5_000


class CanonicalBudgetError(ValueError):
    """canonical_form passed CANONICAL_LEAF_BUDGET leaves on one shape."""


@lru_cache(maxsize=None)
def canonical_form(shape: Shape) -> Shape:
    """Canonical representative of the isomorphism class of a shape.

    The shape is first reduced to the part that symmetry can act on.  A
    private vertex (multiset degree one) only counts towards its edge, so
    each edge becomes (its shared vertices, its private count), and equal
    reduced edges merge into one with a multiplicity.  Shared vertices with
    the same incident reduced edges (twins) merge into one weighted vertex.
    Colour refinement on the vertex-edge incidence graph then splits the
    weighted vertices by weight and by the edges around them, and
    individualisation (McKay & Piperno's scheme) branches only on the cells
    that stay tied.  Every leaf orders the weighted vertices; the least
    encoding over the leaves is canonical.  The representative lists the
    shared vertices first, in that order, then each edge's private run.

    Raises CanonicalBudgetError past CANONICAL_LEAF_BUDGET leaves.  Cached,
    like _edge_choices: the result depends only on the shape.
    """
    degree = Counter(v for edge in shape.edges for v in edge)
    reduced: Counter = Counter()
    for edge in shape.edges:
        shared = tuple(v for v in edge if degree[v] > 1)
        reduced[shared, len(edge) - len(shared)] += 1
    incidence: dict[int, list[int]] = {}
    for j, (shared, _private) in enumerate(reduced):
        for v in shared:
            incidence.setdefault(v, []).append(j)
    twins = Counter(tuple(edges) for edges in incidence.values())
    vertex_edges = list(twins)
    weights = list(twins.values())
    edge_members: list[list[int]] = [[] for _ in reduced]
    for c, edges in enumerate(vertex_edges):
        for j in edges:
            edge_members[j].append(c)
    edge_labels = [(private, mult) for (_shared, private), mult in reduced.items()]

    def refine(colours: list[int]) -> list[int]:
        """Split colour classes until they are equitable.  New colours are
        ranks of (old colour, incident edge colours), so the old order is
        kept and nothing depends on the labels."""
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
            if len(rank) == cells:
                return colours
            cells = len(rank)

    best = None
    leaves = 0

    def search(colours: list[int]) -> None:
        nonlocal best, leaves
        colours = refine(colours)
        sizes = Counter(colours)
        tied = [colour for colour, size in sizes.items() if size > 1]
        if tied:
            target = min(tied)
            for chosen, colour in enumerate(colours):
                if colour == target:
                    # the chosen vertex goes before the rest of its cell
                    search([
                        2 * x + (x == target and c != chosen)
                        for c, x in enumerate(colours)
                    ])
            return
        leaves += 1
        if leaves > CANONICAL_LEAF_BUDGET:
            raise CanonicalBudgetError(
                f"shape too symmetric to label: more than "
                f"{CANONICAL_LEAF_BUDGET} refinement leaves"
            )
        order = sorted(range(len(colours)), key=colours.__getitem__)
        encoding = (
            tuple(weights[c] for c in order),
            sorted(
                (tuple(sorted(colours[c] for c in members)), label)
                for label, members in zip(edge_labels, edge_members)
            ),
        )
        if best is None or encoding < best:
            best = encoding

    search(weights)

    ordered_weights, ordered_edges = best
    starts = [1]
    for weight in ordered_weights:
        starts.append(starts[-1] + weight)
    fresh = starts[-1]
    result_edges: list[Edge] = []
    for members, (private, mult) in ordered_edges:
        shared = tuple(
            v for p in members for v in range(starts[p], starts[p + 1])
        )
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


def classify_star(shape: Shape) -> str:
    sizes = {len(e) for e in shape.edges}
    edge_sets = [set(e) for e in shape.edges]
    if sizes == {2}:
        common = set.intersection(*edge_sets)
        if common:
            return STAR21
        return OTHER
    if sizes == {3}:
        common = set.intersection(*edge_sets)
        if len(common) >= 2:
            return STAR32
        return OTHER
    if sizes == {2, 3}:
        pairs = [frozenset(e) for e in shape.edges if len(e) == 2]
        if len(set(pairs)) != 1:
            return OTHER
        centre = set(next(iter(pairs)))
        if all(centre <= s for s in edge_sets if len(s) == 3):
            return STAR32_CENTER_EDGES
        return OTHER
    return OTHER


# ---------------------------------------------------------------------------
# intersection values over sign choices
# ---------------------------------------------------------------------------


def _spread(edge: Edge, signs: Sequence[int], k: int) -> tuple[int, ...]:
    coeffs = [0] * k
    for v, s in zip(edge, signs):
        coeffs[v - 1] = s
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _edge_choices(
    k: int, edge: Edge, is_shared: tuple[bool, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(signs, mask) choices for one edge of a k-vertex shape, sorted by signs.

    is_shared flags each vertex of the edge as shared (in another edge too).
    Only the count of -1s over the private coordinates is varied (they occupy
    the low vertices first), which covers every achievable joint value because
    private coordinates of one edge can be permuted freely.  Choices with
    equal masks keep the least sign tuple.  Cached, as row_mask is: the
    result depends only on the arguments and is shared between shapes.
    """
    private = is_shared.count(False)
    candidates = []
    for shared_signs in product((-1, 1), repeat=len(edge) - private):
        for minus in range(private + 1):
            fill = iter(shared_signs), iter([-1] * minus + [1] * (private - minus))
            # from a list: a generator here raised verify small's peak RSS 0.3 MB
            signs_t = tuple([next(fill[not flag]) for flag in is_shared])
            candidates.append((signs_t, row_mask(_spread(edge, signs_t, k), 1)))
    candidates.sort()
    masks: set[int] = set()
    ordered = []
    for signs_t, mask in candidates:
        if mask not in masks:
            masks.add(mask)
            ordered.append((signs_t, mask))
    return tuple(ordered)


def _edge_candidates(shape: Shape) -> list[tuple[tuple[tuple[int, ...], int], ...]]:
    """The cached _edge_choices of every edge, in edge order."""
    k = shape.vertex_count
    shared = set(shape.shared_vertices())
    return [
        _edge_choices(k, edge, tuple([v in shared for v in edge]))
        for edge in shape.edges
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
    masks = {(1 << points) - 1}
    for choices in _edge_candidates(shape):
        masks = {
            child
            for mask in masks
            for _signs, cand_mask in choices
            if (child := mask & cand_mask).bit_count() > bar
        }
    return tuple(sorted({mask.bit_count() for mask in masks}))


def max_intersection(shape: Shape) -> tuple[int, tuple | None]:
    """Best achievable size over sign assignments, with a deterministic witness.

    The witness holds one sign row per edge: row i gives the +-1 on the
    vertices of edge i, ascending.  One branch-and-bound walk over the cached
    edge choices in ascending sign order (reduced private placements, -1
    before +1); the witness is recorded whenever the best size rises, so it is
    the first assignment in that order reaching the maximum.  Returns
    (0, None) when every assignment gives the empty set.
    """
    cands = _edge_candidates(shape)
    best = 0
    witness: tuple | None = None

    def walk(idx: int, mask: int, chosen: tuple):
        nonlocal best, witness
        count = mask.bit_count()
        if count <= best:
            return
        if idx == len(cands):
            best, witness = count, chosen
            return
        for signs_t, cand_mask in cands[idx]:
            walk(idx + 1, mask & cand_mask, chosen + (signs_t,))

    walk(0, (1 << (1 << shape.vertex_count)) - 1, ())
    return best, witness
