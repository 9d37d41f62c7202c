"""Slow reference implementations that the fast code is checked against."""
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from cubeint.codim1 import binomial
from cubeint.cube import LinearMap, _scaled_row, evaluate_pattern, row_mask
from cubeint.search import EXHAUSTIVE_LARGE, SearchConfig, _new_edge
from cubeint.shapes import Edge, Shape, _edge_key, max_intersection


def reference_row_mask(coeffs: tuple[int, ...], unit: int) -> int:
    """cube.row_mask point by point: bit x is set iff the coefficients at the
    set bits of x sum to 0 or to unit."""
    mask = 0
    for x in range(1 << len(coeffs)):
        value = sum(c for i, c in enumerate(coeffs) if x >> i & 1)
        if value in (0, unit):
            mask |= 1 << x
    return mask


def per_row_masks(k: int, entries) -> list[int]:
    """cube.row_masks one row at a time, each row scaled by its own common
    denominator and built by cube.row_mask."""
    return [row_mask(*_scaled_row(row)) for row in product(entries, repeat=k)]


def counting_int():
    """A fresh int subclass and the list to which every & it takes part in,
    on either side, appends; the & itself gives a plain int."""
    count = []

    class Counted(int):
        def __and__(self, other):
            count.append(1)
            return int(self) & int(other)

        __rand__ = __and__

    return Counted, count


def level_count(plus: int, minus: int, zero: int, level: int) -> int:
    """Number of cube points on which the row with plus +1s, minus -1s and
    zero 0s evaluates to `level`; the levels 0 and 1 add up to
    codim1.codim1_size."""
    return (1 << zero) * binomial(plus + minus, minus + level)


def shared_vertices(shape: Shape) -> tuple[int, ...]:
    """The vertices in two or more edges (counted with multiplicity), ascending."""
    degree = Counter(v for edge in shape.edges for v in edge)
    return tuple(sorted(v for v, d in degree.items() if d >= 2))


def assert_normal_shape(shape: Shape) -> None:
    """The normal form Shape trusts its caller for, checked in full: at least
    one edge, each of two or more sorted distinct vertices, the vertices
    exactly 1..k, the edges sorted by (size desc, lex)."""
    if not shape.edges:
        raise AssertionError("a shape needs at least one edge")
    for edge in shape.edges:
        if len(edge) < 2:
            raise AssertionError("edges of size < 2 are excluded from shapes")
        if list(edge) != sorted(set(edge)):
            raise AssertionError("edge vertices must be sorted and distinct")
    covered = set()
    for edge in shape.edges:
        covered.update(edge)
    k = max(covered)
    if covered != set(range(1, k + 1)):
        raise AssertionError("vertices must be exactly 1..k with no gaps")
    if list(shape.edges) != sorted(shape.edges, key=_edge_key):
        raise AssertionError("edges must be sorted by (size desc, lex)")


def assignment_map(shape: Shape, signs) -> LinearMap:
    """The map of one sign assignment: signs[i][j] is the sign on the j-th
    smallest vertex of edge i."""
    k = shape.vertex_count
    rows = []
    for edge, row in zip(shape.edges, signs):
        coeffs = [0] * k
        for v, s in zip(edge, row):
            coeffs[v - 1] = s
        rows.append(coeffs)
    return LinearMap.from_rows(k, rows)


def assignment_intersection(shape: Shape, signs) -> int:
    """Size of the intersection for one sign assignment (a sign row per edge).

    Conditions are evaluated by conditioning on the shared coordinates (those
    in at least two edges): for each 0/1 choice there, every edge contributes
    the number of ways to finish its private coordinates, and the total is the
    sum over shared choices of the product of those counts.
    """
    if len(signs) != len(shape.edges) or any(
        len(row) != len(edge) for edge, row in zip(shape.edges, signs)
    ):
        raise ValueError("assignment does not belong to this shape")
    shared = shared_vertices(shape)
    shared_index = {v: i for i, v in enumerate(shared)}
    per_edge = []
    for edge, row in zip(shape.edges, signs):
        shared_signs = [(shared_index[v], s) for v, s in zip(edge, row) if v in shared_index]
        private_signs = [s for v, s in zip(edge, row) if v not in shared_index]
        n = len(private_signs)
        b = sum(1 for s in private_signs if s == -1)
        per_edge.append((shared_signs, n, b))
    total = 0
    for choice in range(1 << len(shared)):
        prod = 1
        for shared_signs, n, b in per_edge:
            p = sum(s for i, s in shared_signs if (choice >> i) & 1)
            ways = binomial(n, b - p) + binomial(n, b + 1 - p)
            if ways == 0:
                prod = 0
                break
            prod *= ways
        total += prod
    return total


def naive_max_intersection(shape: Shape) -> int:
    """Cross-check: brute force over every sign vector via map evaluation."""
    best = 0
    ranges = [product((-1, 1), repeat=len(edge)) for edge in shape.edges]
    for combo in product(*ranges):
        size = evaluate_pattern(assignment_map(shape, combo)).bit_count()
        best = max(best, size)
    return best


def shape_fraction(shape: Shape) -> Fraction:
    """Best achievable size divided by the covered cube's size."""
    best, _ = max_intersection(shape)
    return Fraction(best, 1 << shape.vertex_count)


def pair_types(config: SearchConfig):
    """Every (|e|, |new|, |e & new|) of two edges over at most k vertices with
    |e| >= |new|, both at most max_edge_size: the types of search._children's
    two-edge shapes."""
    for a in range(2, config.max_edge_size + 1):
        for b in range(2, a + 1):
            for x in range(max(0, a + b - config.k), b + 1):
                yield (a, b, x)


def walked_dead_pairs(config: SearchConfig) -> frozenset:
    """The dead types among pair_types(config), by the branch-and-bound walk:
    a pair is dead when max_intersection's best size is at or below
    threshold * 2^|V|."""
    num, den = config.threshold.numerator, config.threshold.denominator
    dead = set()
    for a, b, x in pair_types(config):
        pair = Shape.from_edges([range(1, a + 1), range(a - x + 1, a - x + b + 1)])
        best, _ = max_intersection(pair)
        if best * den <= num << pair.vertex_count:
            dead.add((a, b, x))
    return frozenset(dead)


def triple_types(config: SearchConfig):
    """Every (|new|, |a|, |b|, |new & a|, |new & b|, |a & b|, |new & a & b|)
    of three edges over at most k vertices with |a| >= |b| >= |new|, all at
    most max_edge_size: the types of search._children's three-edge shapes."""
    sizes = range(2, config.max_edge_size + 1)
    for a, b, n in product(sizes, repeat=3):
        if not a >= b >= n:
            continue
        for na, nb, ab in product(range(n + 1), range(n + 1), range(b + 1)):
            for nab in range(min(na, nb, ab) + 1):
                alone = (n - na - nb + nab, a - na - ab + nab, b - nb - ab + nab)
                if min(alone) >= 0 and n + a + b - na - nb - ab + nab <= config.k:
                    yield (n, a, b, na, nb, ab, nab)


def walked_dead_triples(config: SearchConfig, types) -> frozenset:
    """The dead types among types, a subset of triple_types(config), by the
    branch-and-bound walk: a type is dead when max_intersection's best size on
    its shape is at or below threshold * 2^|V|.  The shape puts a, b and new
    on vertex sets cut from one run of labels, region by region."""
    num, den = config.threshold.numerator, config.threshold.denominator
    dead = set()
    for triple in types:
        n, a, b, na, nb, ab, nab = triple
        labels = iter(range(1, config.k + 1))

        def take(count):
            return {next(labels) for _ in range(count)}

        core = take(nab)
        new_a, new_b, a_b = take(na - nab), take(nb - nab), take(ab - nab)
        new = core | new_a | new_b | take(n - na - nb + nab)
        edge_a = core | new_a | a_b | take(a - na - ab + nab)
        edge_b = core | new_b | a_b | take(b - nb - ab + nab)
        shape = Shape.from_edges([edge_a, edge_b, new])
        best, _ = max_intersection(shape)
        if best * den <= num << shape.vertex_count:
            dead.add(triple)
    return frozenset(dead)


def reference_sub_shape(others: tuple, chosen: int, n: int, fresh: int) -> Shape:
    """A sub-shape of a child, built from the parent's edges in hand: others
    (one or two parent edges) and the new edge of the chosen vertices (a
    bitmask over the parent's n) and `fresh` new ones, relabelled by
    Shape.from_edges.  search._sub_shape lays it out from its type alone."""
    return Shape.from_edges(others + (_new_edge(chosen, n, fresh),))


def brute_canonical_form(shape: Shape) -> Shape:
    """Canonical representative by brute force over edge orderings.

    Vertices are characterised by their incidence vector over the distinct
    edges; for a fixed ordering of the distinct edges, the multiset of
    incidence vectors together with the edge multiplicities determines the
    shape up to isomorphism.  Minimising that encoding over the orderings
    (only permutations within equal (size, multiplicity) blocks can matter)
    yields a canonical encoding, from which a canonically labelled shape is
    rebuilt.  Up to n! orderings for n equal edges, and no cache.
    """
    counter = Counter(shape.edges)
    distinct = list(counter.items())
    blocks: dict[tuple[int, int], list[Edge]] = {}
    for edge, mult in distinct:
        blocks.setdefault((-len(edge), -mult), []).append(edge)
    block_keys = sorted(blocks)

    best = None
    block_perms = [permutations(blocks[key]) for key in block_keys]
    for perm_combo in product(*block_perms):
        ordered: list[Edge] = [e for group in perm_combo for e in group]
        vectors: Counter = Counter()
        for v in range(1, shape.vertex_count + 1):
            vec = 0
            for idx, edge in enumerate(ordered):
                if v in edge:
                    vec |= 1 << idx
            vectors[vec] += 1
        encoding = (
            tuple((len(e), counter[e]) for e in ordered),
            tuple(sorted(vectors.items(), reverse=True)),
        )
        if best is None or encoding < best:
            best = encoding

    sizes_mults, vector_items = best
    label = 0
    vertex_labels: dict[int, list[int]] = {}
    for vec, count in vector_items:
        vertex_labels[vec] = [label + i + 1 for i in range(count)]
        label += count
    result_edges: list[Edge] = []
    for idx, (_size, mult) in enumerate(sizes_mults):
        members = []
        for vec, labels_list in vertex_labels.items():
            if (vec >> idx) & 1:
                members.extend(labels_list)
        result_edges.extend([tuple(sorted(members))] * mult)
    return Shape(tuple(sorted(result_edges, key=_edge_key)))


def pairwise_ints_masks(k: int, entries) -> set[int]:
    """Patterns of one bad row, or a bad row and any other row, above the
    integrality bar 15/16 * 2^(k-1), by a plain sweep over every pair.

    A row is bad when it has an entry outside {-1, 0, 1}; each row's pattern
    is evaluated through a one-row map.
    """
    plain = {Fraction(-1), Fraction(0), Fraction(1)}
    bar = Fraction(15, 16) * (1 << (k - 1))
    pure, bad = set(), set()
    for row in product(entries, repeat=k):
        mask = evaluate_pattern(LinearMap.from_rows(k, [row]))
        (pure if set(row) <= plain else bad).add(mask)
    found = {mask for mask in bad if mask.bit_count() > bar}
    for mask in bad:
        for other in pure | bad:
            if (mask & other).bit_count() > bar:
                found.add(mask & other)
    return found


def reference_edge_candidates(shape: Shape) -> list[list[tuple[tuple[int, ...], int]]]:
    """(signs, mask) choices for every edge, built afresh for this shape and
    each list sorted by sign tuple; of choices with equal masks the least
    sign tuple is kept.  Only the count of -1s over an edge's private
    coordinates varies, on the low private vertices first."""
    k = shape.vertex_count
    shared = set(shared_vertices(shape))
    per_edge = []
    for edge in shape.edges:
        private = sum(v not in shared for v in edge)
        candidates = []
        for shared_signs in product((-1, 1), repeat=len(edge) - private):
            for minus in range(private + 1):
                fill = iter(shared_signs), iter([-1] * minus + [1] * (private - minus))
                signs_t = tuple([next(fill[v not in shared]) for v in edge])
                coeffs = [0] * k
                for v, s in zip(edge, signs_t):
                    coeffs[v - 1] = s
                candidates.append((signs_t, row_mask(tuple(coeffs), 1)))
        candidates.sort()
        masks: set[int] = set()
        ordered = []
        for signs_t, mask in candidates:
            if mask not in masks:
                masks.add(mask)
                ordered.append((signs_t, mask))
        per_edge.append(ordered)
    return per_edge


def reference_value_set(shape: Shape, floor=0) -> dict[int, tuple]:
    """Every size above floor * 2^k with its first witness (a sign row per
    edge) in ascending candidate order, by a plain recursive walk that tests the floor on entry
    to every call and records a value at the first leaf reaching it.  No
    cache."""
    floor = Fraction(floor)
    points = 1 << shape.vertex_count
    limit_num = floor.numerator * points
    limit_den = floor.denominator
    cands = reference_edge_candidates(shape)
    found: dict[int, tuple[tuple[int, ...], ...]] = {}

    def walk(idx: int, mask: int, chosen: tuple):
        if mask.bit_count() * limit_den <= limit_num:
            return
        if idx == len(cands):
            value = mask.bit_count()
            if value not in found:
                found[value] = chosen
            return
        for signs_t, cand_mask in cands[idx]:
            walk(idx + 1, mask & cand_mask, chosen + (signs_t,))

    walk(0, (1 << points) - 1, ())
    return dict(sorted(found.items()))


def labelled_children(shape: Shape, config: SearchConfig):
    """All admissible one-edge extensions, as (child shape, key, new edge)
    triples, one per labelled subset of the current vertices.

    The new edge is a subset of the current vertices (the chosen ones) plus a
    run of fresh ones; its size may not exceed the smallest existing edge,
    which realises the non-increasing addition order.  The key records the new
    size and the overlap profile with the existing edges.
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
                vec = tuple(len(set(chosen) & set(e)) for e in shape.edges)
                yield child, (new_size, vec), new_edge


def brute_frontier(k: int) -> list[set[tuple]]:
    """The exhaustive-large frontier of dimension k, depth by depth, as sets of
    brute_canonical_form edges, by an unordered BFS with no edge order, no
    vertex reduction and no keys.

    Every surviving state is extended by every subset of 2..max_edge_size of
    k labelled vertices, and the result is kept when its best size is above
    half its cube.  Survival is monotone under adding an edge, so this is the
    set of surviving shapes with each number of edges.
    """
    config = SearchConfig(EXHAUSTIVE_LARGE, k)
    subsets = [
        edge
        for size in range(2, config.max_edge_size + 1)
        for edge in combinations(range(1, k + 1), size)
    ]

    alive: dict[tuple, bool] = {}

    def survivors(shapes) -> set[tuple]:
        kept = set()
        for shape in shapes:
            canon = brute_canonical_form(shape)
            if canon.edges not in alive:
                best, _ = max_intersection(canon)
                alive[canon.edges] = 2 * best > 1 << canon.vertex_count
            if alive[canon.edges]:
                kept.add(canon.edges)
        return kept

    depths = [survivors(Shape.from_edges([edge]) for edge in subsets)]
    while len(depths) < config.max_edges:
        grown = survivors(
            Shape.from_edges(edges + (edge,)) for edges in depths[-1] for edge in subsets
        )
        if not grown:
            break
        depths.append(grown)
    return depths


def reference_closure(start, generators, above: int, max_rows: int | None = None) -> set[int]:
    """cube.intersection_closure by its definition: the start masks, grown a
    round at a time by every intersection of a mask reached with a generator,
    for max_rows - 1 rounds or, if None, until a round adds nothing; then
    the masks with more than `above` points.  Nothing is cut at the bar
    before the end, and no work is counted."""
    generators = set(generators)
    reached = set(start)
    rounds = 0
    while max_rows is None or rounds < max_rows - 1:
        grown = reached | {mask & generator for mask in reached for generator in generators}
        if grown == reached:
            break
        reached = grown
        rounds += 1
    return {mask for mask in reached if mask.bit_count() > above}
