"""Slow reference implementations that the fast shape code is checked against."""
from itertools import product

from cubeint.codim1 import binomial
from cubeint.cube import evaluate_pattern
from cubeint.shapes import Shape, SignAssignment


def assignment_intersection(shape: Shape, assignment: SignAssignment) -> int:
    """Size of the intersection for one sign assignment.

    Conditions are evaluated by conditioning on the shared coordinates (those
    in at least two edges): for each 0/1 choice there, every edge contributes
    the number of ways to finish its private coordinates, and the total is the
    sum over shared choices of the product of those counts.
    """
    if assignment.shape != shape:
        raise ValueError("assignment does not belong to this shape")
    shared = shape.shared_vertices()
    shared_index = {v: i for i, v in enumerate(shared)}
    per_edge = []
    for edge, row in zip(shape.edges, assignment.signs):
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
        assignment = SignAssignment(shape, tuple(tuple(r) for r in combo))
        _, size = evaluate_pattern(assignment.to_map())
        best = max(best, size)
    return best
