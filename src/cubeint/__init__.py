"""Exact search and certification of hypercube/subspace intersection sizes."""

__version__ = "0.1.0"

from .cube import (
    LinearMap,
    SizeSet,
    evaluate_pattern,
    intersection_size,
    oracle_enumerate,
)
from .codim1 import (
    SignCount,
    codim1_size,
    codim1_table,
    large_codim1_sizes,
    support_size_bound,
)
from .shapes import (
    CanonicalBudgetError,
    Shape,
    canonical_form,
    classify_star,
    max_intersection,
)
from .search import (
    SearchConfig,
    SearchResult,
    bfs_search,
)

__all__ = [
    "CanonicalBudgetError",
    "LinearMap",
    "SizeSet",
    "SignCount",
    "Shape",
    "SearchConfig",
    "SearchResult",
    "bfs_search",
    "canonical_form",
    "classify_star",
    "codim1_size",
    "codim1_table",
    "evaluate_pattern",
    "intersection_size",
    "large_codim1_sizes",
    "max_intersection",
    "oracle_enumerate",
    "support_size_bound",
]
