"""Exact search and certification of hypercube/subspace intersection sizes."""

__version__ = "0.1.0"

from .cube import (
    LinearMap,
    SizeSet,
    evaluate_pattern,
    factor_pattern,
    fix_coordinate_count,
    has_redundant_condition,
    intersection_size,
    is_minimal,
    oracle_enumerate,
    restrict,
    support,
)
from .codim1 import (
    SignCount,
    codim1_size,
    codim1_table,
    central_ratio_nonincreasing,
    large_codim1_sizes,
    level_count,
    support_size_bound,
)
from .shapes import (
    CanonicalBudgetError,
    Shape,
    canonical_form,
    classify_star,
    max_intersection,
    shape_fraction,
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
    "central_ratio_nonincreasing",
    "classify_star",
    "codim1_size",
    "codim1_table",
    "evaluate_pattern",
    "factor_pattern",
    "fix_coordinate_count",
    "has_redundant_condition",
    "intersection_size",
    "is_minimal",
    "large_codim1_sizes",
    "level_count",
    "max_intersection",
    "oracle_enumerate",
    "restrict",
    "shape_fraction",
    "support",
    "support_size_bound",
]
