"""Shared utilities: validation, random-state handling and statistics."""

from repro.utils.random import as_rng
from repro.utils.validation import (
    check_array,
    check_matrix,
    check_positive,
    check_vector,
)
from repro.utils.stats import norm_cdf, norm_pdf, summarize_runs

__all__ = [
    "as_rng",
    "check_array",
    "check_matrix",
    "check_positive",
    "check_vector",
    "norm_cdf",
    "norm_pdf",
    "summarize_runs",
]
