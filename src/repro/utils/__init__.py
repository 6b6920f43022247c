"""Shared utilities: validation, random-state handling, scaling and statistics."""

from repro.utils.random import as_rng
from repro.utils.validation import (
    check_array,
    check_matrix,
    check_positive,
    check_same_length,
    check_vector,
)
from repro.utils.scaling import MinMaxScaler, StandardScaler
from repro.utils.stats import (
    norm_cdf,
    norm_logpdf,
    norm_pdf,
    running_best,
    summarize_runs,
)

__all__ = [
    "as_rng",
    "check_array",
    "check_matrix",
    "check_positive",
    "check_same_length",
    "check_vector",
    "MinMaxScaler",
    "StandardScaler",
    "norm_cdf",
    "norm_logpdf",
    "norm_pdf",
    "running_best",
    "summarize_runs",
]
